//! Tensor- and pipeline-parallel *functional* inference (Megatron-style
//! model parallelism executing for real over weight shards).
//!
//! A [`ShardedLm`] holds rank `(p_idx, t_idx)`'s slice of a [`TinyLm`]:
//! the pipeline stage's block range, and within each block the
//! column-sharded `Wa`/`Ua` (split along the expansion dimension) and
//! row-sharded `Wb` — exactly how Megatron shards an MLP. The forward
//! pass computes partial block outputs and joins them with a caller-
//! supplied all-reduce (a real `hf_simcluster` collective in the
//! threaded tests, a local sum in unit tests), and hands activations
//! between pipeline stages through a caller-supplied channel.
//!
//! Only the forward (inference/generation) path is sharded; training in
//! the functional runtime uses data parallelism (DESIGN.md §5 documents
//! the simplification).
//!
//! **The inference forward.** The stage forward keeps nothing it has
//! read — no tape, no saved activations — so it is also what every
//! forward-only pass of an unsharded model runs ([`TinyLm::log_probs_stacked`],
//! [`TinyLm::values_stacked`]): `run_blocks` over windows of the
//! model's own flat buffer is the `p = t = 1` stage, bit for bit the
//! tape's forward. Like the tape it takes whole sequences stacked on the
//! row dimension: `cum_mean` restarts at every segment boundary and every
//! other op is row-wise, so each segment's rows are what that sequence
//! alone computes — and a tensor-parallel group joins a layer with one
//! all-reduce for all of them. Like the tape it also takes the window of
//! each sequence's positions its caller reads, and forms one head there.
//! At `p = t = 1` no shard is cut, no weight copied and the all-reduce
//! is the identity. `tests/proptest_inference.rs` holds it to the tape
//! by `to_bits` over the three benchmark model shapes (1–5 sequences of
//! 2–70 tokens a call), and a stacked pass to a pass per sequence at
//! `t ∈ {1, 2}`. What the tape cost a pass that never calls backward
//! was its footprint, not its arithmetic (measured in PR 18).

use std::ops::Range;

use crate::kernels;
use crate::model::{LmConfig, TinyLm};
use crate::panels::{self, Panels};
use crate::tensor::{Mat, Tensor};

/// A rank's slice of the model under `t`-way tensor and `p`-way pipeline
/// parallelism.
#[derive(Debug, Clone)]
pub struct ShardedLm {
    /// Architecture of the full model.
    pub(crate) cfg: LmConfig,
    /// Pipeline stage index.
    pub(crate) p_idx: usize,
    /// Pipeline size.
    pub(crate) p: usize,
    /// Embedding table (held by every rank; Megatron shards it too, but
    /// vocab-sharding adds nothing to the resharding study).
    embed: Tensor,
    /// Per local block: (gain, Wa shard `[ffn/t × h]`, Ua shard, Wb
    /// shard `[h × ffn/t]`).
    blocks: Vec<(Vec<f32>, Tensor, Tensor, Tensor)>,
    /// Final gain + heads (last stage only).
    final_gain: Option<Vec<f32>>,
    head: Option<Tensor>,
    vhead: Option<Tensor>,
}

/// Which head a forward-only pass forms: the one its caller reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// The LM head, `[rows × vocab]` logits.
    Logits,
    /// The value head, `[rows × 1]` values.
    Values,
}

/// Output of a stage's forward: either the hidden stream to forward to
/// the next stage, or on the last stage the head its caller asked for
/// over the rows it reads.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutput {
    /// Hidden activations `[T × hidden]` for the next pipeline stage.
    Hidden(Tensor),
    /// The head's outputs over the read rows (last stage).
    Final(Tensor),
}

impl ShardedLm {
    /// Extracts rank `(p_idx, t_idx)`'s shard from a full model.
    ///
    /// # Panics
    ///
    /// Panics unless `p` divides `layers` and `t` divides `ffn`.
    pub fn from_full(lm: &TinyLm, p_idx: usize, p: usize, t_idx: usize, t: usize) -> Self {
        let cfg = lm.cfg;
        assert!(p_idx < p && t_idx < t);
        assert_eq!(cfg.layers % p, 0, "pipeline size must divide layer count");
        assert_eq!(cfg.ffn % t, 0, "TP size must divide the expansion dim");
        let h = cfg.hidden;
        let f = cfg.ffn;
        let fs = f / t; // shard width along the expansion dim
        let flat = lm.flat();
        let embed = Tensor::new(flat[0..cfg.vocab * h].to_vec(), cfg.vocab, h);

        let per_stage = cfg.layers / p;
        let mut blocks = Vec::with_capacity(per_stage);
        for l in p_idx * per_stage..(p_idx + 1) * per_stage {
            let base = lm.block_offset(l);
            let gain = flat[base..base + h].to_vec();
            // Wa rows [t_idx·fs, (t_idx+1)·fs) of the [f × h] matrix.
            let wa_full = &flat[base + h..base + h + f * h];
            let wa = Tensor::new(wa_full[t_idx * fs * h..(t_idx + 1) * fs * h].to_vec(), fs, h);
            let ua_full = &flat[base + h + f * h..base + h + 2 * f * h];
            let ua = Tensor::new(ua_full[t_idx * fs * h..(t_idx + 1) * fs * h].to_vec(), fs, h);
            // Wb is [h × f]; the row-parallel shard keeps columns
            // [t_idx·fs, (t_idx+1)·fs) of every row.
            let wb_full = &flat[base + h + 2 * f * h..base + h + 3 * f * h];
            let mut wb = Tensor::zeros(h, fs);
            for r in 0..h {
                wb.row_mut(r)
                    .copy_from_slice(&wb_full[r * f + t_idx * fs..r * f + (t_idx + 1) * fs]);
            }
            blocks.push((gain, wa, ua, wb));
        }

        let last = p_idx == p - 1;
        ShardedLm {
            cfg,
            p_idx,
            p,
            embed,
            blocks,
            final_gain: last
                .then(|| flat[lm.final_gain_offset()..lm.final_gain_offset() + h].to_vec()),
            head: last.then(|| {
                Tensor::new(
                    flat[lm.head_offset()..lm.head_offset() + cfg.vocab * h].to_vec(),
                    cfg.vocab,
                    h,
                )
            }),
            vhead: last.then(|| {
                Tensor::new(flat[lm.vhead_offset()..lm.vhead_offset() + h].to_vec(), 1, h)
            }),
        }
    }

    /// Parameters resident on this rank (the model-parallel memory
    /// claim).
    pub fn resident_params(&self) -> usize {
        let block: usize = self
            .blocks
            .iter()
            .map(|(g, wa, ua, wb)| g.len() + wa.len() + ua.len() + wb.len())
            .sum();
        block
            + self.embed.len()
            + self.final_gain.as_ref().map(|v| v.len()).unwrap_or(0)
            + self.head.as_ref().map(|t| t.len()).unwrap_or(0)
            + self.vhead.as_ref().map(|t| t.len()).unwrap_or(0)
    }

    /// Embeds `ids` (stage 0's entry point).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-first stage or ids are out of vocab.
    pub fn embed(&self, ids: &[usize]) -> Tensor {
        assert_eq!(self.p_idx, 0, "only stage 0 embeds");
        let mut x = Tensor::zeros(ids.len(), self.cfg.hidden);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.cfg.vocab);
            x.row_mut(r).copy_from_slice(self.embed.row(id));
        }
        x
    }

    /// This rank's shard of local block `b`, borrowed.
    fn block(&self, b: usize) -> Block<'_> {
        let (gain, wa, ua, wb) = &self.blocks[b];
        Block { gain, wa: wa.mat(), ua: ua.mat(), wb: wb.mat() }
    }

    /// Runs this stage's blocks over the incoming hidden stream of one
    /// sequence and, on the last stage, forms the LM head over every row.
    /// After each block's row-parallel `Wb` matmul, `all_reduce` joins
    /// the partial sums across the TP group (it receives this rank's
    /// partial `[T × hidden]` buffer and must return the elementwise sum
    /// across all TP ranks).
    pub fn forward_stage(
        &self,
        h: Tensor,
        all_reduce: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> StageOutput {
        let rows = h.rows();
        self.forward_stage_stacked(h, &[rows], &[0..rows], Head::Logits, all_reduce)
    }

    /// [`ShardedLm::forward_stage`] over several sequences stacked on the
    /// row dimension (`h` is `[Σ lens × hidden]`, sequence `s` in rows
    /// `Σ_{r<s} lens[r]..`), and on the last stage `head` over the rows
    /// `reads[s]` of each sequence `s` only, stacked: each sequence's rows
    /// come out bit for bit as from a pass of its own, and `all_reduce`
    /// is called once per block for all of them. Every block runs on
    /// every row — the next stage reads them all, and each all-reduce
    /// carries them all.
    ///
    /// # Panics
    ///
    /// Panics if `lens` does not add up to the rows of `h`, or `reads`
    /// is not one window per sequence inside it.
    pub fn forward_stage_stacked(
        &self,
        h: Tensor,
        lens: &[usize],
        reads: &[Range<usize>],
        head: Head,
        mut all_reduce: impl FnMut(&[f32]) -> Vec<f32>,
    ) -> StageOutput {
        let blocks = (0..self.blocks.len()).map(|b| self.block(b));
        let every: Vec<Range<usize>> = lens.iter().map(|&len| 0..len).collect();
        let h = run_blocks(Panels::from_mat(h.mat()), lens, &every, blocks, |partial| {
            let (rows, cols) = (partial.rows(), partial.cols());
            let data = all_reduce(&partial.row_major());
            Panels::from_mat(Mat { data: &data, rows, cols })
        });
        if self.p_idx < self.p - 1 {
            return StageOutput::Hidden(h.to_tensor());
        }
        let h = panels::read_rows(&h, &segment_bounds(lens, h.rows()), reads);
        StageOutput::Final(self.head(&h, head).to_tensor())
    }

    /// `head` over the final norm of the stream `h` (last stage only).
    fn head(&self, h: &Panels, head: Head) -> Panels {
        let f = panels::rmsnorm(h, self.final_gain.as_ref().expect("last stage"));
        let w = match head {
            Head::Logits => &self.head,
            Head::Values => &self.vhead,
        };
        kernels::x_wt(&f, w.as_ref().expect("last stage").mat())
    }
}

/// One residual block's weights as a rank holds them, borrowed: the
/// tensors of a [`ShardedLm`], or at `t = 1` windows of a [`TinyLm`]'s
/// flat buffer.
#[derive(Clone, Copy)]
pub(crate) struct Block<'a> {
    /// RMSNorm gain, `[hidden]`.
    pub(crate) gain: &'a [f32],
    /// `Wa` rows of this shard, `[ffn/t × hidden]`.
    pub(crate) wa: Mat<'a>,
    /// `Ua` rows of this shard, `[ffn/t × hidden]`.
    pub(crate) ua: Mat<'a>,
    /// `Wb` columns of this shard, `[hidden × ffn/t]`.
    pub(crate) wb: Mat<'a>,
}

impl Block<'_> {
    /// This shard's share of the block's output over the stream rows `h`
    /// with their causal context `c` (both `[rows × hidden]`): summed over
    /// the TP group it is what the residual adds to `h`.
    fn partial(&self, h: &Panels, c: &Panels) -> Panels {
        let n = panels::rmsnorm(h, self.gain);
        let mut act = kernels::x_wt(&n, self.wa);
        kernels::x_wt_add(&mut act, c, self.ua);
        panels::silu_in_place(&mut act);
        // Row-parallel output: `act` is `[rows × ffn/t]`, the `Wb` shard
        // `[hidden × ffn/t]`.
        kernels::x_wt(&act, self.wb)
    }
}

/// `[0, T₀, T₀ + T₁, …]` for segments of `lens` rows covering `rows`.
fn segment_bounds(lens: &[usize], rows: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    bounds.extend(lens.iter().scan(0, |row, len| {
        *row += len;
        Some(*row)
    }));
    assert_eq!(bounds[lens.len()], rows, "segment lengths must cover the rows");
    bounds
}

/// The tape-free forward through `blocks` over sequences of `lens` rows
/// stacked in `h`, returning the stream's rows `reads[s]` of each
/// sequence `s`, stacked: after each block `join` turns this rank's
/// partial output into the TP group's sum (the identity at `t = 1`).
/// Every block but the last runs on every row. The last runs `cum_mean`
/// over every row — a read row's context is its whole prefix — and the
/// rest of it, all row-wise, on the read rows only.
///
/// # Panics
///
/// Panics if there is no block, `lens` does not add up to the rows of
/// `h`, or `reads` is not one window per sequence inside it.
pub(crate) fn run_blocks<'a>(
    mut h: Panels,
    lens: &[usize],
    reads: &[Range<usize>],
    blocks: impl IntoIterator<Item = Block<'a>>,
    mut join: impl FnMut(Panels) -> Panels,
) -> Panels {
    let bounds = segment_bounds(lens, h.rows());
    let mut blocks = blocks.into_iter().peekable();
    while let Some(block) = blocks.next() {
        let c = panels::cum_mean(&h, &bounds);
        if blocks.peek().is_none() {
            let (mut h, c) =
                (panels::read_rows(&h, &bounds, reads), panels::read_rows(&c, &bounds, reads));
            h.add_assign(&join(block.partial(&h, &c)));
            return h;
        }
        h.add_assign(&join(block.partial(&h, &c)));
    }
    panic!("a forward runs at least one block")
}

/// Runs a full forward across an in-process grid of shards (reference
/// driver for tests; the threaded path uses real communicators and p2p).
///
/// # Panics
///
/// Panics if the grid shape is inconsistent.
pub fn grid_forward(shards: &[Vec<ShardedLm>], ids: &[usize]) -> (Tensor, Tensor) {
    let t = shards[0].len();
    assert!(shards.iter().all(|s| s.len() == t));
    let mut h = Panels::from_mat(shards[0][0].embed(ids).mat());
    let bounds = [0, ids.len()];
    for stage in shards {
        // Every TP shard of a stage reads the same stream: step them one
        // block at a time and join their partials with a local sum, in
        // shard order.
        for b in 0..stage[0].blocks.len() {
            let c = panels::cum_mean(&h, &bounds);
            let mut joined = stage[0].block(b).partial(&h, &c);
            for shard in &stage[1..] {
                joined.add_assign(&shard.block(b).partial(&h, &c));
            }
            h.add_assign(&joined);
        }
        if stage[0].p_idx == stage[0].p - 1 {
            let [logits, values] = [Head::Logits, Head::Values].map(|w| stage[0].head(&h, w));
            return (logits.to_tensor(), values.to_tensor());
        }
    }
    unreachable!("the last stage forms the heads")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_forward(lm: &TinyLm, ids: &[usize]) -> (Vec<f32>, Vec<f32>) {
        let fp = lm.forward(ids);
        (fp.tape.value(fp.logits).data().to_vec(), fp.tape.value(fp.values).data().to_vec())
    }

    fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    fn grid(lm: &TinyLm, p: usize, t: usize) -> Vec<Vec<ShardedLm>> {
        (0..p).map(|pi| (0..t).map(|ti| ShardedLm::from_full(lm, pi, p, ti, t)).collect()).collect()
    }

    #[test]
    fn tensor_parallel_forward_matches_full_model() {
        let lm = TinyLm::new(LmConfig::tiny(), 11);
        let ids = [3usize, 7, 1, 30, 12];
        let (full_logits, full_values) = full_forward(&lm, &ids);
        for t in [2usize, 4, 8] {
            let (logits, values) = grid_forward(&grid(&lm, 1, t), &ids);
            assert!(close(logits.data(), &full_logits, 1e-4), "t = {t}: TP logits diverge");
            assert!(close(values.data(), &full_values, 1e-4));
        }
    }

    #[test]
    fn pipeline_parallel_forward_matches_full_model() {
        let lm = TinyLm::new(LmConfig::tiny(), 12);
        let ids = [5usize, 9, 2];
        let (full_logits, _) = full_forward(&lm, &ids);
        for p in [2usize, 4] {
            let (logits, _) = grid_forward(&grid(&lm, p, 1), &ids);
            assert!(close(logits.data(), &full_logits, 1e-4), "p = {p}");
        }
    }

    #[test]
    fn two_d_model_parallel_forward_matches_full_model() {
        let lm = TinyLm::new(LmConfig::tiny(), 13);
        let ids = [1usize, 2, 3, 4];
        let (full_logits, full_values) = full_forward(&lm, &ids);
        let (logits, values) = grid_forward(&grid(&lm, 2, 2), &ids);
        assert!(close(logits.data(), &full_logits, 1e-4));
        assert!(close(values.data(), &full_values, 1e-4));
    }

    #[test]
    fn shard_memory_is_a_fraction_of_the_model() {
        let lm = TinyLm::new(LmConfig::tiny(), 14);
        let shard = ShardedLm::from_full(&lm, 0, 2, 0, 4);
        // Block parameters shrink by p·t (minus replicated gains); the
        // embedding stays replicated.
        let full_blocks = lm.cfg.layers * lm.cfg.block_size();
        let resident_blocks = shard.resident_params() - lm.cfg.vocab * lm.cfg.hidden;
        assert!(
            (resident_blocks as f64) < full_blocks as f64 / 6.0,
            "resident {resident_blocks} vs full {full_blocks}"
        );
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_shapes_rejected() {
        let lm = TinyLm::new(LmConfig { vocab: 8, hidden: 8, ffn: 6, layers: 2 }, 0);
        ShardedLm::from_full(&lm, 0, 1, 0, 4);
    }
}
