//! `TinyLm`: a small causal language model with a value head.
//!
//! Architecture (causal by construction — position `t` sees only tokens
//! `0..=t` through a cumulative-mean context stream):
//!
//! ```text
//! X = Embed(ids)
//! H = X
//! repeat `layers` times:
//!     C = CumMean(H)                       // causal context features
//!     A = SiLU(RmsNorm(H)·Waᵀ + C·Uaᵀ)     // SwiGLU-ish expansion
//!     H = H + A·Wbᵀ                        // residual
//! F = RmsNorm(H)
//! logits = F·Headᵀ        values = F·Vheadᵀ
//! ```
//!
//! Block parameters live in a flat buffer of `layers` equal-sized
//! chunks, so `hf_parallel::ShardLayout::uniform(layers, block_size)`
//! describes them exactly and the 3D-HybridEngine can reshard real
//! weights. The embedding, head, and value head are replicated (the
//! paper's Megatron shards them too; here they stay whole to keep the
//! functional path simple — see DESIGN.md §2).

#![allow(clippy::needless_range_loop)] // decode loops mirror the math

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::kernels::{self, Nt, LANES};
use crate::panels::{self, Panels};
use crate::sharded::{self, Block};
use crate::tape::{self, Tape, Var};
use crate::tensor::Mat;

/// Architecture of a [`TinyLm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Expansion dimension.
    pub ffn: usize,
    /// Number of residual blocks.
    pub layers: usize,
}

impl LmConfig {
    /// A small default good for tests and examples.
    pub fn tiny() -> Self {
        LmConfig { vocab: 32, hidden: 32, ffn: 64, layers: 4 }
    }

    /// Parameters per residual block: `gain + Wa + Ua + Wb`.
    pub fn block_size(&self) -> usize {
        self.hidden + 3 * self.ffn * self.hidden
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.vocab * self.hidden            // embedding
            + self.layers * self.block_size()
            + self.hidden                    // final gain
            + self.vocab * self.hidden       // LM head
            + self.hidden // value head
    }
}

/// Rows one stacked forward pass holds: callers put whole sequences on
/// one tape ([`TinyLm::forward_stacked`]) while they fit, and at least
/// one. Four lane panels of the GEMM microkernel, from measurement
/// (EXPERIMENTS.md's history, "one gradient path"): what pays is filling lanes —
/// an 11-row sequence alone leaves a third of its second panel to
/// padding and pays every op's fixed cost for itself, two of them fill
/// three panels — and end-to-end throughput is flat from two such
/// sequences a tape up to five (budgets 24 to 64), while a tape's
/// memory grows with every row it holds. Longer sequences ride alone,
/// as they always have.
pub const STACK_ROWS: usize = 4 * LANES;

/// Splits sequences of `lens` rows, in order, into the runs that share
/// one stacked tape: as many whole sequences as fit [`STACK_ROWS`], at
/// least one.
pub fn stacks(lens: impl IntoIterator<Item = usize>) -> Vec<std::ops::Range<usize>> {
    let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
    let mut rows = 0;
    for (i, len) in lens.into_iter().enumerate() {
        match runs.last_mut() {
            Some(run) if rows + len <= STACK_ROWS => run.end = i + 1,
            _ => {
                runs.push(i..i + 1);
                rows = 0;
            }
        }
        rows += len;
    }
    runs
}

/// The results of one differentiable forward pass over one sequence, or
/// several stacked on the row dimension (one segment of the tape each);
/// it borrows the model's parameters for as long as the tape lives.
pub struct ForwardPass<'a> {
    /// The autograd tape holding the computation.
    pub tape: Tape<'a>,
    /// Per-position vocabulary logits, `[T × vocab]`.
    pub logits: Var,
    /// Per-position scalar values, `[T × 1]`.
    pub values: Var,
}

impl ForwardPass<'_> {
    /// Runs backward from the scalar `loss` of a single-sequence pass
    /// and returns the flat parameter gradient.
    pub fn backward(self, loss: Var) -> Vec<f32> {
        let mut grads = [Vec::new()];
        self.backward_into(loss, &mut grads);
        let [grad] = grads;
        grad
    }

    /// Runs backward from the per-sequence losses `loss` (`[S × 1]`) and
    /// writes sequence `s`'s flat parameter gradient over the first
    /// `param_count` values of `grads[s]`, whatever they held (a shorter
    /// buffer is grown) — see [`Tape::backward_into`].
    pub fn backward_into(mut self, loss: Var, grads: &mut [Vec<f32>]) {
        self.tape.backward_into(loss, grads);
    }
}

/// A tiny causal LM over a flat parameter buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TinyLm {
    /// Architecture.
    pub cfg: LmConfig,
    flat: Vec<f32>,
}

impl TinyLm {
    /// Initializes with scaled-normal weights from `seed`.
    pub fn new(cfg: LmConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = cfg.param_count();
        let mut flat = vec![0.0f32; n];
        let scale = 1.0 / (cfg.hidden as f32).sqrt();
        for v in flat.iter_mut() {
            *v = (rng.random::<f32>() * 2.0 - 1.0) * scale;
        }
        let mut lm = TinyLm { cfg, flat };
        // RMSNorm gains start at 1.
        for l in 0..cfg.layers {
            let off = lm.block_offset(l);
            for v in lm.flat[off..off + cfg.hidden].iter_mut() {
                *v = 1.0;
            }
        }
        let fg = lm.final_gain_offset();
        for v in lm.flat[fg..fg + cfg.hidden].iter_mut() {
            *v = 1.0;
        }
        lm
    }

    /// Start of the block region in the flat buffer.
    pub fn block_region_start(&self) -> usize {
        self.cfg.vocab * self.cfg.hidden
    }

    /// Flat offset of block `l`.
    pub fn block_offset(&self, l: usize) -> usize {
        self.block_region_start() + l * self.cfg.block_size()
    }

    /// Flat offset of the final RMSNorm gain.
    pub fn final_gain_offset(&self) -> usize {
        self.block_offset(self.cfg.layers)
    }

    /// Flat offset of the LM head matrix.
    pub fn head_offset(&self) -> usize {
        self.final_gain_offset() + self.cfg.hidden
    }

    /// Flat offset of the value head vector.
    pub fn vhead_offset(&self) -> usize {
        self.head_offset() + self.cfg.vocab * self.cfg.hidden
    }

    /// The full flat parameter buffer.
    pub fn flat(&self) -> &[f32] {
        &self.flat
    }

    /// The full flat parameter buffer, mutably.
    pub fn flat_mut(&mut self) -> &mut [f32] {
        &mut self.flat
    }

    /// The slice holding the `layers` shardable blocks (the weight space
    /// the 3D-HybridEngine reshards).
    pub fn block_region(&self) -> &[f32] {
        &self.flat[self.block_region_start()..self.final_gain_offset()]
    }

    /// Builds the differentiable forward pass over `ids`.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains out-of-vocab tokens.
    pub fn forward(&self, ids: &[usize]) -> ForwardPass<'_> {
        self.forward_stacked(&[ids])
    }

    /// Builds one differentiable forward pass over several sequences
    /// stacked on the row dimension: row `Σ_{r<s} len(seqs[r]) + t` of
    /// `logits` and `values` is position `t` of sequence `s`, bit for
    /// bit what [`TinyLm::forward`] of that sequence alone gives.
    ///
    /// # Panics
    ///
    /// Panics if there is no sequence, one is empty, or a token is out
    /// of vocab.
    pub fn forward_stacked(&self, seqs: &[&[usize]]) -> ForwardPass<'_> {
        assert!(
            !seqs.is_empty() && seqs.iter().all(|s| !s.is_empty()),
            "forward needs at least one token"
        );
        let cfg = self.cfg;
        let mut tape = Tape::over(&self.flat);

        let embed = tape.param(0, cfg.vocab, cfg.hidden);
        let blocks: Vec<[Var; 4]> = (0..cfg.layers)
            .map(|l| {
                let gain = self.block_offset(l);
                let wa = gain + cfg.hidden;
                let ua = wa + cfg.ffn * cfg.hidden;
                let wb = ua + cfg.ffn * cfg.hidden;
                [
                    tape.param(gain, 1, cfg.hidden),
                    tape.param(wa, cfg.ffn, cfg.hidden),
                    tape.param(ua, cfg.ffn, cfg.hidden),
                    tape.param(wb, cfg.hidden, cfg.ffn),
                ]
            })
            .collect();
        let fgain = tape.param(self.final_gain_offset(), 1, cfg.hidden);
        let head = tape.param(self.head_offset(), cfg.vocab, cfg.hidden);
        let vhead = tape.param(self.vhead_offset(), 1, cfg.hidden);

        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let mut h = tape.embed_segments(embed, &seqs.concat(), &lens);
        for [gain, wa, ua, wb] in blocks {
            let c = tape.cum_mean(h);
            let n = tape.rmsnorm(h, gain);
            let a1 = tape.matmul_nt(n, wa);
            let a2 = tape.matmul_nt(c, ua);
            let pre = tape.add(a1, a2);
            let act = tape.silu(pre);
            let out = tape.matmul_nt(act, wb);
            h = tape.add(h, out);
        }
        let f = tape.rmsnorm(h, fgain);
        let logits = tape.matmul_nt(f, head);
        let values = tape.matmul_nt(f, vhead);

        ForwardPass { tape, logits, values }
    }

    /// The `[rows × cols]` parameter matrix at `off` in the flat buffer.
    fn window(&self, off: usize, rows: usize, cols: usize) -> Mat<'_> {
        Mat { data: &self.flat[off..off + rows * cols], rows, cols }
    }

    /// The final-norm features of several sequences stacked on the row
    /// dimension (`[Σ len × hidden]`), without a tape: the stage forward
    /// of [`crate::ShardedLm`] at `p = t = 1`, reading the flat buffer in
    /// place. Bit for bit the features [`TinyLm::forward_stacked`] forms;
    /// nothing but the stream itself is alive between two blocks.
    ///
    /// # Panics
    ///
    /// Panics if there is no sequence, one is empty, or a token is out
    /// of vocab.
    fn features_stacked(&self, seqs: &[&[usize]]) -> Panels {
        assert!(
            !seqs.is_empty() && seqs.iter().all(|s| !s.is_empty()),
            "forward needs at least one token"
        );
        let cfg = self.cfg;
        let (h, f) = (cfg.hidden, cfg.ffn);
        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let x = panels::embed(self.window(0, cfg.vocab, h), &seqs.concat());
        let blocks = (0..cfg.layers).map(|l| {
            let gain = self.block_offset(l);
            Block {
                gain: &self.flat[gain..gain + h],
                wa: self.window(gain + h, f, h),
                ua: self.window(gain + h + f * h, f, h),
                wb: self.window(gain + h + 2 * f * h, h, f),
            }
        });
        let out = sharded::run_blocks(x, &lens, blocks, |partial| partial);
        let gain = self.final_gain_offset();
        panels::rmsnorm(&out, &self.flat[gain..gain + h])
    }

    /// Log-probabilities of each next token: `out[t] = log p(ids[t+1] |
    /// ids[0..=t])`, length `ids.len() - 1` (no gradient).
    pub fn log_probs(&self, ids: &[usize]) -> Vec<f32> {
        self.log_probs_stacked(&[ids]).swap_remove(0)
    }

    /// The stacked differentiable forward pass that predicts every
    /// sequence's next tokens — sequence `s` feeds `seqs[s][..len − 1]` —
    /// and, on its tape, the log-probability of each next token
    /// (`[Σ (len − 1) × 1]`).
    ///
    /// # Panics
    ///
    /// Panics if a sequence has fewer than two tokens.
    pub fn next_token_log_probs(&self, seqs: &[&[usize]]) -> (ForwardPass<'_>, Var) {
        assert!(seqs.iter().all(|s| s.len() >= 2));
        let inputs: Vec<&[usize]> = seqs.iter().map(|s| &s[..s.len() - 1]).collect();
        let targets: Vec<usize> = seqs.iter().flat_map(|s| &s[1..]).copied().collect();
        let mut fp = self.forward_stacked(&inputs);
        let lp = fp.tape.gather_log_prob(fp.logits, &targets);
        (fp, lp)
    }

    /// [`TinyLm::log_probs`] of every sequence, through one stacked
    /// forward pass that builds no tape: bit for bit the values of
    /// [`TinyLm::next_token_log_probs`].
    ///
    /// # Panics
    ///
    /// Panics if a sequence has fewer than two tokens.
    pub fn log_probs_stacked(&self, seqs: &[&[usize]]) -> Vec<Vec<f32>> {
        assert!(seqs.iter().all(|s| s.len() >= 2));
        let inputs: Vec<&[usize]> = seqs.iter().map(|s| &s[..s.len() - 1]).collect();
        let f = self.features_stacked(&inputs);
        let head = self.window(self.head_offset(), self.cfg.vocab, self.cfg.hidden);
        let targets: Vec<usize> = seqs.iter().flat_map(|s| &s[1..]).copied().collect();
        let lp = tape::log_probs(&kernels::x_wt(&f, head), &targets);
        split_rows(&lp, seqs.iter().map(|s| s.len() - 1))
    }

    /// Per-position scalar values over `ids` (no gradient).
    pub fn values(&self, ids: &[usize]) -> Vec<f32> {
        self.values_stacked(&[ids]).swap_remove(0)
    }

    /// [`TinyLm::values`] of every sequence, through one stacked forward
    /// pass that builds no tape: bit for bit the values head of
    /// [`TinyLm::forward_stacked`].
    pub fn values_stacked(&self, seqs: &[&[usize]]) -> Vec<Vec<f32>> {
        let f = self.features_stacked(seqs);
        let values = kernels::x_wt(&f, self.window(self.vhead_offset(), 1, self.cfg.hidden));
        split_rows(values.column(), seqs.iter().map(|s| s.len()))
    }

    /// Samples `len` continuation tokens after `prompt` at `temperature`
    /// (greedy if `temperature == 0`), using incremental decoding — the
    /// functional counterpart of a KV cache (O(1) recurrent state per
    /// layer instead of recomputing the prefix per token, the exact
    /// inefficiency §8.2 attributes to NeMo-Aligner's engine).
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate(
        &self,
        prompt: &[usize],
        len: usize,
        temperature: f32,
        rng: &mut impl Rng,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty());
        let mut state = self.decode_start();
        let mut logits = Vec::new();
        for &t in prompt {
            logits = self.decode_step(&mut state, t).0;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let tok = if temperature <= 0.0 {
                greedy_token(&logits)
            } else {
                sample_softmax(&logits, temperature, rng)
            };
            out.push(tok);
            if out.len() < len {
                logits = self.decode_step(&mut state, tok).0;
            }
        }
        out
    }

    /// Starts incremental decoding: the recurrent per-layer context sums
    /// (this model's analog of a KV cache — O(hidden) per layer).
    pub fn decode_start(&self) -> DecodeState {
        DecodeState { acc: vec![vec![0.0f32; self.cfg.hidden]; self.cfg.layers], pos: 0 }
    }

    /// Feeds one token and returns `(next-token logits, value)` at this
    /// position, updating the cache in O(params) instead of O(params ×
    /// position). Every value is computed op for op as the forward pass
    /// computes it, so the result is bit for bit the last row of
    /// [`TinyLm::forward`] over every token fed so far.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocab.
    pub fn decode_step(&self, state: &mut DecodeState, token: usize) -> (Vec<f32>, f32) {
        let cfg = self.cfg;
        assert!(token < cfg.vocab, "token {token} out of vocab");
        let h0 = &self.flat[token * cfg.hidden..(token + 1) * cfg.hidden];
        let mut h = h0.to_vec();
        let inv_pos = 1.0 / (state.pos as f32 + 1.0);
        for l in 0..cfg.layers {
            let base = self.block_offset(l);
            let gain = &self.flat[base..base + cfg.hidden];
            let wa = &self.flat[base + cfg.hidden..base + cfg.hidden + cfg.ffn * cfg.hidden];
            let ua = &self.flat[base + cfg.hidden + cfg.ffn * cfg.hidden
                ..base + cfg.hidden + 2 * cfg.ffn * cfg.hidden];
            let wb = &self.flat[base + cfg.hidden + 2 * cfg.ffn * cfg.hidden
                ..base + cfg.hidden + 3 * cfg.ffn * cfg.hidden];
            // Causal context: running mean including this position.
            let acc = &mut state.acc[l];
            for (a, &v) in acc.iter_mut().zip(h.iter()) {
                *a += v;
            }
            let c: Vec<f32> = acc.iter().map(|&a| a * inv_pos).collect();
            // RMSNorm(h) · Waᵀ + c · Uaᵀ, SiLU, · Wbᵀ, residual.
            let ms: f32 = h.iter().map(|v| v * v).sum::<f32>() / cfg.hidden as f32;
            let inv = 1.0 / (ms + 1e-6).sqrt();
            let n: Vec<f32> = h.iter().zip(gain.iter()).map(|(&v, &g)| v * inv * g).collect();
            let mut act = vec![0.0f32; cfg.ffn];
            for (j, a) in act.iter_mut().enumerate() {
                let wrow = &wa[j * cfg.hidden..(j + 1) * cfg.hidden];
                let urow = &ua[j * cfg.hidden..(j + 1) * cfg.hidden];
                // The forward's two products, each summed on its own,
                // then added: `n·Waᵀ + c·Uaᵀ`.
                let (mut s, mut t) = (0.0f32, 0.0f32);
                for k in 0..cfg.hidden {
                    s += n[k] * wrow[k];
                }
                for k in 0..cfg.hidden {
                    t += c[k] * urow[k];
                }
                let s = s + t;
                let sg = 1.0 / (1.0 + (-s).exp());
                *a = s * sg;
            }
            for (k, hv) in h.iter_mut().enumerate() {
                let brow = &wb[k * cfg.ffn..(k + 1) * cfg.ffn];
                let mut s = 0.0f32;
                for (j, &av) in act.iter().enumerate() {
                    s += av * brow[j];
                }
                *hv += s;
            }
        }
        state.pos += 1;
        // Final norm + heads.
        let fg = &self.flat[self.final_gain_offset()..self.final_gain_offset() + cfg.hidden];
        let ms: f32 = h.iter().map(|v| v * v).sum::<f32>() / cfg.hidden as f32;
        let inv = 1.0 / (ms + 1e-6).sqrt();
        let f: Vec<f32> = h.iter().zip(fg.iter()).map(|(&v, &g)| v * inv * g).collect();
        let head = &self.flat[self.head_offset()..self.head_offset() + cfg.vocab * cfg.hidden];
        let mut logits = vec![0.0f32; cfg.vocab];
        for (v, lv) in logits.iter_mut().enumerate() {
            let hrow = &head[v * cfg.hidden..(v + 1) * cfg.hidden];
            let mut s = 0.0f32;
            for k in 0..cfg.hidden {
                s += f[k] * hrow[k];
            }
            *lv = s;
        }
        let vh = &self.flat[self.vhead_offset()..self.vhead_offset() + cfg.hidden];
        let value = f.iter().zip(vh.iter()).fold(0.0f32, |s, (a, b)| s + a * b);
        (logits, value)
    }

    /// Feeds one token into *each* of a batch of decode states and
    /// returns per-sequence `(next-token logits, value)` — the
    /// iteration-level batched decode a continuous-batching rollout
    /// engine drives once per step.
    ///
    /// Sequences may sit at arbitrary (ragged) positions; each advances
    /// by exactly one token. Results are **bit-identical** to calling
    /// [`Self::decode_step`] once per sequence, and so to the forward's
    /// rows: every per-sequence
    /// floating-point operation executes in the same order, only the
    /// sequences of a batch ride the lanes of the shared GEMM
    /// microkernel (`kernels.rs`), eight at a time with the last group
    /// padded. That is where the throughput comes from —
    /// weight rows are streamed once per lane group instead of once per
    /// *sequence*, and the independent lanes vectorize where a single
    /// sequence's strict accumulation order cannot.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != states.len()` or any token is out of
    /// vocab.
    pub fn decode_step_batch(
        &self,
        states: &mut [&mut DecodeState],
        tokens: &[usize],
    ) -> Vec<(Vec<f32>, f32)> {
        assert_eq!(states.len(), tokens.len(), "decode_step_batch needs one token per state");
        for &t in tokens {
            assert!(t < self.cfg.vocab, "token {t} out of vocab");
        }
        let mut out = Vec::with_capacity(tokens.len());
        for (states, tokens) in states.chunks_mut(LANES).zip(tokens.chunks(LANES)) {
            self.decode_lane_group(states, tokens, &mut out);
        }
        out
    }

    /// One batched decode step of up to [`LANES`] sequences, one per
    /// lane: activations are one panel each (`[feature][lane]`), and the
    /// padding lanes past the last sequence are computed and dropped.
    fn decode_lane_group(
        &self,
        states: &mut [&mut DecodeState],
        tokens: &[usize],
        out: &mut Vec<(Vec<f32>, f32)>,
    ) {
        let cfg = self.cfg;
        let live = tokens.len();
        let mut h = panels::embed(self.window(0, cfg.vocab, cfg.hidden), tokens);
        let mut inv_pos = [0.0f32; LANES];
        for (ip, state) in inv_pos.iter_mut().zip(states.iter()) {
            *ip = 1.0 / (state.pos as f32 + 1.0);
        }

        let mut c = Panels::new(live, cfg.hidden);
        let mut n = Panels::new(live, cfg.hidden);
        let mut act = Panels::new(live, cfg.ffn);
        for l in 0..cfg.layers {
            let base = self.block_offset(l);
            let (gain, rest) = self.flat[base..base + cfg.block_size()].split_at(cfg.hidden);
            let (wa, rest) = rest.split_at(cfg.ffn * cfg.hidden);
            let (ua, wb) = rest.split_at(cfg.ffn * cfg.hidden);
            // Causal context: running mean including this position.
            for (lane, state) in states.iter_mut().enumerate() {
                let steps = h.panel(0).iter().zip(c.panel_mut(0));
                for (acc, (hk, ck)) in state.acc[l].iter_mut().zip(steps) {
                    *acc += hk[lane];
                    ck[lane] = *acc * inv_pos[lane];
                }
            }
            // RMSNorm(h) · Waᵀ + c · Uaᵀ, SiLU, · Wbᵀ, residual.
            panels::rmsnorm_into(&h, gain, &mut n);
            // The forward's expand: `n·Waᵀ` stored, then `c·Uaᵀ` added.
            let a = act.panel_mut(0);
            kernels::panel_product(Nt { a: n.panel(0), w: wa }, cfg.ffn, |j, sums| a[j] = *sums);
            kernels::panel_product(Nt { a: c.panel(0), w: ua }, cfg.ffn, |j, sums| {
                for (av, &s) in a[j].iter_mut().zip(sums) {
                    *av += s;
                }
            });
            // No `exp` is spent on padding. Out of the store, because the
            // `avx2` instantiation of the product would compute all eight
            // lanes' `exp` and mask the stores.
            panels::silu_in_place(&mut act);
            let hp = h.panel_mut(0);
            kernels::panel_product(Nt { a: act.panel(0), w: wb }, cfg.hidden, |k, sums| {
                for (hv, &s) in hp[k].iter_mut().zip(sums) {
                    *hv += s;
                }
            });
        }
        for state in states.iter_mut() {
            state.pos += 1;
        }
        // Final norm + heads.
        let fg = &self.flat[self.final_gain_offset()..self.final_gain_offset() + cfg.hidden];
        let f = &mut n; // reuse the norm buffer for the final features
        panels::rmsnorm_into(&h, fg, f);
        let logits = kernels::x_wt(f, self.window(self.head_offset(), cfg.vocab, cfg.hidden));
        let values = kernels::x_wt(f, self.window(self.vhead_offset(), 1, cfg.hidden));
        out.extend((0..live).map(|lane| (logits.row(lane).collect(), values.column()[lane])));
    }

    /// Rebuilds a decode state from a snapshot taken (via
    /// [`DecodeState::write_snapshot`]) after consuming `pos` tokens —
    /// how a paged cache resumes a sequence from a shared prefix.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match this model.
    pub fn decode_resume(&self, snapshot: &[f32], pos: usize) -> DecodeState {
        let cfg = self.cfg;
        assert_eq!(snapshot.len(), cfg.layers * cfg.hidden, "snapshot shape mismatch");
        let acc = (0..cfg.layers)
            .map(|l| snapshot[l * cfg.hidden..(l + 1) * cfg.hidden].to_vec())
            .collect();
        DecodeState { acc, pos }
    }
}

/// Incremental decoding state: per-layer running context sums (the
/// model's KV-cache analog).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeState {
    acc: Vec<Vec<f32>>,
    pos: usize,
}

impl DecodeState {
    /// Number of tokens consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes of cache state held (per sequence).
    pub fn cache_bytes(&self) -> usize {
        self.acc.iter().map(|a| a.len() * 4).sum()
    }

    /// Number of `f32`s [`Self::write_snapshot`] produces
    /// (`layers × hidden` — one cache slot in a paged KV store).
    pub fn snapshot_len(&self) -> usize {
        self.acc.iter().map(Vec::len).sum()
    }

    /// Serializes the per-layer context sums layer-major into `out`, so
    /// a paged cache can store one slot per consumed token and later
    /// resume via [`TinyLm::decode_resume`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.snapshot_len()`.
    pub fn write_snapshot(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.snapshot_len(), "snapshot buffer shape mismatch");
        let mut off = 0;
        for layer in &self.acc {
            out[off..off + layer.len()].copy_from_slice(layer);
            off += layer.len();
        }
    }
}

/// One value per stacked row, cut back into one vector per sequence.
fn split_rows(stacked: &[f32], lens: impl Iterator<Item = usize>) -> Vec<Vec<f32>> {
    let mut rest = stacked;
    lens.map(|len| {
        let (own, tail) = rest.split_at(len);
        rest = tail;
        own.to_vec()
    })
    .collect()
}

/// Index of the greedy (argmax) token; ties break to the *last* maximum,
/// matching [`TinyLm::generate`] at temperature 0.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn greedy_token(logits: &[f32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("empty logits")
}

/// `ln softmax(logits)[tok]` of one row of logits, untempered, in the
/// float expression every log-prob here has ([`TinyLm::log_probs`]):
/// the maximum folded from `-∞`, `z = Σ exp(v − max)` in column order
/// from `0.0`, and `ln(max(exp(logits[tok] − max) / z, 1e-30))`. Over a
/// decoder's logits it is bit for bit the forward's log-prob of `tok`.
///
/// # Panics
///
/// Panics if `tok` is out of range.
pub fn token_log_prob(logits: &[f32], tok: usize) -> f32 {
    let m = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let z = logits.iter().fold(0.0f32, |z, &v| z + (v - m).exp());
    ((logits[tok] - m).exp() / z).max(1e-30).ln()
}

/// Samples an index from `softmax(logits / temperature)`.
pub fn sample_softmax(logits: &[f32], temperature: f32, rng: &mut impl Rng) -> usize {
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| ((v - m) / temperature).exp()).collect();
    let z: f32 = exps.iter().sum();
    let mut u = rng.random::<f32>() * z;
    for (i, e) in exps.iter().enumerate() {
        u -= e;
        if u <= 0.0 {
            return i;
        }
    }
    exps.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_matches_offsets() {
        let cfg = LmConfig::tiny();
        let lm = TinyLm::new(cfg, 1);
        assert_eq!(
            lm.vhead_offset() + cfg.hidden,
            cfg.param_count(),
            "offset map must cover the flat buffer exactly"
        );
        assert_eq!(lm.flat().len(), cfg.param_count());
        assert_eq!(lm.block_region().len(), cfg.layers * cfg.block_size());
    }

    #[test]
    fn forward_shapes() {
        let lm = TinyLm::new(LmConfig::tiny(), 2);
        let fp = lm.forward(&[1, 2, 3]);
        assert_eq!(fp.tape.value(fp.logits).rows(), 3);
        assert_eq!(fp.tape.value(fp.logits).cols(), 32);
        assert_eq!(fp.tape.value(fp.values).cols(), 1);
    }

    #[test]
    fn forward_is_deterministic_and_causal() {
        let lm = TinyLm::new(LmConfig::tiny(), 3);
        let a = lm.forward(&[1, 2, 3, 4]);
        let b = lm.forward(&[1, 2, 3, 7]);
        let la = a.tape.value(a.logits);
        let lb = b.tape.value(b.logits);
        // Positions 0..3 must be unaffected by changing token 3.
        for t in 0..3 {
            assert_eq!(la.row(t), lb.row(t), "causality violated at position {t}");
        }
        // Position 3 must differ (the model reads its own token).
        assert_ne!(la.row(3), lb.row(3));
    }

    #[test]
    fn log_probs_are_valid() {
        let lm = TinyLm::new(LmConfig::tiny(), 4);
        let lp = lm.log_probs(&[1, 2, 3, 4, 5]);
        assert_eq!(lp.len(), 4);
        assert!(lp.iter().all(|&v| v < 0.0 && v.is_finite()));
    }

    #[test]
    fn generation_stays_in_vocab() {
        let lm = TinyLm::new(LmConfig::tiny(), 5);
        let mut rng = StdRng::seed_from_u64(0);
        let out = lm.generate(&[1, 2], 16, 1.0, &mut rng);
        assert_eq!(out.len(), 16);
        assert!(out.iter().all(|&t| t < 32));
        let greedy1 = lm.generate(&[1, 2], 8, 0.0, &mut rng);
        let greedy2 = lm.generate(&[1, 2], 8, 0.0, &mut rng);
        assert_eq!(greedy1, greedy2, "greedy decoding must be deterministic");
    }

    #[test]
    fn decode_step_batch_bit_identical_at_ragged_positions() {
        // Sequences parked at different positions (fresh, mid-prompt,
        // deep) stepped as one batch must produce logits, values, and
        // states bit-identical to stepping each alone — below, at and
        // past the lane width, with and without a padded last group.
        let cfg = LmConfig { vocab: 24, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 11);
        let prefixes: [&[usize]; 4] = [&[], &[3], &[5, 9, 2], &[1, 2, 3, 4, 5, 6, 7]];
        for b in [1usize, 2, 3, 4, 5, 8, 9, 16, 17] {
            let feed: Vec<usize> = (0..b).map(|i| (4 + 7 * i) % cfg.vocab).collect();
            let mut batched: Vec<DecodeState> = Vec::new();
            let mut post: Vec<DecodeState> = Vec::new();
            let mut expected = Vec::new();
            for (i, &tok) in feed.iter().enumerate() {
                let mut st = lm.decode_start();
                for &p in prefixes[(i + i / 4) % 4] {
                    lm.decode_step(&mut st, (p + i) % cfg.vocab);
                }
                batched.push(st.clone());
                expected.push(lm.decode_step(&mut st, tok));
                post.push(st);
            }
            let mut refs: Vec<&mut DecodeState> = batched.iter_mut().collect();
            let got = lm.decode_step_batch(&mut refs, &feed);
            assert_eq!(got.len(), b);
            for (i, ((gl, gv), (el, ev))) in got.iter().zip(expected.iter()).enumerate() {
                assert_eq!(
                    gl.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    el.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "b = {b}: logits diverge for sequence {i}"
                );
                assert_eq!(gv.to_bits(), ev.to_bits(), "b = {b}: value diverges for sequence {i}");
            }
            assert_eq!(batched, post, "b = {b}: decode states diverge after the batched step");
        }
    }

    #[test]
    fn snapshot_resume_round_trips() {
        let cfg = LmConfig { vocab: 24, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 13);
        let mut st = lm.decode_start();
        for &t in &[2usize, 7, 19, 4] {
            lm.decode_step(&mut st, t);
        }
        let mut snap = vec![0.0f32; st.snapshot_len()];
        st.write_snapshot(&mut snap);
        let mut resumed = lm.decode_resume(&snap, st.position());
        assert_eq!(resumed, st);
        // Both must evolve identically afterwards.
        let a = lm.decode_step(&mut st, 11);
        let b = lm.decode_step(&mut resumed, 11);
        assert_eq!(
            a.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        assert_eq!(resumed, st);
    }

    #[test]
    fn cross_entropy_training_reduces_loss() {
        // Task: always predict token (prev + 1) mod vocab. A few SGD
        // steps must reduce the CE loss — end-to-end learning check.
        let cfg = LmConfig { vocab: 16, hidden: 16, ffn: 32, layers: 2 };
        let mut lm = TinyLm::new(cfg, 7);
        let seq: Vec<usize> = (0..24).map(|i| i % 16).collect();
        let loss_of = |lm: &TinyLm| {
            let fp = lm.forward(&seq[..seq.len() - 1]);
            let mut tape = fp.tape;
            let lp = tape.gather_log_prob(fp.logits, &seq[1..]);
            let mean = tape.mean_all(lp);
            -tape.value(mean).get(0, 0)
        };
        let before = loss_of(&lm);
        for _ in 0..30 {
            let mut fp = lm.forward(&seq[..seq.len() - 1]);
            let lp = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
            let mean = fp.tape.mean_all(lp);
            let loss = fp.tape.scale(mean, -1.0);
            let grad = fp.backward(loss);
            for (p, g) in lm.flat_mut().iter_mut().zip(grad.iter()) {
                *p -= 0.5 * g;
            }
        }
        let after = loss_of(&lm);
        assert!(after < before * 0.8, "loss must drop: {before} -> {after}");
    }
}

#[cfg(test)]
mod gradient_tests {
    use super::*;

    /// PPO-clip loss on the log-probs plus clipped value loss on the
    /// values of one sequence, through the whole model.
    fn build<'a>(lm: &'a TinyLm, seq: &[usize]) -> (ForwardPass<'a>, Var) {
        // Ratios inside and outside the clip range, advantages of both
        // signs, values inside and outside the value clip: every branch
        // of both losses carries gradient somewhere.
        let old_logp = [-2.6, -3.4, -2.2, -3.9, -2.9, -3.1];
        let adv = [0.8, -0.6, 1.1, -0.4, 0.5, -0.9];
        let returns = [0.4, -0.3, 0.7, 0.1, -0.5, 0.2];
        let old_v = [0.3, -0.2, 0.2, 0.4, -0.1, 0.6];
        let (pw, rw) = (seq.len() - 1 - adv.len(), adv.len());
        let mut fp = lm.forward(&seq[..seq.len() - 1]);
        let lp_all = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
        let lp = fp.tape.slice_rows(lp_all, pw, pw + rw);
        let ppo = fp.tape.ppo_clip_loss(lp, &old_logp, &adv, 0.2);
        let v = fp.tape.slice_rows(fp.values, pw, pw + rw);
        let vloss = fp.tape.value_clip_loss(v, &returns, &old_v, 0.2);
        let loss = fp.tape.add(ppo, vloss);
        (fp, loss)
    }

    #[test]
    fn whole_model_gradient_matches_finite_difference() {
        // End to end, so the map from borrowed parameter leaves back to
        // flat offsets is checked, not only each op: a gradient landing
        // at the wrong offset or on the wrong leaf fails here.
        let cfg = LmConfig { vocab: 12, hidden: 8, ffn: 12, layers: 2 };
        let lm = TinyLm::new(cfg, 29);
        let seq = [3usize, 7, 1, 9, 4, 11, 0, 5, 2, 8];
        let (fp, loss) = build(&lm, &seq);
        let analytic = fp.backward(loss);
        assert_eq!(analytic.len(), cfg.param_count());

        let loss_at = |lm: &TinyLm| {
            let (fp, loss) = build(lm, &seq);
            fp.tape.value(loss).get(0, 0) as f64
        };
        // Every parameter family, first and last block alike.
        let (h, f) = (cfg.hidden, cfg.ffn);
        let block = |l: usize| {
            let gain = lm.block_offset(l);
            [
                ("gain", gain, h),
                ("wa", gain + h, f * h),
                ("ua", gain + h + f * h, f * h),
                ("wb", gain + h + 2 * f * h, h * f),
            ]
        };
        let mut families = vec![
            ("embed", 0, cfg.vocab * h),
            ("final_gain", lm.final_gain_offset(), h),
            ("head", lm.head_offset(), cfg.vocab * h),
            ("vhead", lm.vhead_offset(), h),
        ];
        families.extend(block(0));
        families.extend(block(cfg.layers - 1));
        let mut rng = StdRng::seed_from_u64(5);
        let mut checked = 0;
        for (name, off, len) in families {
            for _ in 0..4 {
                // Only rows of tokens in `seq` carry embedding gradient.
                let i = match name {
                    "embed" => seq[rng.random_range(0..seq.len() - 1)] * h + rng.random_range(0..h),
                    _ => off + rng.random_range(0..len),
                };
                let eps = 2e-3f32;
                let (mut plus, mut minus) = (lm.clone(), lm.clone());
                plus.flat_mut()[i] += eps;
                minus.flat_mut()[i] -= eps;
                let step = (plus.flat()[i] - minus.flat()[i]) as f64;
                let numeric = (loss_at(&plus) - loss_at(&minus)) / step;
                let a = analytic[i] as f64;
                assert!(
                    (a - numeric).abs() <= 2e-2 * (a.abs().max(numeric.abs()) + 2e-2),
                    "{name}[{}] (flat {i}): analytic {a} vs numeric {numeric}",
                    i - off
                );
                assert!(name == "vhead" || a != 0.0, "{name}[{}] received no gradient", i - off);
                checked += 1;
            }
        }
        assert!(checked >= 32);
    }
}

#[cfg(test)]
mod stacking_tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn sequence(rng: &mut StdRng, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| rng.random_range(0..vocab)).collect()
    }

    #[test]
    fn stacks_fill_the_row_budget_with_whole_sequences() {
        assert_eq!(stacks([12; 5]), [0..2, 2..4, 4..5]);
        assert_eq!(stacks([8; 5]), [0..4, 4..5]);
        assert_eq!(stacks([63, 63, 63]), [0..1, 1..2, 2..3]);
        assert_eq!(stacks([70, 3, 29, 1]), [0..1, 1..3, 3..4], "an oversize sequence rides alone");
        assert_eq!(stacks([]), []);
    }

    #[test]
    fn stacked_forward_is_each_sequence_alone_bit_for_bit() {
        let cfg = LmConfig { vocab: 19, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 41);
        let mut rng = StdRng::seed_from_u64(9);
        for count in 1..=9usize {
            // Ragged against the lane width: 1 row up to past 64.
            let seqs: Vec<Vec<usize>> = (0..count)
                .map(|i| {
                    let len = if i == 0 { [1, 70, 8][count % 3] } else { rng.random_range(1..=70) };
                    sequence(&mut rng, len, cfg.vocab)
                })
                .collect();
            let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
            let fp = lm.forward_stacked(&refs);
            let (logits, values) = (fp.tape.value(fp.logits), fp.tape.value(fp.values));
            let mut row = 0;
            for seq in &seqs {
                let alone = lm.forward(seq);
                let rows = row * cfg.vocab..(row + seq.len()) * cfg.vocab;
                assert_eq!(
                    bits(&logits.data()[rows]),
                    bits(alone.tape.value(alone.logits).data()),
                    "logits, {count} sequences"
                );
                assert_eq!(
                    bits(&values.data()[row..row + seq.len()]),
                    bits(alone.tape.value(alone.values).data()),
                    "values, {count} sequences"
                );
                row += seq.len();
            }
            assert_eq!(row, logits.rows());
            let stacked = lm.values_stacked(&refs);
            let long: Vec<&[usize]> = refs.iter().copied().filter(|s| s.len() >= 2).collect();
            let logps = lm.log_probs_stacked(&long);
            for (seq, v) in refs.iter().zip(&stacked) {
                assert_eq!(bits(v), bits(&lm.values(seq)));
            }
            for (seq, lp) in long.iter().zip(&logps) {
                assert_eq!(bits(lp), bits(&lm.log_probs(seq)), "log-probs, {count} sequences");
            }
        }
    }

    /// The actor's loss (PPO clip + entropy bonus on the response window)
    /// over `seqs` stacked; targets of the window given back to back.
    fn actor_pass<'a>(
        lm: &'a TinyLm,
        seqs: &[&[usize]],
        (pw, rw): (usize, usize),
        old_logp: &[f32],
        adv: &[f32],
    ) -> (ForwardPass<'a>, Var) {
        let (mut fp, lp_all) = lm.next_token_log_probs(seqs);
        let lp = fp.tape.slice_rows(lp_all, pw - 1, pw - 1 + rw);
        let ppo = fp.tape.ppo_clip_loss(lp, old_logp, adv, 0.2);
        let window = fp.tape.slice_rows(fp.logits, pw - 1, pw - 1 + rw);
        let ent = fp.tape.mean_entropy(window);
        let bonus = fp.tape.scale(ent, -0.01);
        let loss = fp.tape.add(ppo, bonus);
        (fp, loss)
    }

    /// The critic's clipped value loss on the response window.
    fn critic_pass<'a>(
        lm: &'a TinyLm,
        seqs: &[&[usize]],
        (pw, rw): (usize, usize),
        returns: &[f32],
        old_v: &[f32],
    ) -> (ForwardPass<'a>, Var) {
        let mut fp = lm.forward_stacked(seqs);
        let v = fp.tape.slice_rows(fp.values, pw - 1, pw - 1 + rw);
        let loss = fp.tape.value_clip_loss(v, returns, old_v, 0.2);
        (fp, loss)
    }

    #[test]
    fn stacked_gradients_are_each_sequence_alone_bit_for_bit() {
        let cfg = LmConfig { vocab: 19, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 43);
        let n = cfg.param_count();
        let mut rng = StdRng::seed_from_u64(3);
        // Ragged tails past the response window; 4 + 6 is the shortest.
        let (pw, rw) = (4usize, 6usize);
        let lens = [10usize, 17, 10, 31, 12];
        let seqs: Vec<Vec<usize>> =
            lens.iter().map(|&l| sequence(&mut rng, l, cfg.vocab)).collect();
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let draw = |rng: &mut StdRng, lo: f32, hi: f32| -> Vec<f32> {
            (0..lens.len() * rw).map(|_| lo + (hi - lo) * rng.random::<f32>()).collect()
        };
        // Near the model's own log-probs (≈ −ln 19), so ratios fall on
        // both sides of the clip range — but sequence 2's are far below
        // with positive advantages: every row of it is clipped and its
        // PPO gradient rows are exact zeros.
        let mut old_logp = draw(&mut rng, -3.4, -2.5);
        let mut adv = draw(&mut rng, -1.0, 1.0);
        old_logp[2 * rw..3 * rw].fill(-30.0);
        adv[2 * rw..3 * rw].fill(0.5);
        // Sequence 3's values are clipped on every row likewise: its
        // whole gradient is an exact zero.
        let mut returns = draw(&mut rng, -0.5, 0.5);
        let mut old_v = draw(&mut rng, -0.5, 0.5);
        returns[3 * rw..4 * rw].fill(-40.0);
        old_v[3 * rw..4 * rw].fill(40.0);

        // Buffers longer than the parameters, poisoned: a pass overwrites
        // all of the gradient and nothing past it.
        let mut grads = vec![vec![f32::NAN; n + 1]; lens.len()];
        let (fp, loss) = actor_pass(&lm, &refs, (pw, rw), &old_logp, &adv);
        let losses = fp.tape.value(loss).data().to_vec();
        fp.backward_into(loss, &mut grads);
        for (s, seq) in refs.iter().enumerate() {
            let own = s * rw..(s + 1) * rw;
            let (fp, loss) =
                actor_pass(&lm, &[seq], (pw, rw), &old_logp[own.clone()], &adv[own.clone()]);
            assert_eq!(losses[s].to_bits(), fp.tape.value(loss).get(0, 0).to_bits());
            assert_eq!(bits(&grads[s][..n]), bits(&fp.backward(loss)), "actor gradient {s}");
            assert!(grads[s][n].is_nan());
        }

        // The same buffers again, poisoned again, for the critic.
        grads.iter_mut().for_each(|g| g.fill(f32::NAN));
        let (fp, loss) = critic_pass(&lm, &refs, (pw, rw), &returns, &old_v);
        let losses = fp.tape.value(loss).data().to_vec();
        fp.backward_into(loss, &mut grads);
        for (s, seq) in refs.iter().enumerate() {
            let own = s * rw..(s + 1) * rw;
            let (fp, loss) =
                critic_pass(&lm, &[seq], (pw, rw), &returns[own.clone()], &old_v[own.clone()]);
            assert_eq!(losses[s].to_bits(), fp.tape.value(loss).get(0, 0).to_bits());
            assert_eq!(bits(&grads[s][..n]), bits(&fp.backward(loss)), "critic gradient {s}");
        }
        assert!(grads[3][..n].iter().all(|g| g.to_bits() == 0), "all rows clipped: +0.0");
        assert!(grads[0][..n].iter().any(|&g| g != 0.0));
    }
}

#[cfg(test)]
mod padding_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::kernels::tests::SCAN_HITS;
    use crate::panels::with_padding;
    use crate::sharded::{ShardedLm, StageOutput};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One loss per sequence of `seqs` stacked, through every op of the
    /// tape: the PPO clip loss on the next-token log-probs, an entropy
    /// bonus, the clipped value loss and the mean first value
    /// (`slice_rows`, `mean_all`). The per-row inputs come from the tokens,
    /// so a sequence gets the same ones stacked or alone.
    fn pass<'a>(lm: &'a TinyLm, seqs: &[&[usize]]) -> (ForwardPass<'a>, Var) {
        let per_row = |base: f32, step: f32, m: usize| -> Vec<f32> {
            seqs.iter().flat_map(|s| &s[1..]).map(|&t| base + step * (t % m) as f32).collect()
        };
        let (old_logp, adv) = (per_row(-3.4, 0.13, 7), per_row(-0.6, 0.35, 5));
        let (returns, old_v) = (per_row(-0.4, 0.2, 6), per_row(-0.3, 0.15, 5));
        let (mut fp, lp) = lm.next_token_log_probs(seqs);
        let tape = &mut fp.tape;
        let ppo = tape.ppo_clip_loss(lp, &old_logp, &adv, 0.2);
        let entropy = tape.mean_entropy(fp.logits);
        let bonus = tape.scale(entropy, -0.01);
        let vloss = tape.value_clip_loss(fp.values, &returns, &old_v, 0.2);
        let first = tape.slice_rows(fp.values, 0, 1);
        let first = tape.mean_all(first);
        let loss = tape.add(ppo, bonus);
        let loss = tape.add(loss, vloss);
        let loss = tape.add(loss, first);
        (fp, loss)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn padding_lanes_never_reach_a_result(
            lens in proptest::collection::vec(1usize..=30, 1..5), seed in 0u64..1 << 16,
        ) {
            // 1 to 70 stacked rows in segments cut anywhere, so that most
            // cuts fall inside an 8-row panel.
            let mut total = 0;
            let lens: Vec<usize> = lens.into_iter().take_while(|&l| {
                total += l;
                total <= 70
            }).collect();
            let cfg = LmConfig { vocab: 19, hidden: 12, ffn: 20, layers: 2 };
            let lm = TinyLm::new(cfg, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let seqs: Vec<Vec<usize>> = (lens.iter())
                .map(|&l| (0..=l).map(|_| rng.random_range(0..cfg.vocab)).collect())
                .collect();
            let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
            let inputs: Vec<&[usize]> = refs.iter().map(|s| &s[..s.len() - 1]).collect();
            let stage = ShardedLm::from_full(&lm, 0, 1, 0, 1);
            // Everything stacked, with every padding lane `pad`.
            let stacked = |pad: f32| with_padding(pad, || {
                SCAN_HITS.set(0);
                let (fp, loss) = pass(&lm, &refs);
                let values = [fp.logits, fp.values, loss].map(|v| fp.tape.value(v));
                let mut grads = vec![Vec::new(); refs.len()];
                fp.backward_into(loss, &mut grads);
                let hits = SCAN_HITS.get();
                let h = stage.embed(&inputs.concat());
                let out = stage.forward_stage_stacked(h, &lens, |partial| partial.to_vec());
                (values, grads, hits, out, lm.log_probs_stacked(&refs), lm.values_stacked(&inputs))
            });
            let (poisoned, zero) = (stacked(f32::NAN), stacked(0.0));
            prop_assert_eq!(poisoned.2, zero.2, "padding reached the skip-zero scan");
            let ([logits, values, losses], grads, _, out, logps, vals) = poisoned;
            let StageOutput::Final { logits: stage_logits, values: stage_values } = out else {
                unreachable!("one stage finalizes")
            };
            let (n, mut row) = (cfg.param_count(), 0);
            for (s, seq) in refs.iter().enumerate() {
                let (fp, loss) = pass(&lm, &[*seq]);
                let (alone_logits, alone_values) = (fp.tape.value(fp.logits), fp.tape.value(fp.values));
                let rows = row..row + seq.len() - 1;
                let cells = rows.start * cfg.vocab..rows.end * cfg.vocab;
                prop_assert_eq!(bits(&logits.data()[cells.clone()]), bits(alone_logits.data()), "logits of {}", s);
                prop_assert_eq!(bits(&values.data()[rows.clone()]), bits(alone_values.data()), "values of {}", s);
                let alone_loss = fp.tape.value(loss).data()[0];
                prop_assert_eq!(losses.data()[s].to_bits(), alone_loss.to_bits(), "loss of {}", s);
                prop_assert_eq!(bits(&grads[s][..n]), bits(&fp.backward(loss)), "gradient of {}", s);
                prop_assert_eq!(bits(&stage_logits.data()[cells]), bits(alone_logits.data()), "stage logits of {}", s);
                prop_assert_eq!(bits(&stage_values.data()[rows.clone()]), bits(alone_values.data()), "stage values of {}", s);
                prop_assert_eq!(bits(&logps[s]), bits(&lm.log_probs(seq)), "log-probs of {}", s);
                prop_assert_eq!(bits(&vals[s]), bits(&lm.values(inputs[s])), "values_stacked of {}", s);
                row = rows.end;
            }
        }
    }
}

#[cfg(test)]
mod decode_tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn incremental_decode_matches_full_forward() {
        let lm = TinyLm::new(LmConfig::tiny(), 21);
        let seq = [3usize, 14, 7, 29, 1, 0, 31];
        let mut state = lm.decode_start();
        for (i, &t) in seq.iter().enumerate() {
            let (logits, value) = lm.decode_step(&mut state, t);
            let fp = lm.forward(&seq[..=i]);
            let full_logits = fp.tape.value(fp.logits);
            let full_values = fp.tape.value(fp.values);
            assert_eq!(bits(&logits), bits(full_logits.row(i)), "logits at pos {i}");
            assert_eq!(value.to_bits(), full_values.get(i, 0).to_bits(), "value at pos {i}");
        }
        assert_eq!(state.position(), seq.len());
        assert_eq!(state.cache_bytes(), lm.cfg.layers * lm.cfg.hidden * 4);
    }

    #[test]
    fn batched_decode_at_ragged_positions_matches_stacked_forward() {
        // Sequence `i` is fed its first `i % 5` tokens alone, then the
        // rest in lock-step with the batch: one batched step holds
        // sequences at up to five positions. Each step's logits and
        // value are the bits of that sequence's row of one stacked
        // forward over every sequence whole.
        let cfg = LmConfig { vocab: 24, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 17);
        let steps = 6;
        for b in [1usize, 8, 9, 17] {
            let seqs: Vec<Vec<usize>> = (0..b)
                .map(|i| (0..i % 5 + steps).map(|t| (3 + 5 * i + 7 * t) % cfg.vocab).collect())
                .collect();
            let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
            let fp = lm.forward_stacked(&refs);
            let (logits, values) = (fp.tape.value(fp.logits), fp.tape.value(fp.values));
            let starts: Vec<usize> = seqs
                .iter()
                .scan(0, |row, s| Some(std::mem::replace(row, *row + s.len())))
                .collect();
            let mut states: Vec<DecodeState> = seqs
                .iter()
                .map(|s| {
                    let mut st = lm.decode_start();
                    for &t in &s[..s.len() - steps] {
                        lm.decode_step(&mut st, t);
                    }
                    st
                })
                .collect();
            for step in 0..steps {
                let feed: Vec<usize> = seqs.iter().map(|s| s[s.len() - steps + step]).collect();
                let mut refs: Vec<&mut DecodeState> = states.iter_mut().collect();
                let got = lm.decode_step_batch(&mut refs, &feed);
                for (i, (gl, gv)) in got.iter().enumerate() {
                    let row = starts[i] + seqs[i].len() - steps + step;
                    assert_eq!(
                        bits(gl),
                        bits(logits.row(row)),
                        "b = {b}: logits of {i}, step {step}"
                    );
                    assert_eq!(
                        gv.to_bits(),
                        values.get(row, 0).to_bits(),
                        "b = {b}: value of {i}, step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn token_log_prob_is_the_forward_log_prob() {
        // Decoded logits through `token_log_prob` give the bits of
        // `log_probs` over the same sequence.
        let lm = TinyLm::new(LmConfig::tiny(), 23);
        let seq = [4usize, 17, 2, 30, 9, 9, 0, 21, 13, 6, 28];
        let want = lm.log_probs(&seq);
        let mut state = lm.decode_start();
        for (i, w) in seq.windows(2).enumerate() {
            let (logits, _) = lm.decode_step(&mut state, w[0]);
            assert_eq!(token_log_prob(&logits, w[1]).to_bits(), want[i].to_bits(), "pos {i}");
        }
    }

    #[test]
    fn incremental_generation_matches_recompute_generation() {
        // The cache must be semantically invisible: greedy decoding with
        // the incremental path equals greedy decoding by full recompute.
        let lm = TinyLm::new(LmConfig::tiny(), 22);
        let prompt = [5usize, 2, 19];
        let mut rng = StdRng::seed_from_u64(1);
        let fast = lm.generate(&prompt, 12, 0.0, &mut rng);
        // Reference: recompute the full prefix each step.
        let mut seq = prompt.to_vec();
        let mut slow = Vec::new();
        for _ in 0..12 {
            let fp = lm.forward(&seq);
            let logits = fp.tape.value(fp.logits);
            let last = logits.row(logits.rows() - 1);
            let tok =
                last.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
            slow.push(tok);
            seq.push(tok);
        }
        assert_eq!(fast, slow, "incremental decoding must be exact");
    }
}
