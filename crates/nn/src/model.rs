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
//! functional path simple — see DESIGN.md §5).

#![allow(clippy::needless_range_loop)] // decode loops mirror the math

use std::ops::{ControlFlow, Range};

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::expf::exp;
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

/// The results of one differentiable forward pass over one sequence,
/// both heads at every position ([`TinyLm::forward`]); it borrows the
/// model's parameters for as long as the tape lives.
pub struct ForwardPass<'a> {
    /// The autograd tape holding the computation.
    pub tape: Tape<'a>,
    /// Per-position vocabulary logits, `[T × vocab]`.
    pub logits: Var,
    /// Per-position scalar values, `[T × 1]`.
    pub values: Var,
}

impl ForwardPass<'_> {
    /// Runs backward from the scalar `loss` and returns the flat
    /// parameter gradient.
    pub fn backward(mut self, loss: Var) -> Vec<f32> {
        let mut grads = [Vec::new()];
        self.tape.backward_into(loss, &mut grads);
        let [grad] = grads;
        grad
    }
}

/// One differentiable forward pass over several sequences stacked on the
/// row dimension, over the rows its caller reads
/// ([`TinyLm::forward_stacked`]): segment `s` of a head holds the read
/// window of sequence `s`. A head is formed on its first use, so one
/// nobody reads costs nothing and takes a zero gradient.
pub struct StackedPass<'a> {
    /// The autograd tape holding the computation.
    pub tape: Tape<'a>,
    /// The final-norm features of the read rows, `[Σ reads × hidden]`.
    features: Var,
    /// The parameter windows of the LM head and the value head: on the
    /// tape from the start, so that a head never formed is a window
    /// nothing flowed into, and takes a zero gradient.
    weights: [Var; 2],
    logits: Option<Var>,
    values: Option<Var>,
}

impl StackedPass<'_> {
    /// The vocabulary logits of the read rows, `[Σ reads × vocab]`.
    pub fn logits(&mut self) -> Var {
        let logits = match self.logits {
            Some(logits) => logits,
            None => self.tape.matmul_nt(self.features, self.weights[0]),
        };
        *self.logits.insert(logits)
    }

    /// The scalar values of the read rows, `[Σ reads × 1]`.
    pub fn values(&mut self) -> Var {
        let values = match self.values {
            Some(values) => values,
            None => self.tape.matmul_nt(self.features, self.weights[1]),
        };
        *self.values.insert(values)
    }

    /// Runs backward from the per-sequence losses `loss` (`[S × 1]`) and
    /// writes sequence `s`'s flat parameter gradient over the first
    /// `param_count` values of `grads[s]`, whatever they held (a shorter
    /// buffer is grown) — see `Tape::backward_into`.
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
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no block.
    pub fn new(cfg: LmConfig, seed: u64) -> Self {
        assert!(cfg.layers > 0, "a model has at least one block");
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
    pub(crate) fn block_offset(&self, l: usize) -> usize {
        self.block_region_start() + l * self.cfg.block_size()
    }

    /// Flat offset of the final RMSNorm gain.
    pub(crate) fn final_gain_offset(&self) -> usize {
        self.block_offset(self.cfg.layers)
    }

    /// Flat offset of the LM head matrix.
    pub(crate) fn head_offset(&self) -> usize {
        self.final_gain_offset() + self.cfg.hidden
    }

    /// Flat offset of the value head vector.
    pub(crate) fn vhead_offset(&self) -> usize {
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

    /// Builds the differentiable forward pass over `ids`, both heads at
    /// every position.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains out-of-vocab tokens.
    pub fn forward(&self, ids: &[usize]) -> ForwardPass<'_> {
        let mut pass = self.forward_stacked(&[ids], &[0..ids.len()]);
        let (logits, values) = (pass.logits(), pass.values());
        ForwardPass { tape: pass.tape, logits, values }
    }

    /// Builds one differentiable forward pass over several sequences
    /// stacked on the row dimension, reading rows `reads[s]` of sequence
    /// `s`: row `Σ_{r<s} len(reads[r]) + i` of a head is position
    /// `reads[s].start + i` of sequence `s`, bit for bit what
    /// [`TinyLm::forward`] of that sequence alone gives.
    ///
    /// Every block but the last runs on every row. The last runs
    /// `cum_mean` over every row and the rest of it, like the final norm
    /// and the heads, on the read rows only: a row nobody reads would
    /// only add `±0.0` terms to every parameter-gradient sum, which starts
    /// at `+0.0` (DESIGN.md §2, "kernel contract"), so leaving it out
    /// moves no bit of any value or gradient. Upstream of the last block
    /// its activation gradient was `±0.0` plus the `cum_mean` suffix
    /// sums, which the windowed pass forms from the same terms in the
    /// same order (`windowed_passes_are_the_full_window_bit_for_bit`, and
    /// at the workers `crates/rlhf/tests/read_window_parity.rs`). In the
    /// tiny config 5 of every 11–12 rows were unread: about 13 % of each
    /// update tape's FLOPs and of each reference pass.
    ///
    /// # Panics
    ///
    /// Panics if there is no sequence, one is empty, a token is out of
    /// vocab, or `reads` is not one window per sequence inside it.
    pub fn forward_stacked(&self, seqs: &[&[usize]], reads: &[Range<usize>]) -> StackedPass<'_> {
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
        let weights = [
            tape.param(self.head_offset(), cfg.vocab, cfg.hidden),
            tape.param(self.vhead_offset(), 1, cfg.hidden),
        ];

        let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
        let mut h = tape.embed_segments(embed, &seqs.concat(), &lens);
        for (l, [gain, wa, ua, wb]) in blocks.into_iter().enumerate() {
            let mut c = tape.cum_mean(h);
            // Past its `cum_mean` the last block is row-wise.
            if l + 1 == cfg.layers {
                (h, c) = (tape.slice_rows(h, reads), tape.slice_rows(c, reads));
            }
            let n = tape.rmsnorm(h, gain);
            let pre = tape.matmul_nt_sum((n, wa), (c, ua));
            let act = tape.silu(pre);
            let out = tape.matmul_nt(act, wb);
            h = tape.add(h, out);
        }
        let features = tape.rmsnorm(h, fgain);
        StackedPass { tape, features, weights, logits: None, values: None }
    }

    /// The `[rows × cols]` parameter matrix at `off` in the flat buffer.
    fn window(&self, off: usize, rows: usize, cols: usize) -> Mat<'_> {
        Mat { data: &self.flat[off..off + rows * cols], rows, cols }
    }

    /// The final-norm features of rows `reads[s]` of several sequences
    /// `s` stacked on the row dimension (`[Σ reads × hidden]`), without a
    /// tape: the stage forward of [`crate::ShardedLm`] at `p = t = 1`,
    /// reading the flat buffer in place. Bit for bit the features
    /// [`TinyLm::forward_stacked`] forms; nothing but the stream itself is
    /// alive between two blocks.
    ///
    /// # Panics
    ///
    /// Panics if there is no sequence, one is empty, a token is out of
    /// vocab, or `reads` is not one window per sequence inside it.
    fn features_stacked(&self, seqs: &[&[usize]], reads: &[Range<usize>]) -> Panels {
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
        let out = sharded::run_blocks(x, &lens, reads, blocks, |partial| partial);
        let gain = self.final_gain_offset();
        panels::rmsnorm(&out, &self.flat[gain..gain + h])
    }

    /// Log-probabilities of each next token: `out[t] = log p(ids[t+1] |
    /// ids[0..=t])`, length `ids.len() - 1` (no gradient).
    pub fn log_probs(&self, ids: &[usize]) -> Vec<f32> {
        self.log_probs_stacked(&[ids], &[0..ids.len().saturating_sub(1)]).swap_remove(0)
    }

    /// The stacked differentiable forward pass that predicts every
    /// sequence's next tokens — sequence `s` feeds `seqs[s][..len − 1]` —
    /// and, on its tape, the log-probability of each next token it reads:
    /// position `t` of sequence `s`, `t` in `reads[s]`, is
    /// `log p(seqs[s][t + 1] | seqs[s][..=t])` (`[Σ reads × 1]`).
    ///
    /// # Panics
    ///
    /// Panics if a sequence has fewer than two tokens or `reads` is not
    /// one window per sequence inside its `len − 1` positions.
    pub fn next_token_log_probs(
        &self,
        seqs: &[&[usize]],
        reads: &[Range<usize>],
    ) -> (StackedPass<'_>, Var) {
        let (inputs, targets) = next_tokens(seqs, reads);
        let mut pass = self.forward_stacked(&inputs, reads);
        let logits = pass.logits();
        let lp = pass.tape.gather_log_prob(logits, &targets);
        (pass, lp)
    }

    /// [`TinyLm::log_probs`] of every sequence at the positions `reads`,
    /// through one stacked forward pass that builds no tape: bit for bit
    /// the values of [`TinyLm::next_token_log_probs`].
    ///
    /// # Panics
    ///
    /// Panics if a sequence has fewer than two tokens or `reads` is not
    /// one window per sequence inside its `len − 1` positions.
    pub fn log_probs_stacked(&self, seqs: &[&[usize]], reads: &[Range<usize>]) -> Vec<Vec<f32>> {
        let (inputs, targets) = next_tokens(seqs, reads);
        let f = self.features_stacked(&inputs, reads);
        let head = self.window(self.head_offset(), self.cfg.vocab, self.cfg.hidden);
        let lp = tape::log_probs(&kernels::x_wt(&f, head), &targets);
        split_rows(&lp, reads.iter().map(Range::len))
    }

    /// Per-position scalar values over `ids` (no gradient).
    pub fn values(&self, ids: &[usize]) -> Vec<f32> {
        self.values_stacked(&[ids], &[0..ids.len()]).swap_remove(0)
    }

    /// [`TinyLm::values`] of every sequence at the positions `reads`,
    /// through one stacked forward pass that builds no tape: bit for bit
    /// the values head of [`TinyLm::forward_stacked`].
    ///
    /// # Panics
    ///
    /// Panics if there is no sequence, one is empty, or `reads` is not one
    /// window per sequence inside it.
    pub fn values_stacked(&self, seqs: &[&[usize]], reads: &[Range<usize>]) -> Vec<Vec<f32>> {
        let f = self.features_stacked(seqs, reads);
        let values = kernels::x_wt(&f, self.window(self.vhead_offset(), 1, self.cfg.hidden));
        split_rows(values.column(), reads.iter().map(Range::len))
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
    pub(crate) fn decode_step(&self, state: &mut DecodeState, token: usize) -> (Vec<f32>, f32) {
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
                *a = s + t;
            }
            kernels::map_in_place(&mut act, panels::silu);
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
    /// `Self::decode_step` once per sequence, and so to the forward's
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
        let reads = vec![true; tokens.len()];
        let out = self.decode_step_batch_reading(states, tokens, &reads);
        out.into_iter().map(|read| read.expect("every lane is read")).collect()
    }

    /// [`TinyLm::decode_step_batch`] where the caller reads sequence
    /// `i`'s `(logits, value)` only if `reads[i]` — a sequence that is
    /// fed a prompt token it will not sample after reads nothing. A lane
    /// group in which no lane is read runs its last block only as far as
    /// the running context sums and forms no head: every state advances
    /// exactly as in a full step, and each of its lanes gives `None`. A
    /// group with a read lane is computed whole, and gives every lane.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` or `reads` is not one per state, or any token
    /// is out of vocab.
    pub fn decode_step_batch_reading(
        &self,
        states: &mut [&mut DecodeState],
        tokens: &[usize],
        reads: &[bool],
    ) -> Vec<Option<(Vec<f32>, f32)>> {
        assert_eq!(states.len(), tokens.len(), "decode_step_batch needs one token per state");
        assert_eq!(states.len(), reads.len(), "decode_step_batch needs one read flag per state");
        for &t in tokens {
            assert!(t < self.cfg.vocab, "token {t} out of vocab");
        }
        let mut out = Vec::with_capacity(tokens.len());
        let groups = states.chunks_mut(LANES).zip(tokens.chunks(LANES)).zip(reads.chunks(LANES));
        for ((states, tokens), reads) in groups {
            self.decode_lane_group(states, tokens, reads.contains(&true), &mut out);
        }
        out
    }

    /// One batched decode step of up to [`LANES`] sequences, one per
    /// lane: activations are one panel each (`[feature][lane]`), and the
    /// padding lanes past the last sequence are computed and dropped.
    /// Unless the group is `read`, the last block stops after the
    /// context sums and no head is formed.
    fn decode_lane_group(
        &self,
        states: &mut [&mut DecodeState],
        tokens: &[usize],
        read: bool,
        out: &mut Vec<Option<(Vec<f32>, f32)>>,
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
            if !read && l + 1 == cfg.layers {
                break;
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
            // Out of the store, as one flat loop over the panel: SiLU
            // inside the store (eight lanes a column) does not vectorise
            // its `exp`, and decoding measured 1.5× slower that way.
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
        if !read {
            out.extend((0..live).map(|_| None));
            return;
        }
        // Final norm + heads.
        let fg = &self.flat[self.final_gain_offset()..self.final_gain_offset() + cfg.hidden];
        let f = &mut n; // reuse the norm buffer for the final features
        panels::rmsnorm_into(&h, fg, f);
        let logits = kernels::x_wt(f, self.window(self.head_offset(), cfg.vocab, cfg.hidden));
        let values = kernels::x_wt(f, self.window(self.vhead_offset(), 1, cfg.hidden));
        out.extend((0..live).map(|lane| Some((logits.row(lane).collect(), values.column()[lane]))));
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

/// What a next-token pass feeds — every sequence but its last token —
/// and the targets of the positions `reads` it reads, back to back.
///
/// # Panics
///
/// Panics if a sequence has fewer than two tokens or a window runs past
/// its `len − 1` positions.
fn next_tokens<'s>(seqs: &[&'s [usize]], reads: &[Range<usize>]) -> (Vec<&'s [usize]>, Vec<usize>) {
    assert!(seqs.iter().all(|s| s.len() >= 2), "a next-token pass needs two tokens a sequence");
    let inputs = seqs.iter().map(|s| &s[..s.len() - 1]).collect();
    let targets = seqs.iter().zip(reads).flat_map(|(s, r)| &s[1..][r.clone()]).copied().collect();
    (inputs, targets)
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
    assert!(tok < logits.len(), "token {tok} out of {} logits", logits.len());
    let m = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let (mut z, mut e_tok) = (0.0f32, 0.0f32);
    let _ = exp_chunks(logits, m, 1.0, |at, exps| {
        for &e in exps {
            z += e;
        }
        if let Some(&e) = tok.checked_sub(at).and_then(|i| exps.get(i)) {
            e_tok = e;
        }
        ControlFlow::<()>::Continue(())
    });
    (e_tok / z).max(1e-30).ln()
}

/// `Σ exp(v − m)` over `values`, added in order from `0.0`: a softmax's
/// denominator ([`token_log_prob`]'s `z`) through hf-nn's `exp`, eight
/// values to a vector op.
pub fn sum_exp(values: &[f32], m: f32) -> f32 {
    let mut z = 0.0f32;
    let _ = exp_chunks(values, m, 1.0, |_, exps| {
        for &e in exps {
            z += e;
        }
        ControlFlow::<()>::Continue(())
    });
    z
}

/// Samples an index from `softmax(logits / temperature)`.
pub fn sample_softmax(logits: &[f32], temperature: f32, rng: &mut impl Rng) -> usize {
    let m = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    let _ = exp_chunks(logits, m, temperature, |_, exps| {
        z = exps.iter().fold(z, |z, &e| z + e);
        ControlFlow::<()>::Continue(())
    });
    let mut u = rng.random::<f32>() * z;
    let picked = exp_chunks(logits, m, temperature, |at, exps| {
        for (i, &e) in exps.iter().enumerate() {
            u -= e;
            if u <= 0.0 {
                return ControlFlow::Break(at + i);
            }
        }
        ControlFlow::Continue(())
    });
    match picked {
        ControlFlow::Break(i) => i,
        ControlFlow::Continue(()) => logits.len() - 1,
    }
}

/// Hands `each` the offset and the values `exp((v − m) / t)` of each
/// [`EXP_CHUNK`] of `values` in order, taken in a buffer on the stack
/// ([`kernels::map_in_place`]): a row of logits costs vector ops and no
/// allocation. At `t = 1.0` the argument is `v − m` bit for bit.
fn exp_chunks<B>(
    values: &[f32],
    m: f32,
    t: f32,
    mut each: impl FnMut(usize, &[f32]) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let mut buf = [0.0f32; EXP_CHUNK];
    for (c, chunk) in values.chunks(EXP_CHUNK).enumerate() {
        let exps = &mut buf[..chunk.len()];
        exps.copy_from_slice(chunk);
        kernels::map_in_place(
            exps,
            #[inline(always)]
            |v| exp((v - m) / t),
        );
        each(c * EXP_CHUNK, exps)?;
    }
    ControlFlow::Continue(())
}

/// Values [`exp_chunks`] takes at a time: a whole row of the logits here.
const EXP_CHUNK: usize = 64;

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
    fn an_unread_lane_group_advances_its_states_and_forms_no_head() {
        // Read flags by the lane group: none read, one lane of the second
        // group read, every lane read. An unread group's states advance
        // bit for bit as in a full step, and a read group gives every lane.
        let cfg = LmConfig { vocab: 24, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 19);
        for (b, read) in [(3usize, None), (13, Some(9)), (17, Some(16))] {
            let reads: Vec<bool> = (0..b).map(|i| Some(i) == read).collect();
            let feed: Vec<usize> = (0..b).map(|i| (2 + 5 * i) % cfg.vocab).collect();
            let start: Vec<DecodeState> = (0..b)
                .map(|i| {
                    let mut st = lm.decode_start();
                    for t in 0..i % 4 {
                        lm.decode_step(&mut st, (t + i) % cfg.vocab);
                    }
                    st
                })
                .collect();
            let (mut full, mut partial) = (start.clone(), start);
            let want = lm.decode_step_batch(&mut full.iter_mut().collect::<Vec<_>>(), &feed);
            let mut refs: Vec<&mut DecodeState> = partial.iter_mut().collect();
            let got = lm.decode_step_batch_reading(&mut refs, &feed, &reads);
            assert_eq!(partial, full, "b = {b}: the states advance as in a full step");
            for (i, (got, (logits, value))) in got.iter().zip(&want).enumerate() {
                let group_read = read.is_some_and(|r| r / LANES == i / LANES);
                match got {
                    Some((l, v)) => {
                        assert!(group_read, "b = {b}: lane {i} of an unread group");
                        assert_eq!(
                            l.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            logits.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                        );
                        assert_eq!(v.to_bits(), value.to_bits());
                    }
                    None => assert!(!group_read, "b = {b}: lane {i} of a read group"),
                }
            }
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
        let mut resumed = lm.decode_resume(&snap, st.pos);
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
        let lp = fp.tape.slice_rows(lp_all, &[pw..pw + rw]);
        let ppo = fp.tape.ppo_clip_loss(lp, &old_logp, &adv, 0.2);
        let v = fp.tape.slice_rows(fp.values, &[pw..pw + rw]);
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
            let mut fp = lm.forward_stacked(&refs, &every(&refs, 0));
            let (logits, values) = (fp.logits(), fp.values());
            let (logits, values) = (fp.tape.value(logits), fp.tape.value(values));
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
            let stacked = lm.values_stacked(&refs, &every(&refs, 0));
            let long: Vec<&[usize]> = refs.iter().copied().filter(|s| s.len() >= 2).collect();
            let logps = lm.log_probs_stacked(&long, &every(&long, 1));
            for (seq, v) in refs.iter().zip(&stacked) {
                assert_eq!(bits(v), bits(&lm.values(seq)));
            }
            for (seq, lp) in long.iter().zip(&logps) {
                assert_eq!(bits(lp), bits(&lm.log_probs(seq)), "log-probs, {count} sequences");
            }
        }
    }

    /// Every position of each of `seqs` but its last `short` ones.
    pub(super) fn every(seqs: &[&[usize]], short: usize) -> Vec<Range<usize>> {
        seqs.iter().map(|s| 0..s.len() - short).collect()
    }

    /// The actor's loss (PPO clip + entropy bonus on the response window)
    /// over `seqs` stacked, as the actor builds it: a pass that reads the
    /// window; targets of the window given back to back.
    fn actor_pass<'a>(
        lm: &'a TinyLm,
        seqs: &[&[usize]],
        (pw, rw): (usize, usize),
        old_logp: &[f32],
        adv: &[f32],
    ) -> (StackedPass<'a>, Var) {
        let (mut fp, lp) = lm.next_token_log_probs(seqs, &vec![pw - 1..pw - 1 + rw; seqs.len()]);
        let ppo = fp.tape.ppo_clip_loss(lp, old_logp, adv, 0.2);
        let logits = fp.logits();
        let ent = fp.tape.mean_entropy(logits);
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
    ) -> (StackedPass<'a>, Var) {
        let mut fp = lm.forward_stacked(seqs, &vec![pw - 1..pw - 1 + rw; seqs.len()]);
        let values = fp.values();
        let loss = fp.tape.value_clip_loss(values, returns, old_v, 0.2);
        (fp, loss)
    }

    /// The flat gradient of a one-sequence pass.
    pub(super) fn backward(fp: StackedPass, loss: Var) -> Vec<f32> {
        let mut grads = [Vec::new()];
        fp.backward_into(loss, &mut grads);
        let [grad] = grads;
        grad
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
            assert_eq!(bits(&grads[s][..n]), bits(&backward(fp, loss)), "actor gradient {s}");
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
            assert_eq!(bits(&grads[s][..n]), bits(&backward(fp, loss)), "critic gradient {s}");
        }
        assert!(grads[3][..n].iter().all(|g| g.to_bits() == 0), "all rows clipped: +0.0");
        assert!(grads[0][..n].iter().any(|&g| g != 0.0));
    }
}

#[cfg(test)]
mod padding_tests {
    use proptest::prelude::*;

    use super::stacking_tests::{backward, every};
    use super::*;
    use crate::kernels::tests::SCAN_HITS;
    use crate::panels::with_padding;
    use crate::sharded::{Head, ShardedLm, StageOutput};
    use crate::tensor::Tensor;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One loss per sequence of `seqs` stacked, through every op of the
    /// tape: the PPO clip loss on the next-token log-probs, an entropy
    /// bonus, the clipped value loss and the mean first value
    /// (`slice_rows`, `mean_all`); and the pass's logits and values. The
    /// per-row inputs come from the tokens, so a sequence gets the same
    /// ones stacked or alone.
    fn pass<'a>(lm: &'a TinyLm, seqs: &[&[usize]]) -> (StackedPass<'a>, [Var; 3]) {
        let per_row = |base: f32, step: f32, m: usize| -> Vec<f32> {
            seqs.iter().flat_map(|s| &s[1..]).map(|&t| base + step * (t % m) as f32).collect()
        };
        let (old_logp, adv) = (per_row(-3.4, 0.13, 7), per_row(-0.6, 0.35, 5));
        let (returns, old_v) = (per_row(-0.4, 0.2, 6), per_row(-0.3, 0.15, 5));
        let (mut fp, lp) = lm.next_token_log_probs(seqs, &every(seqs, 1));
        let (logits, values) = (fp.logits(), fp.values());
        let tape = &mut fp.tape;
        let ppo = tape.ppo_clip_loss(lp, &old_logp, &adv, 0.2);
        let entropy = tape.mean_entropy(logits);
        let bonus = tape.scale(entropy, -0.01);
        let vloss = tape.value_clip_loss(values, &returns, &old_v, 0.2);
        let first = tape.slice_rows(values, &vec![0..1; seqs.len()]);
        let first = tape.mean_all(first);
        let loss = tape.add(ppo, bonus);
        let loss = tape.add(loss, vloss);
        let loss = tape.add(loss, first);
        (fp, [logits, values, loss])
    }

    /// `head` of a one-stage, one-shard model's stage forward over `ids`
    /// in segments of `lens`, read at `reads`.
    fn stage_head(
        stage: &ShardedLm,
        (ids, lens): (&[usize], &[usize]),
        reads: &[Range<usize>],
        head: Head,
    ) -> Tensor {
        match stage.forward_stage_stacked(stage.embed(ids), lens, reads, head, |p| p.to_vec()) {
            StageOutput::Final(out) => out,
            StageOutput::Hidden(_) => unreachable!("one stage finalizes"),
        }
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
                let (fp, vars) = pass(&lm, &refs);
                let values = vars.map(|v| fp.tape.value(v));
                let mut grads = vec![Vec::new(); refs.len()];
                fp.backward_into(vars[2], &mut grads);
                let hits = SCAN_HITS.get();
                let ids = (&inputs.concat()[..], &lens[..]);
                let heads = [Head::Logits, Head::Values]
                    .map(|head| stage_head(&stage, ids, &every(&inputs, 0), head));
                let logps = lm.log_probs_stacked(&refs, &every(&refs, 1));
                // The `exp` loops alone on the stacked logits, whose ragged
                // panel's real lanes they gather.
                let logits = Panels::from_mat(values[0].mat());
                let mut act = logits.clone();
                panels::silu_in_place(&mut act);
                let targets: Vec<usize> = (0..logits.rows()).map(|r| r * 5 % cfg.vocab).collect();
                let ops = (
                    act.to_tensor(),
                    tape::softmax_rows(&logits).to_tensor(),
                    tape::log_probs(&logits, &targets),
                );
                (values, grads, hits, heads, logps, lm.values_stacked(&inputs, &every(&inputs, 0)), ops)
            });
            let (poisoned, zero) = (stacked(f32::NAN), stacked(0.0));
            prop_assert_eq!(poisoned.2, zero.2, "padding reached the skip-zero scan");
            let (ops, ops_zero) = (&poisoned.6, &zero.6);
            prop_assert_eq!(bits(ops.0.data()), bits(ops_zero.0.data()), "padding reached SiLU");
            prop_assert_eq!(bits(ops.1.data()), bits(ops_zero.1.data()), "padding reached softmax_rows");
            prop_assert_eq!(bits(&ops.2), bits(&ops_zero.2), "padding reached log_probs");
            let ([logits, values, losses], grads, _, [stage_logits, stage_values], logps, vals, _) =
                poisoned;
            let (n, mut row) = (cfg.param_count(), 0);
            for (s, seq) in refs.iter().enumerate() {
                let (fp, [alone_logits, alone_values, loss]) = pass(&lm, &[*seq]);
                let (alone_logits, alone_values) = (fp.tape.value(alone_logits), fp.tape.value(alone_values));
                let rows = row..row + seq.len() - 1;
                let cells = rows.start * cfg.vocab..rows.end * cfg.vocab;
                prop_assert_eq!(bits(&logits.data()[cells.clone()]), bits(alone_logits.data()), "logits of {}", s);
                prop_assert_eq!(bits(&values.data()[rows.clone()]), bits(alone_values.data()), "values of {}", s);
                let alone_loss = fp.tape.value(loss).data()[0];
                prop_assert_eq!(losses.data()[s].to_bits(), alone_loss.to_bits(), "loss of {}", s);
                prop_assert_eq!(bits(&grads[s][..n]), bits(&backward(fp, loss)), "gradient of {}", s);
                prop_assert_eq!(bits(&stage_logits.data()[cells]), bits(alone_logits.data()), "stage logits of {}", s);
                prop_assert_eq!(bits(&stage_values.data()[rows.clone()]), bits(alone_values.data()), "stage values of {}", s);
                prop_assert_eq!(bits(&logps[s]), bits(&lm.log_probs(seq)), "log-probs of {}", s);
                prop_assert_eq!(bits(&vals[s]), bits(&lm.values(inputs[s])), "values_stacked of {}", s);
                row = rows.end;
            }
        }
    }

    /// The per-row inputs of the read rows: PPO's old log-probs and
    /// advantages, the value loss's returns and old values.
    struct ReadRows {
        old_logp: Vec<f32>,
        adv: Vec<f32>,
        returns: Vec<f32>,
        old_v: Vec<f32>,
    }

    /// PPO's clip loss on the next-token log-probs of rows `reads` of
    /// `seqs` stacked, plus an entropy bonus (`critic == false`; the value
    /// head is never formed) or the clipped value loss on the same rows
    /// (`critic`): through a pass that reads only those rows (`windowed`),
    /// or through one over every position with the rows sliced out on the
    /// tape, as the workers did before the forwards took windows.
    fn read_pass<'a>(
        lm: &'a TinyLm,
        seqs: &[&[usize]],
        reads: &[Range<usize>],
        (windowed, critic): (bool, bool),
        rows: &ReadRows,
    ) -> (StackedPass<'a>, Var) {
        let all = every(seqs, 1);
        let (mut fp, lp) = lm.next_token_log_probs(seqs, if windowed { reads } else { &all });
        let cut = |fp: &mut StackedPass, v| if windowed { v } else { fp.tape.slice_rows(v, reads) };
        let lp = cut(&mut fp, lp);
        let ppo = fp.tape.ppo_clip_loss(lp, &rows.old_logp, &rows.adv, 0.2);
        let other = if critic {
            let values = fp.values();
            let values = cut(&mut fp, values);
            fp.tape.value_clip_loss(values, &rows.returns, &rows.old_v, 0.2)
        } else {
            let logits = fp.logits();
            let logits = cut(&mut fp, logits);
            let entropy = fp.tape.mean_entropy(logits);
            fp.tape.scale(entropy, -0.01)
        };
        let loss = fp.tape.add(ppo, other);
        (fp, loss)
    }

    #[test]
    fn windowed_passes_are_the_full_window_bit_for_bit() {
        let cfg = LmConfig { vocab: 19, hidden: 12, ffn: 20, layers: 3 };
        let lm = TinyLm::new(cfg, 47);
        let n = cfg.param_count();
        let mut rng = StdRng::seed_from_u64(8);
        // Ragged segments, read: from mid-panel, at every position, not
        // at all, up to the end, and rows whose PPO and value terms are
        // all clipped.
        let lens = [14usize, 9, 12, 23, 17];
        let reads = [5..11, 0..8, 4..4, 10..22, 2..9];
        let seqs: Vec<Vec<usize>> = lens
            .iter()
            .map(|&l| (0..l).map(|_| rng.random_range(0..cfg.vocab)).collect())
            .collect();
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let read_rows: usize = reads.iter().map(Range::len).sum();
        let mut draw = |lo: f32, hi: f32| -> Vec<f32> {
            (0..read_rows).map(|_| lo + (hi - lo) * rng.random::<f32>()).collect()
        };
        let mut rows = ReadRows {
            old_logp: draw(-3.4, -2.5),
            adv: draw(-1.0, 1.0),
            returns: draw(-0.5, 0.5),
            old_v: draw(-0.5, 0.5),
        };
        let clipped = read_rows - reads[4].len()..read_rows;
        rows.old_logp[clipped.clone()].fill(-30.0);
        rows.adv[clipped.clone()].fill(0.5);
        rows.returns[clipped.clone()].fill(-40.0);
        rows.old_v[clipped].fill(40.0);

        // Per segment: its loss and its gradient, from a buffer longer
        // than the parameters, poisoned beforehand.
        let run = |reads: &[Range<usize>], mode: (bool, bool), rows: &ReadRows| {
            let (fp, loss) = read_pass(&lm, &refs[..reads.len()], reads, mode, rows);
            let losses = bits(fp.tape.value(loss).data());
            let mut grads = vec![vec![f32::NAN; n + 1]; reads.len()];
            fp.backward_into(loss, &mut grads);
            assert!(grads.iter().all(|g| g[n].is_nan()), "past the parameters");
            (losses, grads.iter().map(|g| bits(&g[..n])).collect::<Vec<_>>())
        };
        for critic in [false, true] {
            let full = with_padding(0.0, || run(&reads, (false, critic), &rows));
            let windowed = with_padding(f32::NAN, || run(&reads, (true, critic), &rows));
            assert_eq!(windowed.0, full.0, "losses, critic = {critic}");
            for (s, (w, f)) in windowed.1.iter().zip(&full.1).enumerate() {
                assert_eq!(w, f, "gradient of segment {s}, critic = {critic}");
            }
            assert!(full.1[0].iter().any(|&g| g != 0), "a read segment has a gradient");
            assert!(full.1[2].iter().all(|&g| g == 0), "an empty window: +0.0");
            if critic {
                assert!(full.1[4].iter().all(|&g| g == 0), "every row clipped: +0.0");
            }
        }
        // Every window empty: no row reaches a head.
        let empty = [3..3, 0..0];
        let none = ReadRows { old_logp: vec![], adv: vec![], returns: vec![], old_v: vec![] };
        let full = with_padding(0.0, || run(&empty, (false, true), &none));
        assert_eq!(with_padding(f32::NAN, || run(&empty, (true, true), &none)), full);

        // The tape-free passes and the stage forward, windowed under
        // poisoned padding, against the tape over every position.
        let inputs: Vec<&[usize]> = refs.iter().map(|s| &s[..s.len() - 1]).collect();
        let stage = ShardedLm::from_full(&lm, 0, 1, 0, 1);
        let ids = inputs.concat();
        let in_lens: Vec<usize> = inputs.iter().map(|s| s.len()).collect();
        let (logps, values, [stage_logits, stage_values]) = with_padding(f32::NAN, || {
            let heads = [Head::Logits, Head::Values]
                .map(|head| stage_head(&stage, (&ids, &in_lens), &reads, head));
            (lm.log_probs_stacked(&refs, &reads), lm.values_stacked(&inputs, &reads), heads)
        });
        let mut row = 0;
        for (s, (seq, read)) in refs.iter().zip(&reads).enumerate() {
            let fp = lm.forward(inputs[s]);
            let (all_logits, all_values) = (fp.tape.value(fp.logits), fp.tape.value(fp.values));
            let rows = row..row + read.len();
            let all_logps = lm.log_probs(seq);
            assert_eq!(bits(&logps[s]), bits(&all_logps[read.clone()]), "log-probs of {s}");
            assert_eq!(bits(&values[s]), bits(&all_values.data()[read.clone()]), "values of {s}");
            assert_eq!(
                bits(&stage_values.data()[rows.clone()]),
                bits(&all_values.data()[read.clone()]),
                "stage values of {s}"
            );
            let cells = |r: &Range<usize>| r.start * cfg.vocab..r.end * cfg.vocab;
            assert_eq!(
                bits(&stage_logits.data()[cells(&rows)]),
                bits(&all_logits.data()[cells(read)]),
                "stage logits of {s}"
            );
            row = rows.end;
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
        assert_eq!(state.pos, seq.len());
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
            let mut fp = lm.forward_stacked(&refs, &super::stacking_tests::every(&refs, 0));
            let (logits, values) = (fp.logits(), fp.values());
            let (logits, values) = (fp.tape.value(logits), fp.tape.value(values));
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
