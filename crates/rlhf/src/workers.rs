//! RLHF model classes (paper Table 4), implemented as SPMD workers on
//! the hybrid runtime.
//!
//! The transfer protocol splits a batch across DP (or micro-DP) groups
//! and hands each chunk to a whole model-parallel group, which computes
//! it cooperatively: `mp_rows` gives rank `r` of the group the rows
//! `i ≡ r (mod mp)` and reassembles every row's result on every rank
//! through an untimed host exchange. Virtual time already charges the
//! group's cooperation as `PER_TOKEN_LATENCY / mp` per row on every
//! rank, so the exchange costs no virtual time; per-row results are pure
//! functions of replicated weights and the shared chunk, so what each
//! rank ends up with is what it would have computed alone, bit for bit.
//! Every `Protocol::ThreeD` method goes through `mp_rows` or `RowFold`
//! (`compute_log_prob`, `compute_loss`, `update_actor`,
//! `compute_values`, `update_critic`, `compute_ref_log_prob`,
//! `compute_reward`, `compute_cost`) except the `tp_inference` branches,
//! which shard the model itself; `generate_sequences` is dispatched by
//! the *generation* grouping, under which training-TP peers hold
//! different rows, and computes every row it is given.
//! (Real tensor-parallel *backward* stays out of scope: only the
//! `tp_inference` forward passes shard the model itself — `tp_forward`,
//! one stage pass over the whole chunk.) A rank runs its rows through
//! stacked passes — whole sequences stacked while they fit
//! `hf_nn::STACK_ROWS`, each sequence's results bit for bit those of a
//! pass of its own: a tape where the method differentiates, the
//! tape-free inference forward where it does not. Update methods sum
//! their rows' gradients once per
//! model-parallel group (`RowFold`) and all-reduce the sum over the
//! rank's DP communicator — a real collective through the virtual NCCL —
//! so model replicas stay in lock-step, exactly like data-parallel
//! training.
//!
//! Sampling inside `generate_sequences` is seeded from each prompt, its
//! global row and the rank's sampler round, which advances once per
//! generation pass id, so all ranks holding the same chunk produce
//! identical responses (the SPMD determinism the multi-controller
//! paradigm relies on). The call that advances the round is the one
//! that runs the pass's 3D-HybridEngine transition, whichever driver
//! issued it and whichever grouping the actor generates under.

use std::ops::Range;
use std::sync::Arc;

use hf_core::{CoreError, DataProto, RankCtx, Result, Worker};
use hf_genserve::{GenConfig, GenRequest};
use hf_nn::{stacks, Adam, Head, LmConfig, ShardedLm, StageOutput, Tensor, TinyLm};
use hf_parallel::shard::train_shard;
use hf_parallel::ShardLayout;
use hf_resilience::{encode_shard, shard_range, AssembledState, ShardHeader};
use hf_rewards::splitmix;
use hf_simcluster::{SumPart, TreeSum};

use crate::zero::ZeroParamStore;

/// Hyper-parameters the workers need.
#[derive(Debug, Clone)]
pub struct WorkerHyper {
    /// PPO ratio clip ε.
    pub clip: f32,
    /// Value-loss clip ε.
    pub vclip: f32,
    /// Sampling temperature for generation.
    pub temperature: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Learning rate (Adam).
    pub lr: f32,
    /// Base RNG seed.
    pub seed: u64,
    /// Run the actor's and critic's inference passes (`compute_log_prob`,
    /// `compute_values`) with *real* model parallelism: each rank
    /// computes only its Megatron-style weight shard — TP partials joined
    /// by all-reduces over the TP communicator, pipeline stages handing
    /// activations point-to-point. Requires `t | ffn` and `p | layers`.
    pub tp_inference: bool,
    /// Snapshot slots per paged-cache block in the generation engine.
    pub gen_block_tokens: usize,
    /// Paged-cache budget (bytes) for the generation engine.
    pub gen_cache_budget: usize,
    /// Maximum concurrently decoding sequences per engine step.
    pub gen_max_batch: usize,
}

impl Default for WorkerHyper {
    fn default() -> Self {
        WorkerHyper {
            clip: 0.2,
            vclip: 0.2,
            temperature: 1.0,
            entropy_coef: 0.01,
            lr: 3e-3,
            seed: 0,
            tp_inference: false,
            gen_block_tokens: 16,
            gen_cache_budget: 1 << 20,
            gen_max_batch: 64,
        }
    }
}

/// Meta key: the id of one *logical* generation pass
/// ([`crate::RlhfSystem`] hands them out), stamped by both drivers: the
/// barrier driver on each pass and again on its retry, the pipelined
/// driver on every chunk of a step. A rank advances its sampler round
/// once per new id, so the chunks of one step sample one round, as the
/// single synchronous call does, and a rank that ran the attempt whose
/// failure on a peer caused a retry samples the retried pass from the
/// round it already spent. The call that advances the round also runs
/// the pass's one train→generation transition. Not echoed in the reply.
pub const GEN_PASS_META: &str = "__gen_pass";

/// Meta key: set to `"1"` by a driver on a generation input whose
/// `logp_old` it will not read — `compute_log_prob` is about to replace
/// the column (`recompute_logp`), or only the pass's `scores` matter
/// (ReMax's greedy baseline). `generate_sequences` then replies without
/// the column, and skips the forward pass a stop-shortened row's
/// column needs. `"0"` is off; any other value is a `Config` error.
pub const NO_LOGP_META: &str = "__no_logp";

/// The rows of token column `name`, every id checked against the
/// `vocab` of the model about to index its embedding with them: a
/// malformed batch is a typed error here, not a panic inside `hf-nn`
/// that takes the rank thread (and its communicators) with it.
fn token_rows(data: &DataProto, name: &str, vocab: usize) -> Result<(Vec<Vec<usize>>, usize)> {
    let (toks, w) = data.tokens(name)?;
    if let Some(bad) = toks.iter().find(|&&t| t as usize >= vocab) {
        return Err(CoreError::Config(format!(
            "column `{name}` holds token id {bad}, outside the model's vocabulary of {vocab}"
        )));
    }
    let rows = toks.len().checked_div(w).unwrap_or(0);
    Ok((
        (0..rows).map(|r| toks[r * w..(r + 1) * w].iter().map(|&t| t as usize).collect()).collect(),
        w,
    ))
}

/// For a training method: the data-parallel peers of a rank that turns
/// its chunk down hold chunks of their own, which may be fine, and go on
/// to the gradient collective. Poisoning the communicators releases
/// them from that rendezvous with `PeerFailed` instead of leaving them
/// waiting for a rank that already replied.
fn release_peers<T>(ctx: &RankCtx, checked: Result<T>) -> Result<T> {
    if let Err(CoreError::Config(reason)) = &checked {
        ctx.comms.poison_all(reason);
    }
    checked
}

/// Meta `key` as `parse` reads it: `None` when the key is absent, and
/// `Config` naming the key when it is present but does not parse — never
/// a silent default. Every rank of a call reads the same meta, so all of
/// them turn a malformed key down before any collective.
fn meta<T>(
    data: &DataProto,
    key: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>> {
    let Some(raw) = data.meta.get(key) else { return Ok(None) };
    match parse(raw) {
        Some(v) => Ok(Some(v)),
        None => Err(CoreError::Config(format!("meta `{key}` = {raw:?} does not parse"))),
    }
}

/// The rows of per-token column `name`, which must hold one value per
/// response token (`width`, the `responses` width): a column of another
/// width is a typed error here, not an `assert_eq!` inside the loss that
/// takes every rank of the group with it. A width is the whole batch's,
/// so every rank of the call turns it down before any collective and
/// there are no peers to release: the groups stay usable.
fn f32_rows(data: &DataProto, name: &str, width: usize) -> Result<Vec<Vec<f32>>> {
    let (vals, w) = data.f32(name)?;
    if w != width {
        return Err(CoreError::Config(format!(
            "column `{name}` is {w} values wide, but `responses` is {width} tokens wide"
        )));
    }
    let rows = vals.len().checked_div(w).unwrap_or(0);
    Ok((0..rows).map(|r| vals[r * w..(r + 1) * w].to_vec()).collect())
}

/// Rows `rows` of a per-row column, back to back: the column of one
/// stacked tape.
fn gather_rows(column: &[Vec<f32>], rows: &[usize]) -> Vec<f32> {
    rows.iter().flat_map(|&i| &column[i]).copied().collect()
}

/// Virtual seconds a worker charges per processed token, before the
/// model-parallel group's `1/mp` share.
const PER_TOKEN_LATENCY: f64 = 1e-6;

fn charge_tokens(ctx: &mut RankCtx, tokens: usize) {
    let mp = ctx.layout.spec.mp() as f64;
    ctx.charge(tokens as f64 * PER_TOKEN_LATENCY / mp);
}

/// Computes every row `i < n` of a chunk the transfer protocol gave to
/// this rank's whole model-parallel group (`Protocol::ThreeD` methods
/// only): rank `r` of the group computes the rows `i ≡ r (mod mp)` —
/// `rows` is handed their indices and returns their results, in order —
/// and the peers swap results so each returns all `n`, in row order.
///
/// The swap is the raw group exchange, not a `Communicator` collective:
/// no clock, no round count, no span. The virtual cost of the group's
/// cooperation is already in [`charge_tokens`]' `1/mp`; a timed
/// collective would charge it twice, and add rounds and spans. Every
/// peer must call this the same number of times per method, which holds
/// because they validate the same chunk before the first call (an
/// update checks every column, the ptx one included, before its first
/// row).
///
/// The swap is a blocking edge between the peers. It cannot deadlock
/// for the reason a TP all-reduce cannot (one controller sends a call
/// to every rank of a group in one order), and a killed or panicking
/// peer releases its partner through `poison_all`. In a faulted run the partner of a lost rank therefore
/// fails at the swap instead of finishing the doomed update with its
/// own DP peers, and the controller detects the loss one update
/// earlier (`lost ms` in `hf-bench fault_recovery` / `remap` fell by
/// 52–102 µs; fault-free time did not move). A dropped RPC to one peer
/// leaves its partner waiting until the call deadline, as a drop on one
/// DP rank of an update does.
fn mp_rows<T: Clone + Send + Sync + 'static>(
    ctx: &RankCtx,
    n: usize,
    rows: impl FnOnce(&[usize]) -> Vec<T>,
) -> Vec<T> {
    let (mp, r) = (ctx.comms.mp.size(), ctx.comms.mp.rank());
    let mine = rows(&(r..n).step_by(mp).collect::<Vec<_>>());
    if mp == 1 {
        return mine;
    }
    let all = ctx.comms.mp.group().exchange(r, mine);
    (0..n).map(|i| all[i % mp][i / mp].clone()).collect()
}

/// Each row's prompt followed by its response.
fn sequences(prompts: &[Vec<usize>], resps: &[Vec<usize>]) -> Vec<Vec<usize>> {
    prompts.iter().zip(resps).map(|(p, r)| [&p[..], &r[..]].concat()).collect()
}

/// `pass` over the sequences `seqs[i]`, `i` in `rows`, one stacked pass
/// at a time ([`hf_nn::stacks`]), each sequence read at the positions
/// `read`; every sequence's result, in order.
fn stacked<T>(
    seqs: &[Vec<usize>],
    rows: &[usize],
    read: Range<usize>,
    mut pass: impl FnMut(&[&[usize]], &[Range<usize>]) -> Vec<T>,
) -> Vec<T> {
    let picked: Vec<&[usize]> = rows.iter().map(|&i| &seqs[i][..]).collect();
    let reads = vec![read; picked.len()];
    let runs = stacks(picked.iter().map(|s| s.len()));
    runs.into_iter().flat_map(|run| pass(&picked[run.clone()], &reads[run])).collect()
}

/// The positions of a `pw + rw`-token row that predict or value its `rw`
/// response tokens: `pw − 1` up to, not including, `pw − 1 + rw`.
fn response(pw: usize, rw: usize) -> Range<usize> {
    pw - 1..pw - 1 + rw
}

/// What a value pass feeds of each row: every token but its last. The
/// values read end at position `pw + rw − 2` and the model is causal, so
/// the last token feeds nothing that is read; the actor's next-token
/// pass leaves it out too, having no target for it. Rows are still
/// charged for every token.
fn value_inputs<'s>(run: &[&'s [usize]]) -> Vec<&'s [usize]> {
    run.iter().map(|s| &s[..s.len() - 1]).collect()
}

/// Log-probs of every row's `rw` response tokens after its `pw` prompt
/// tokens under `lm` (stacked tape-free forwards over replicated weights,
/// rows shared across the model-parallel group), flat in row order.
fn response_log_probs(
    lm: &TinyLm,
    ctx: &mut RankCtx,
    seqs: &[Vec<usize>],
    (pw, rw): (usize, usize),
) -> Vec<f32> {
    let rows = mp_rows(ctx, seqs.len(), |mine| {
        stacked(seqs, mine, response(pw, rw), |run, reads| lm.log_probs_stacked(run, reads))
    });
    for seq in seqs {
        charge_tokens(ctx, seq.len());
    }
    rows.concat()
}

/// One forward-only pass of this rank's model-parallel group over its
/// whole chunk with *real* model parallelism (`hyper.tp_inference`): the
/// first `feed` tokens of every row, stacked into one stage pass on this
/// rank's Megatron-style shard (cut once for the chunk). TP partials join
/// through real all-reduces over the TP communicator — one per layer for
/// the chunk, as an engine joins a micro-batch, not one per sequence —
/// and pipeline stages hand the stacked activations point-to-point over
/// the pipeline communicator, so a dead stage aborts its neighbours; every
/// peer runs the pass in lock-step since the protocol gave the whole
/// group one chunk. Rows are charged afterwards, in row order.
///
/// Per rank and pass that is `layers / p` all-reduces where a row loop
/// made `rows × layers / p`
/// (`tests::a_tp_inference_pass_joins_each_layer_once_per_chunk`). The
/// chunk the protocol hands a group is the micro-batch a Megatron-style
/// engine joins with one all-reduce per layer; one per *sequence* was an
/// artefact of a row loop (PR 16, reversed in PR 18). No row budget,
/// micro-batch size or flag selects this: [`hf_nn::STACK_ROWS`] governs
/// tapes and [`stacked`], where throughput was flat past two sequences,
/// while here every row saved is a latency-bound collective. The change
/// moved the virtual clock of `tp_inference` configurations only
/// (`ppo_colocated`: 56 fewer 16.0 µs all-reduces on the critical path)
/// and no weight, moment, log-prob, value or reward (`mp_split_parity`).
/// The critic takes this helper too, so `p > 1` or `t ∤ ffn` is the
/// staged pass or the actor's `Config` error, from every peer before any
/// collective — never a silent fallback to replicated rows.
///
/// Returns the last stage's `head` over the positions `read` of every
/// row, row `i`'s position `read.start + t` in row `i · read.len() + t`;
/// `None` on the other stages (the `3D_PROTO` collect reads the last one)
/// and for an empty chunk, which makes no pass and no collective.
fn tp_forward(
    lm: &TinyLm,
    ctx: &mut RankCtx,
    seqs: &[Vec<usize>],
    (feed, read): (usize, Range<usize>),
    head: Head,
) -> Result<Option<Tensor>> {
    let (tc, spec) = (ctx.coords(), ctx.layout.spec);
    if !lm.cfg.ffn.is_multiple_of(spec.t) || !lm.cfg.layers.is_multiple_of(spec.p) {
        return Err(CoreError::Config("tp_inference requires t | ffn and p | layers".into()));
    }
    if seqs.is_empty() {
        return Ok(None);
    }
    let shard = ShardedLm::from_full(lm, tc.p_idx, spec.p, tc.t_idx, spec.t);
    let mut clock = ctx.clock;
    // Stage input: embed on stage 0, receive activations otherwise.
    let h_in = if tc.p_idx == 0 {
        shard.embed(&seqs.iter().flat_map(|s| &s[..feed]).copied().collect::<Vec<_>>())
    } else {
        let (rows, cols, data): (usize, usize, Vec<f32>) =
            ctx.comms.pp.recv_from(&mut clock, tc.p_idx - 1);
        Tensor::new(data, rows, cols)
    };
    let (lens, reads) = (vec![feed; seqs.len()], vec![read; seqs.len()]);
    let out = shard.forward_stage_stacked(h_in, &lens, &reads, head, |partial| {
        ctx.comms.tp.all_reduce_sum(&mut clock, partial)
    });
    let last = match out {
        StageOutput::Hidden(h) => {
            let bytes = (h.len() * 4) as f64;
            let act = (h.rows(), h.cols(), h.data().to_vec());
            ctx.comms.pp.send_to(&clock, tc.p_idx + 1, act, bytes);
            None
        }
        StageOutput::Final(out) => Some(out),
    };
    ctx.clock = clock;
    for seq in seqs {
        charge_tokens(ctx, seq.len());
    }
    Ok(last)
}

/// What a model-parallel group made of the per-row gradients of an
/// update method's chunk; every peer holds the same one.
struct Folded {
    /// The rows' gradients, tree-summed in row order, then the sum of
    /// their weights — the chunk's row count: `[param_count + 1]`.
    sum: Vec<f32>,
    /// Every row's two scalars, in row order.
    scalars: Vec<[f32; 2]>,
}

/// A chunk's gradient sum with its row count behind it, shared by the
/// peers of the model-parallel group that folded it.
#[derive(Clone)]
struct GradSum(Arc<Folded>);

impl AsRef<[f32]> for GradSum {
    fn as_ref(&self) -> &[f32] {
        &self.0.sum
    }
}

impl SumPart for GradSum {
    /// The sum's buffer, once no peer holds the fold any more.
    fn owned(self) -> std::result::Result<Vec<f32>, Self> {
        Arc::try_unwrap(self.0).map(|folded| folded.sum).map_err(GradSum)
    }
}

/// [`GradSum`] without the row count: the gradient alone.
struct GradOnly(GradSum);

impl AsRef<[f32]> for GradOnly {
    fn as_ref(&self) -> &[f32] {
        let sum = self.0.as_ref();
        &sum[..sum.len() - 1]
    }
}

impl SumPart for GradOnly {
    fn owned(self) -> std::result::Result<Vec<f32>, Self> {
        let mut sum = self.0.owned().map_err(GradOnly)?;
        sum.pop();
        Ok(sum)
    }
}

/// Sums the per-row gradients of a chunk once per model-parallel group,
/// in the association of [`hf_simcluster::tree_sum_parts`] over the rows
/// in row order. Rank `r` of the group computes the rows `i ≡ r (mod
/// mp)` through stacked tapes. Alone (`mp == 1`) it feeds each row to the
/// streaming sum as it is computed and fills the buffers the sum has
/// consumed again, so `⌊log₂ n⌋ + 1` partial sums and one tape's rows are
/// alive where `n` gradients were; with peers it keeps its rows until
/// one untimed rendezvous ([`RowFold::finish`]) in which the peers
/// *move* them to the last arriver, which feeds the same sum.
///
/// A row buffer is `[param_count + 1]`: the row's flat gradient, then
/// its weight in the global mean — 1 for a row that counts, 0 for an
/// auxiliary (ptx) row — so the sum's last value is the chunk's row
/// count and rides through the DP all-reduce as it always has.
///
/// Buffers live for one update. Keeping them across updates was
/// measured and bought no time, while what two colocated workers pin
/// showed in `peak_rss_mib` (EXPERIMENTS.md's history, "one gradient
/// path").
struct RowFold<'c> {
    ctx: &'c RankCtx,
    tree: TreeSum,
    len: usize,
    /// Rows added so far, over all [`RowFold::rows`] calls.
    total: usize,
    /// Rows computed here and not yet fed to `tree`.
    held: Vec<(Vec<f32>, [f32; 2])>,
    scalars: Vec<[f32; 2]>,
}

impl<'c> RowFold<'c> {
    fn new(ctx: &'c RankCtx, param_count: usize) -> Self {
        let tree = TreeSum::default();
        RowFold { ctx, tree, len: param_count + 1, total: 0, held: Vec::new(), scalars: Vec::new() }
    }

    fn feed(&mut self, rows: impl IntoIterator<Item = (Vec<f32>, [f32; 2])>) {
        for (grad, scalars) in rows {
            self.tree.push(grad);
            self.scalars.push(scalars);
        }
    }

    /// Appends one row per sequence of `seqs`, each of `weight`. `pass`
    /// is handed the indices of the sequences of one stacked tape, the
    /// sequences, and a buffer for each; it leaves each one's flat
    /// gradient at the front of its buffer and returns each one's two
    /// scalars.
    fn rows(
        &mut self,
        seqs: &[Vec<usize>],
        weight: f32,
        mut pass: impl FnMut(&[usize], &[&[usize]], &mut [Vec<f32>]) -> Vec<[f32; 2]>,
    ) {
        let (mp, r) = (self.ctx.comms.mp.size(), self.ctx.comms.mp.rank());
        // Row `i` of this call is row `total + i` of the fold.
        let first = (r + mp - self.total % mp) % mp;
        let mine: Vec<usize> = (first..seqs.len()).step_by(mp).collect();
        self.total += seqs.len();
        for run in stacks(mine.iter().map(|&i| seqs[i].len())) {
            let picked: Vec<&[usize]> = mine[run.clone()].iter().map(|&i| &seqs[i][..]).collect();
            let mut grads: Vec<Vec<f32>> =
                picked.iter().map(|_| self.tree.buffer(self.len)).collect();
            let scalars = pass(&mine[run], &picked, &mut grads);
            for grad in grads.iter_mut() {
                grad[self.len - 1] = weight;
            }
            self.held.extend(grads.into_iter().zip(scalars));
            if mp == 1 {
                let rows = std::mem::take(&mut self.held);
                self.feed(rows);
            }
        }
    }

    /// What the rows fed so far add up to.
    fn folded(self) -> Folded {
        let sum = self.tree.finish().0.unwrap_or_else(|| vec![0.0; self.len]);
        Folded { sum, scalars: self.scalars }
    }

    /// The sum of every row appended, and every row's scalars. With
    /// peers this is the group's one rendezvous: the last arriver sums
    /// every peer's rows.
    fn finish(mut self) -> GradSum {
        let (mp, r) = (self.ctx.comms.mp.size(), self.ctx.comms.mp.rank());
        if mp == 1 {
            return GradSum(Arc::new(self.folded()));
        }
        let mine = std::mem::take(&mut self.held);
        let (total, ctx) = (self.total, self.ctx);
        GradSum(ctx.comms.mp.group().exchange_fold(r, mine, |deposits| {
            let mut peers: Vec<_> = deposits.into_iter().map(Vec::into_iter).collect();
            self.feed((0..total).map(|i| peers[i % mp].next().expect("a row from its peer")));
            self.folded()
        }))
    }
}

fn metrics(values: &[(&str, f32)]) -> DataProto {
    let mut out = DataProto::with_rows(1);
    for (k, v) in values {
        out.insert_f32(k, vec![*v], 1);
    }
    out
}

/// Where a trained model's optimizer state lives: the four things that
/// differ between the two placements — the gather before a call that
/// reads the weights, the step on a chunk's gradient sum, the `save_shard` reply and the
/// restore. Either way a rank trains one `TinyLm`.
enum Optim {
    /// A full-size Adam on every rank, kept in lock-step by all-reducing
    /// each chunk's gradient sum over the data-parallel group.
    Replicated(Adam),
    /// ZeRO-3 ([`crate::zero`]): a 1/world shard of the parameters and
    /// its Adam, cut from the model's weights on first use.
    Zero {
        /// Adam's learning rate, for the store first use cuts.
        lr: f32,
        store: Option<ZeroParamStore>,
    },
}

/// A ZeRO rank's store, cut from `lm` with a fresh Adam on first use —
/// which need not be a call that reads the weights: a ZeRO rank's first
/// call may be a step-0 `save_shard`.
fn zero_store<'a>(
    store: &'a mut Option<ZeroParamStore>,
    lr: f32,
    lm: &TinyLm,
    ctx: &RankCtx,
) -> &'a mut ZeroParamStore {
    let world = &ctx.comms.world;
    store.get_or_insert_with(|| ZeroParamStore::new(lm.flat(), world.rank(), world.size(), lr))
}

impl Optim {
    /// A ZeRO rank needs a pure data-parallel layout (`1-1-d`): anything
    /// else is a `Config` error from every rank, on every call.
    fn check(&self, ctx: &RankCtx) -> Result<()> {
        if matches!(self, Optim::Zero { .. }) && ctx.layout.spec.mp() != 1 {
            return Err(CoreError::Config(
                "ZeRO-3 requires a pure data-parallel layout (1-1-d)".into(),
            ));
        }
        Ok(())
    }

    /// ZeRO only, before a call that reads the weights: all-gathers the
    /// full parameters into `lm` through the world communicator (charged
    /// to virtual time). A `save_shard` replies from the store and a
    /// restore overwrites `lm`, so neither gathers.
    fn gather(&mut self, lm: &mut TinyLm, ctx: &mut RankCtx) {
        let Optim::Zero { lr, store } = self else { return };
        let store = zero_store(store, *lr, lm, ctx);
        let mut clock = ctx.clock;
        lm.flat_mut().copy_from_slice(&store.gather(&ctx.comms.world, &mut clock));
        ctx.clock = clock;
    }

    /// Steps on a chunk's gradient `sum`, whose last value is the
    /// chunk's row count. Replicated: all-reduces the sum over the
    /// data-parallel group (a real collective; the row count rides
    /// along, exact in f32) and steps Adam on the mean — ONE division
    /// by the *global* row count, after the reduction, as Adam reads the
    /// one shared result, so no parameter-sized copy is left between a
    /// row's backward pass and the optimizer. ZeRO: reduce-scatters the
    /// gradient and steps this rank's shard
    /// ([`ZeroParamStore::apply_grads`]); `lm` is refreshed by the next
    /// call's gather.
    fn step(&mut self, ctx: &mut RankCtx, lm: &mut TinyLm, sum: GradSum) {
        let mut clock = ctx.clock;
        match self {
            Optim::Replicated(opt) => {
                let mut step = |sum: &[f32]| {
                    let (grad, count) = sum.split_at(sum.len() - 1);
                    opt.step_mean(lm.flat_mut(), grad, count[0].max(1.0));
                };
                if ctx.comms.dp.size() > 1 {
                    step(&ctx.comms.dp.all_reduce_sum_shared(&mut clock, sum));
                } else {
                    step(sum.as_ref());
                }
            }
            Optim::Zero { store, .. } => {
                let store = store.as_mut().expect("the call's gather cut the store");
                let count = *sum.as_ref().last().expect("the row count");
                store.apply_grads(&ctx.comms.world, &mut clock, GradOnly(sum), count);
            }
        }
        ctx.clock = clock;
    }

    /// One rank's `save_shard` reply. Replicated: the model-parallel
    /// group tiles the flat vector (`mp_pos = p_idx·t + t_idx`) and every
    /// data-parallel replica holds the same bytes, so only the
    /// `d_idx == 0` replica owns its slice. ZeRO: the store is the shard
    /// ([`ZeroParamStore::shard_reply`]).
    fn shard_reply(&mut self, ctx: &RankCtx, lm: &TinyLm, gen_round: u64) -> Result<DataProto> {
        let opt = match self {
            Optim::Replicated(opt) => opt,
            Optim::Zero { lr, store } => {
                return zero_store(store, *lr, lm, ctx).shard_reply(ctx.rank, gen_round);
            }
        };
        let (params, (m, v, opt_t)) = (lm.flat(), opt.state());
        let tc = ctx.coords();
        let spec = &ctx.layout.spec;
        let total = params.len();
        let (range, padded) = shard_range(total, tc.p_idx * spec.t + tc.t_idx, spec.mp());
        let head = ShardHeader {
            rank: ctx.rank,
            start: range.start,
            len: range.len(),
            owner: tc.d_idx == 0,
            total,
            gen_round,
            opt_t,
        };
        encode_shard(head, padded, [params, m, v].map(|x| &x[range.clone()]))
    }

    /// Installs the state a `load_checkpoint` call carries: the
    /// parameters into `lm`, the moments and step count into this
    /// placement's Adam — ZeRO re-cuts its store from them, or the next
    /// gather would overwrite the restored weights with the stale
    /// shards. Returns the restored sampler round.
    fn load(&mut self, ctx: &RankCtx, lm: &mut TinyLm, data: &DataProto) -> Result<u64> {
        let st = AssembledState::from_load_input(data, lm.flat().len())?;
        lm.flat_mut().copy_from_slice(&st.params);
        match self {
            Optim::Replicated(opt) => opt.load_state(&st.opt_m, &st.opt_v, st.opt_t),
            Optim::Zero { lr, store } => {
                let (world, full) = (&ctx.comms.world, [&st.params[..], &st.opt_m, &st.opt_v]);
                let cut = ZeroParamStore::cut(full, st.opt_t, world.rank(), world.size(), *lr);
                *store = Some(cut);
            }
        }
        Ok(st.gen_round)
    }
}

/// The actor model class: generation, log-probs, pre-train loss, PPO
/// updates (Table 4). A rank holds one `TinyLm`: it trains it, and
/// generation decodes it.
pub struct ActorWorker {
    lm: TinyLm,
    optim: Optim,
    hyper: WorkerHyper,
    gen_round: u64,
    /// The [`GEN_PASS_META`] id of the last pass that advanced
    /// `gen_round`.
    gen_pass: Option<u64>,
    /// Whether a train→generation transition ran since the last
    /// `update_actor`, which then marks the flip back; a restore clears
    /// it.
    gen_transitioned: bool,
    /// The paged-KV continuous-batching generation engine
    /// (`generate_sequences` routes every request through it, on `lm`).
    genserve: GenConfig,
}

impl ActorWorker {
    /// Builds the actor from an LM config (all ranks must use the same
    /// seed so replicas start identical).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let opt = Adam::new(cfg.param_count(), hyper.lr);
        Self::with_optim(cfg, hyper, Optim::Replicated(opt))
    }

    /// Builds a ZeRO-3 actor (the paper's `ZeROWorker`, §4.1): the
    /// parameters and their Adam are sharded over the group
    /// ([`crate::zero`]), which must be pure data-parallel (`1-1-d`).
    /// Sharding happens on the first call, once the rank and world are
    /// known.
    pub fn zero(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lr = hyper.lr;
        Self::with_optim(cfg, hyper, Optim::Zero { lr, store: None })
    }

    fn with_optim(cfg: LmConfig, hyper: WorkerHyper, optim: Optim) -> Self {
        let genserve = GenConfig {
            block_tokens: hyper.gen_block_tokens,
            cache_budget_bytes: hyper.gen_cache_budget,
            max_batch: hyper.gen_max_batch,
        };
        let lm = TinyLm::new(cfg, hyper.seed);
        let (gen_round, gen_pass, gen_transitioned) = (0, None, false);
        ActorWorker { lm, optim, hyper, gen_round, gen_pass, gen_transitioned, genserve }
    }

    /// Runs the 3D-HybridEngine train→generation transition beside the
    /// full replica every rank holds: cuts this rank's training shard of
    /// the block weights out of that replica, moves it into the engine,
    /// and all-gathers it on `ctx.comms.gather`, the communicator hf-core
    /// builds from [`hf_parallel::GenGrouping::gather_groups`] (micro-DP
    /// groups under the strided grouping, one concurrent collective per
    /// group, §5.3; model-parallel groups under the vanilla one,
    /// HybridFlow-V). The gather is charged to virtual time from the
    /// call's arrival, so that a rank busy past it hides part of the
    /// gather behind its queue wait (one entry for both drivers). It then
    /// checks every gathered shard in place against the replica
    /// (`gen_matches`) and hands the engine back to the caller to drop.
    /// Generation decodes the replica itself
    /// (`GenConfig::generate` borrows `self.lm`), not the gathered shard,
    /// so nothing of the engine outlives the call; the `gen_transitioned`
    /// flag it sets only tells `update_actor` to mark the flip back.
    /// ROADMAP's "The 3D-HybridEngine holds the weights" is the item that
    /// makes the shard the weights.
    fn hybrid_engine_transition(
        &mut self,
        ctx: &mut RankCtx,
    ) -> Result<Option<hf_hybridengine::HybridEngineRank>> {
        let (Some(gen), Some(comm)) = (ctx.layout.gen, ctx.comms.gather.as_ref()) else {
            return Ok(None);
        };
        if !self.lm.cfg.layers.is_multiple_of(gen.train.p)
            || !self.lm.cfg.block_size().is_multiple_of(gen.train.t)
        {
            return Err(CoreError::Config(
                "actor LM shape is not divisible by the 3D layout".into(),
            ));
        }
        let layout = ShardLayout::uniform(self.lm.cfg.layers, self.lm.cfg.block_size());
        let blocks = self.lm.block_region();
        // Extract this rank's training shard from the (replicated) model.
        let buf = layout.extract(&train_shard(&gen.train, ctx.rank, layout.layers()), blocks);
        let mut engine = hf_hybridengine::HybridEngineRank::new(ctx.rank, gen, layout, buf);
        let track = hf_telemetry::gpu_track(ctx.device.index());
        engine.to_generation_traced(
            comm,
            &mut ctx.clock,
            &ctx.telemetry,
            &track,
            ctx.cause,
            ctx.dispatch_time,
        );
        // Every gathered shard must equal the replica at its ranges.
        if !engine.gen_matches(blocks) {
            return Err(CoreError::Worker(format!(
                "rank {} hybrid-engine reshard mismatch: replicas drifted",
                ctx.rank
            )));
        }
        self.gen_transitioned = true;
        Ok(Some(engine))
    }

    /// Samples a response for every prompt row through the rank's
    /// generation engine ([`GenConfig::generate`] on the replica it
    /// trains), after the train→generation transition. Responses
    /// stop at a `stop_tokens` meta token or at `response_len`, are padded
    /// with `pad_token` to the rectangular shape, and their lengths go
    /// in a `response_len` column.
    ///
    /// A full-length row's `logp_old` is the log-prob the engine recorded
    /// with each sampled token ([`hf_genserve::GenOutput::logps`]: the
    /// untempered `ln softmax(logits)[tok]`, the decoder's rows being the
    /// forward's bit for bit); only a row a stop token cut short takes a
    /// stacked forward, over its padded row, since its pad positions were
    /// never decoded (`generation_log_probs_are_the_padded_forward`). No
    /// RLHF driver sets stop tokens today. Leaving out the forward over
    /// every full-length row took `grpo_long_rollout`'s
    /// `rlhf.generate_ms_p50` from 9.9 to 5.4 ms. A driver that will not
    /// read the column stamps [`NO_LOGP_META`]; the reply, 4 bytes a
    /// response token smaller, then costs the next pull less
    /// (`ppo_colocated` +0.03 virtual tokens/s; a ReMax iteration's clock
    /// falls by its baseline batch's 384-byte pull, pinned in
    /// `mp_split_parity`). The reply echoes none of the three request-only
    /// keys.
    fn generate_sequences(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        // The meta is read before anything changes: a malformed key
        // leaves every rank as it was.
        let pass = meta(&data, GEN_PASS_META, |s| s.parse::<u64>().ok())?;
        let resp_len: usize = meta(&data, "response_len", |s| s.parse().ok())?
            .ok_or_else(|| CoreError::Data("generate_sequences needs response_len meta".into()))?;
        let flag = |key| {
            meta(&data, key, |s| match s {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            })
            .map(|v| v.unwrap_or(false))
        };
        let greedy = flag("greedy")?;
        let no_logp = flag(NO_LOGP_META)?;
        // Comma-separated token ids; the empty string is none.
        let stop_tokens: Vec<usize> = meta(&data, "stop_tokens", |s| {
            let s = s.trim();
            if s.is_empty() {
                return Some(Vec::new());
            }
            s.split(',').map(|t| t.trim().parse().ok()).collect()
        })?
        .unwrap_or_default();
        let pad_token: usize = meta(&data, "pad_token", |s| s.parse().ok())?.unwrap_or(0);
        let vocab = self.lm.cfg.vocab;
        if pad_token >= vocab {
            return Err(CoreError::Config(format!(
                "pad_token {pad_token} is outside the model's vocabulary of {vocab}"
            )));
        }
        // One logical generation pass = one round = one reshard: the
        // later chunks of a pipelined step and a retry of a pass this
        // rank already ran sample the round its first call spent, from
        // the weights its transition checked. A call that turns its
        // chunk down below still spent the round, on every rank alike.
        // The checked engine is dropped when the call returns, not before
        // the decode: freed first, its one shard still lets the allocator
        // trim the heap the decode then faults back in
        // (`ppo_split_pipelined`: 73 → 99 minor faults an iteration, host
        // time +1 %; `ppo_colocated` 474 → 491).
        let _checked = if pass.is_none() || pass != self.gen_pass {
            let engine = self.hybrid_engine_transition(ctx)?;
            self.gen_round += 1;
            self.gen_pass = pass;
            engine
        } else {
            None
        };
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;

        // Seed each request's sampler from its *global* batch row (the
        // chunk's row offset is stamped by the transfer protocol).
        // Seeding from the chunk-local row — as this used to — gave the
        // same prompt different seeds under different `d`/micro-DP
        // chunkings, a cross-layout generation divergence the hf-audit
        // differential oracle caught.
        let row0 = data.row_offset().unwrap_or(0);
        let reqs: Vec<GenRequest> = prompts
            .iter()
            .enumerate()
            .map(|(row, prompt)| {
                let mut h = splitmix(self.hyper.seed ^ self.gen_round.wrapping_mul(0x9e37));
                for &t in prompt {
                    h = splitmix(h ^ t as u64);
                }
                h = splitmix(h ^ (row0 + row) as u64);
                GenRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: resp_len,
                    temperature: if greedy { 0.0 } else { self.hyper.temperature },
                    seed: h,
                    stop_tokens: stop_tokens.clone(),
                }
            })
            .collect();

        let (outs, report) = self
            .genserve
            .generate(&self.lm, &reqs)
            .map_err(|e| CoreError::Worker(format!("genserve: {e}")))?;

        // Charge virtual time per engine step (one token per active
        // lane, batch lanes amortized over the model-parallel group)
        // and trace each step on the device's generation sub-track —
        // the runtime's whole-call Exec envelope owns `gpu-<n>` itself.
        let mp = ctx.layout.spec.mp() as f64;
        // Track name and span args are built only for a recording handle.
        let traced = ctx.telemetry.is_enabled();
        let track = if traced { format!("{}/genserve", ctx.gpu_track()) } else { String::new() };
        let gen_t0 = ctx.clock.now();
        // Scheduler steps chain causally (step N waits on step N−1) and
        // cite the dispatch that started generation; step end times are
        // kept so per-request step indices convert to TTFT latencies.
        let mut prev_step_id = 0u64;
        let mut step_ends: Vec<f64> = Vec::with_capacity(report.traces.len());
        for (step, tr) in report.traces.iter().enumerate() {
            let t0 = ctx.clock.now();
            ctx.charge(PER_TOKEN_LATENCY * tr.batch as f64 / mp);
            let t1 = ctx.clock.now();
            step_ends.push(t1);
            if !traced {
                continue;
            }
            let util = if report.num_blocks > 0 {
                tr.blocks_in_use as f64 / report.num_blocks as f64
            } else {
                0.0
            };
            let step_id = ctx.telemetry.next_span_id();
            ctx.telemetry.span_causal(
                &track,
                "genserve.step",
                hf_telemetry::SpanKind::Exec,
                t0,
                t1,
                step_id,
                &[prev_step_id, ctx.cause],
                &[
                    ("consumer", "rollout".to_string()),
                    ("step", step.to_string()),
                    ("batch", tr.batch.to_string()),
                    ("prefill_lanes", tr.prefill_lanes.to_string()),
                    ("blocks_in_use", tr.blocks_in_use.to_string()),
                    ("admitted", tr.admitted.to_string()),
                    ("preempted", tr.preempted.to_string()),
                    ("finished", tr.finished.to_string()),
                ],
            );
            prev_step_id = step_id;
            ctx.telemetry.sample("genserve.rollout.batch_size", t1, tr.batch as f64);
            ctx.telemetry.sample("genserve.rollout.block_utilization", t1, util);
            ctx.telemetry.observe("genserve.rollout.batch_size", tr.batch as f64);
            ctx.telemetry.observe("genserve.rollout.block_utilization", util);
        }
        // Engine metrics are named `genserve.rollout.*`: the rollout is
        // the engine's one consumer.
        ctx.telemetry.add_counter("genserve.rollout.steps", report.steps);
        ctx.telemetry.add_counter("genserve.rollout.preemptions", report.preemptions);
        ctx.telemetry.add_counter("genserve.rollout.generated_tokens", report.generated_tokens);
        ctx.telemetry.add_counter("genserve.rollout.prefix_hit_tokens", report.prefix_hit_tokens);
        // Per-request time-to-first-token, from the engine's step
        // indices and the virtual step end times charged above
        // (BTreeMap order keeps the digest build deterministic).
        for &step in report.first_token_step.values() {
            if let Some(&t_first) = step_ends.get(step as usize) {
                ctx.telemetry.observe("genserve.rollout.ttft_s", t_first - gen_t0);
            }
        }
        let gen_dt = ctx.clock.now() - gen_t0;
        if gen_dt > 0.0 {
            let tps = report.generated_tokens as f64 / gen_dt;
            ctx.telemetry.observe("genserve.rollout.tokens_per_s", tps);
        }

        // Pad ragged responses to the fixed `resp_len` width and surface
        // the true per-sequence lengths as a `response_len` column.
        let mut responses: Vec<u32> = Vec::with_capacity(prompts.len() * resp_len);
        let mut lens: Vec<f32> = Vec::with_capacity(prompts.len());
        for out in &outs {
            lens.push(out.tokens.len() as f32);
            responses.extend(out.tokens.iter().map(|&t| t as u32));
            responses.extend(std::iter::repeat_n(pad_token as u32, resp_len - out.tokens.len()));
        }
        let mut out = data.clone();
        for key in [GEN_PASS_META, NO_LOGP_META] {
            out.meta.remove(key);
        }
        if !no_logp {
            // A full-length row's log-probs are the decode's: a decoded
            // row is the forward's, bit for bit. A row a stop token cut
            // short is padded, and its pad positions need the padded
            // forward. Every row here, not `mp_rows`: this method is
            // dispatched by the *generation* grouping, under which the
            // training model-parallel peers hold different rows
            // (1-2-2 → 1-1-2-2).
            let seqs: Vec<Vec<usize>> = (prompts.iter().zip(&outs))
                .map(|(prompt, out)| {
                    let mut seq = [&prompt[..], &out.tokens[..]].concat();
                    seq.resize(pw + resp_len, pad_token);
                    seq
                })
                .collect();
            let short: Vec<usize> =
                (0..outs.len()).filter(|&i| outs[i].tokens.len() < resp_len).collect();
            let read = response(pw, resp_len);
            let mut padded =
                stacked(&seqs, &short, read, |run, reads| self.lm.log_probs_stacked(run, reads))
                    .into_iter();
            let mut logps: Vec<f32> = Vec::with_capacity(seqs.len() * resp_len);
            for gen in &outs {
                if gen.tokens.len() == resp_len {
                    logps.extend_from_slice(&gen.logps);
                } else {
                    logps.extend(padded.next().expect("one padded pass per short row"));
                }
            }
            out.insert_f32("logp_old", logps, resp_len);
        }
        out.insert_tokens("responses", responses, resp_len);
        out.insert_f32("response_len", lens, 1);
        Ok(out)
    }

    fn compute_log_prob(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let mut out = DataProto::with_rows(prompts.len());
        let seqs = sequences(&prompts, &resps);
        let logps = if self.hyper.tp_inference && ctx.layout.spec.mp() > 1 {
            // Each row feeds all but its last token; stages before the
            // last contribute zeros. The log-probs take the form
            // `(v − m) − ln z`, not the replicated pass's
            // `ln(max(e / z, 1e-30))`: this branch's replies are pinned.
            let pass = (pw + rw - 1, response(pw, rw));
            let logits = tp_forward(&self.lm, ctx, &seqs, pass, Head::Logits)?;
            let mut logps = vec![0.0; seqs.len() * rw];
            if let Some(logits) = logits {
                for (i, seq) in seqs.iter().enumerate() {
                    // log softmax + gather of the response's next tokens.
                    for (t, lp) in logps[i * rw..(i + 1) * rw].iter_mut().enumerate() {
                        let row = logits.row(i * rw + t);
                        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let z = hf_nn::sum_exp(row, m);
                        *lp = (row[seq[pw + t]] - m) - z.ln();
                    }
                }
            }
            logps
        } else {
            response_log_probs(&self.lm, ctx, &seqs, (pw, rw))
        };
        out.insert_f32("cur_logp", logps, rw);
        Ok(out)
    }

    /// Pre-training cross-entropy over a `pretrain` token column (the
    /// PPO-ptx / Safe-RLHF auxiliary loss), no update.
    fn compute_loss(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let (rows, w) = token_rows(&data, "pretrain", self.lm.cfg.vocab)?;
        let means: Vec<f32> = mp_rows(ctx, rows.len(), |mine| {
            let every = 0..w.saturating_sub(1);
            stacked(&rows, mine, every, |run, reads| self.lm.log_probs_stacked(run, reads))
                .into_iter()
                .map(|lp| lp.iter().sum::<f32>() / lp.len() as f32)
                .collect()
        });
        let mut total = 0.0f32;
        for (seq, mean) in rows.iter().zip(means) {
            total -= mean;
            charge_tokens(ctx, seq.len());
        }
        Ok(metrics(&[("ptx_loss", total / rows.len().max(1) as f32)]))
    }

    /// Computes the *unscaled* PPO(+ptx) gradient sum over this rank's
    /// chunk with the chunk's row count behind it, without synchronizing
    /// or applying it (the optimizer placement's [`Optim::step`] does).
    ///
    /// Per-row gradients combine in a balanced pairwise tree
    /// ([`RowFold`], the same association the DP collectives use for
    /// rank contributions) and the mean is taken by ONE division by the
    /// *global* row count after synchronization. The old
    /// mean-per-rank-then-average-ranks pipeline (left-fold sum,
    /// `/local_count`, all-reduce, `/d`) had a layout-dependent float
    /// association *and* mis-weighted rows under unequal chunks — both
    /// caught by the hf-audit differential oracle.
    fn actor_grads(&mut self, data: &DataProto, ctx: &mut RankCtx) -> Result<(GradSum, DataProto)> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = release_peers(ctx, token_rows(data, "prompts", vocab))?;
        let (resps, rw) = release_peers(ctx, token_rows(data, "responses", vocab))?;
        let old_logps = f32_rows(data, "logp_old", rw)?;
        let advs = f32_rows(data, "advantages", rw)?;
        let ptx_coef: f32 = meta(data, "ptx_coef", |s| s.parse().ok())?.unwrap_or(0.0);
        // Every column is checked before the first row is computed: the
        // peers meet once, after all rows.
        let pre = if ptx_coef > 0.0 && data.has("pretrain") {
            release_peers(ctx, token_rows(data, "pretrain", vocab))?.0
        } else {
            Vec::new()
        };

        let n = self.lm.cfg.param_count();
        let seqs = sequences(&prompts, &resps);
        let denom = prompts.len().max(1) as f32;
        let (lm, hyper) = (&self.lm, &self.hyper);
        let mut fold = RowFold::new(ctx, n);
        fold.rows(&seqs, 1.0, |rows, run, grads| {
            let (mut fp, lp) = lm.next_token_log_probs(run, &vec![response(pw, rw); run.len()]);
            let (old, adv) = (gather_rows(&old_logps, rows), gather_rows(&advs, rows));
            let ppo = fp.tape.ppo_clip_loss(lp, &old, &adv, hyper.clip);
            let logits = fp.logits();
            let ent = fp.tape.mean_entropy(logits);
            let ent_term = fp.tape.scale(ent, -hyper.entropy_coef);
            let loss = fp.tape.add(ppo, ent_term);
            let scalars: Vec<[f32; 2]> = (fp.tape.value(ppo).data().iter())
                .zip(fp.tape.value(ent).data())
                .map(|(&ppo, &ent)| [ppo, ent])
                .collect();
            fp.backward_into(loss, grads);
            scalars
        });
        // Scaled so the global division by the total row count
        // reproduces `ptx_coef × mean(ptx grads)` when chunks are
        // equal-sized.
        let scale = ptx_coef / pre.len() as f32 * denom;
        fold.rows(&pre, 0.0, |_, run, grads| {
            let every: Vec<Range<usize>> = run.iter().map(|s| 0..s.len() - 1).collect();
            let (mut fp, lp) = lm.next_token_log_probs(run, &every);
            let mean = fp.tape.mean_all(lp);
            let loss = fp.tape.scale(mean, -1.0);
            let scalars = fp.tape.value(loss).data().iter().map(|&l| [l, 0.0]).collect();
            fp.backward_into(loss, grads);
            for grad in grads.iter_mut() {
                for g in grad[..n].iter_mut() {
                    *g *= scale;
                }
            }
            scalars
        });
        let sum = fold.finish();

        let (mut loss_acc, mut ent_acc, mut ptx_loss) = (0.0f32, 0.0f32, 0.0f32);
        let (ppo_rows, ptx_rows) = sum.0.scalars.split_at(seqs.len());
        for (seq, [ppo, ent]) in seqs.iter().zip(ppo_rows) {
            loss_acc += ppo;
            ent_acc += ent;
            charge_tokens(ctx, seq.len() * 3);
        }
        for (seq, [loss, _]) in pre.iter().zip(ptx_rows) {
            ptx_loss += loss;
            charge_tokens(ctx, seq.len() * 3);
        }
        ptx_loss /= pre.len().max(1) as f32;
        let m = metrics(&[
            ("actor_loss", loss_acc / denom),
            ("entropy", ent_acc / denom),
            ("ptx_loss", ptx_loss),
        ]);
        Ok((sum, m))
    }

    fn update_actor(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        if std::mem::take(&mut self.gen_transitioned) {
            // Generation → training needs no communication and no
            // virtual time (the engine went with the generation call,
            // and the replica never left), so it is an instantaneous
            // marker showing in traces where the mode flips.
            let now = ctx.clock.now();
            ctx.telemetry.span_causal(
                &ctx.gpu_track(),
                "transition.to_training",
                hf_telemetry::SpanKind::Comm,
                now,
                now,
                0,
                &[ctx.cause],
                &[("recv_bytes", "0".into())],
            );
            ctx.telemetry.add_counter("transition.to_training.count", 1);
        }
        let (sum, m) = self.actor_grads(&data, ctx)?;
        self.optim.step(ctx, &mut self.lm, sum);
        Ok(m)
    }
}

impl Worker for ActorWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        self.optim.check(ctx)?;
        // A ZeRO rank gathers the weights for the methods that read them.
        if !matches!(method, "save_shard" | "load_checkpoint") {
            self.optim.gather(&mut self.lm, ctx);
        }
        match method {
            "generate_sequences" => self.generate_sequences(data, ctx),
            "compute_log_prob" => self.compute_log_prob(data, ctx),
            "compute_loss" => self.compute_loss(data, ctx),
            "update_actor" => self.update_actor(data, ctx),
            "save_shard" => self.optim.shard_reply(ctx, &self.lm, self.gen_round),
            "load_checkpoint" => {
                // The restored sampler round was spent by no pass this
                // rank ran, so the next pass reshards the restored
                // weights, and no update follows a transition.
                self.gen_round = self.optim.load(ctx, &mut self.lm, &data)?;
                self.gen_pass = None;
                self.gen_transitioned = false;
                Ok(DataProto::empty())
            }
            other => Err(CoreError::Worker(format!("actor has no method {other}"))),
        }
    }
}

/// The critic model class: value estimation and clipped value updates.
pub struct CriticWorker {
    lm: TinyLm,
    optim: Optim,
    hyper: WorkerHyper,
}

impl CriticWorker {
    /// Builds the critic (seeded differently from the actor, as a
    /// separately-initialized value model).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lm = TinyLm::new(cfg, hyper.seed ^ 0xc417);
        let optim = Optim::Replicated(Adam::new(cfg.param_count(), hyper.lr));
        CriticWorker { lm, optim, hyper }
    }

    fn compute_values(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let mut out = DataProto::with_rows(prompts.len());
        let seqs = sequences(&prompts, &resps);
        let values = if self.hyper.tp_inference && ctx.layout.spec.mp() > 1 {
            // Each row feeds every token, its last one too: no value read
            // depends on it, but every block runs on every fed row here,
            // so dropping it would shrink each TP all-reduce, which
            // `tp_inference_bytes.rs` and the exact `virtual_tokens_per_s`
            // pin. Stages before the last contribute zeros.
            let pass = (pw + rw, response(pw, rw));
            match tp_forward(&self.lm, ctx, &seqs, pass, Head::Values)? {
                Some(values) => values.data().to_vec(),
                None => vec![0.0; seqs.len() * rw],
            }
        } else {
            let rows = mp_rows(ctx, seqs.len(), |mine| {
                let read = response(pw, rw);
                stacked(&seqs, mine, read, |run, reads| {
                    self.lm.values_stacked(&value_inputs(run), reads)
                })
            });
            for seq in &seqs {
                charge_tokens(ctx, seq.len());
            }
            rows.concat()
        };
        out.insert_f32("values", values, rw);
        Ok(out)
    }

    fn update_critic(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = release_peers(ctx, token_rows(&data, "prompts", vocab))?;
        let (resps, rw) = release_peers(ctx, token_rows(&data, "responses", vocab))?;
        let returns = f32_rows(&data, "returns", rw)?;
        let old_values = f32_rows(&data, "values", rw)?;
        let seqs = sequences(&prompts, &resps);
        let (lm, vclip) = (&self.lm, self.hyper.vclip);
        let mut fold = RowFold::new(ctx, lm.cfg.param_count());
        fold.rows(&seqs, 1.0, |rows, run, grads| {
            let reads = vec![response(pw, rw); run.len()];
            let mut fp = lm.forward_stacked(&value_inputs(run), &reads);
            let values = fp.values();
            let (ret, old) = (gather_rows(&returns, rows), gather_rows(&old_values, rows));
            let loss = fp.tape.value_clip_loss(values, &ret, &old, vclip);
            let scalars = fp.tape.value(loss).data().iter().map(|&l| [l, 0.0]).collect();
            fp.backward_into(loss, grads);
            scalars
        });
        // Same layout-invariant reduction as the actor: balanced
        // pairwise-tree row sums, one division by the global row count.
        let sum = fold.finish();
        let mut loss_acc = 0.0f32;
        for (seq, [loss, _]) in seqs.iter().zip(&sum.0.scalars) {
            loss_acc += loss;
            charge_tokens(ctx, seq.len() * 3);
        }
        let denom_local = prompts.len().max(1) as f32;
        self.optim.step(ctx, &mut self.lm, sum);
        Ok(metrics(&[("critic_loss", loss_acc / denom_local)]))
    }
}

impl Worker for CriticWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        match method {
            "compute_values" => self.compute_values(data, ctx),
            "update_critic" => self.update_critic(data, ctx),
            "save_shard" => self.optim.shard_reply(ctx, &self.lm, 0),
            "load_checkpoint" => {
                self.optim.load(ctx, &mut self.lm, &data)?;
                Ok(DataProto::empty())
            }
            other => Err(CoreError::Worker(format!("critic has no method {other}"))),
        }
    }
}

/// The frozen reference policy: KL anchor for the actor.
pub struct ReferenceWorker {
    lm: TinyLm,
}

impl ReferenceWorker {
    /// Builds the reference with the *same seed as the actor*, matching
    /// RLHF practice (reference = initial actor weights).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lm = TinyLm::new(cfg, hyper.seed);
        ReferenceWorker { lm }
    }
}

impl Worker for ReferenceWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        if method != "compute_ref_log_prob" {
            return Err(CoreError::Worker(format!("reference has no method {method}")));
        }
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let mut out = DataProto::with_rows(prompts.len());
        let seqs = sequences(&prompts, &resps);
        let logps = response_log_probs(&self.lm, ctx, &seqs, (pw, rw));
        out.insert_f32("ref_logp", logps, rw);
        Ok(out)
    }
}

/// How a reward (or cost) model scores responses.
#[derive(Debug, Clone)]
pub enum RewardKind {
    /// Rule-based scoring (paper §9, "non-neural-network reward
    /// modules"): the fraction of response tokens in `good_tokens`.
    RuleBased {
        /// The favoured token set.
        good_tokens: Vec<u32>,
    },
    /// Neural scoring via a `TinyLm` scalar head at the final position.
    Neural {
        /// Seed for the reward model's weights.
        seed: u64,
    },
}

/// What a [`RewardWorker`] scores with: [`RewardKind`] built.
enum Scorer {
    RuleBased(Vec<u32>),
    Neural(TinyLm),
}

/// The reward model class; Safe-RLHF's cost model is another instance
/// answering `compute_cost` (Figure 6 reuses `RewardWorker` verbatim).
pub struct RewardWorker {
    scorer: Scorer,
}

impl RewardWorker {
    /// Builds a reward/cost model.
    pub fn new(cfg: LmConfig, kind: RewardKind) -> Self {
        let scorer = match kind {
            RewardKind::RuleBased { good_tokens } => Scorer::RuleBased(good_tokens),
            RewardKind::Neural { seed } => Scorer::Neural(TinyLm::new(cfg, seed)),
        };
        RewardWorker { scorer }
    }

    /// The scores of the rows `mine` of `prompts` and `resps` (`rw`
    /// tokens each, `resp_raw` as sent): a rule-based score per row, or
    /// the value head at each sequence's last position through one
    /// stacked pass per [`hf_nn::stacks`] run that reads only that row.
    fn scores(
        &self,
        mine: &[usize],
        (prompts, resps): (&[Vec<usize>], &[Vec<usize>]),
        resp_raw: &[u32],
        rw: usize,
    ) -> Vec<f32> {
        match &self.scorer {
            Scorer::RuleBased(good_tokens) => (mine.iter())
                .map(|&i| {
                    let resp = &resp_raw[i * rw..(i + 1) * rw];
                    let hits = resp.iter().filter(|t| good_tokens.contains(t)).count();
                    hits as f32 / rw.max(1) as f32
                })
                .collect(),
            Scorer::Neural(lm) => {
                let seqs = sequences(prompts, resps);
                let len = seqs.first().map_or(0, Vec::len);
                let last = len.saturating_sub(1)..len;
                stacked(&seqs, mine, last, |run, reads| lm.values_stacked(run, reads)).concat()
            }
        }
    }
}

impl Worker for RewardWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let column = match method {
            "compute_reward" => "scores",
            "compute_cost" => "costs",
            other => return Err(CoreError::Worker(format!("reward has no method {other}"))),
        };
        // A rule-based reward indexes no embedding: any id is a token.
        let vocab = if let Scorer::Neural(lm) = &self.scorer { lm.cfg.vocab } else { usize::MAX };
        let (prompts, _pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let (resp_raw, _) = data.tokens("responses")?;
        let mut out = DataProto::with_rows(prompts.len());
        let scores =
            mp_rows(ctx, prompts.len(), |mine| self.scores(mine, (&prompts, &resps), resp_raw, rw));
        for (p, r) in prompts.iter().zip(resps.iter()) {
            charge_tokens(ctx, p.len() + r.len());
        }
        out.insert_f32(column, scores, 1);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_core::{Controller, Protocol, WorkerLayout};
    use hf_parallel::ParallelSpec;
    use hf_simcluster::{ClusterSpec, ResourcePool};

    #[test]
    fn mp_rows_gives_every_peer_every_row_in_order_computed_once() {
        for mp in [1usize, 2, 4] {
            let ctrl = Controller::new(ClusterSpec::a100_with_gpus(mp));
            let layout = WorkerLayout::train_only(ParallelSpec::new(1, mp, 1));
            let group = ctrl
                .spawn_group("rows", &ResourcePool::contiguous(0, mp), layout, |_r| {
                    Box::new(|_: &str, data: DataProto, ctx: &mut RankCtx| {
                        // Each row's value, stamped with the peer that
                        // computed it.
                        let rows = mp_rows(ctx, data.rows(), |mine| {
                            let row =
                                |&i: &usize| vec![(i * i) as f32 + 0.5, ctx.comms.mp.rank() as f32];
                            mine.iter().map(row).collect()
                        });
                        let mut out = DataProto::with_rows(rows.len());
                        out.insert_f32("rows", rows.concat(), 2);
                        Ok(out)
                    })
                })
                .unwrap();
            for n in [0usize, 1, 3, 8] {
                let mut batch = DataProto::with_rows(n);
                batch.insert_f32("x", vec![0.0; n], 1);
                // Every rank receives the whole batch and replies with all
                // of it: `mp` copies of the single-rank result.
                let out = group.call_sync("rows", &batch, Protocol::AllToAll).unwrap();
                let expect: Vec<f32> =
                    (0..n).flat_map(|i| [(i * i) as f32 + 0.5, (i % mp) as f32]).collect();
                assert_eq!(out.f32("rows").unwrap().0, expect.repeat(mp), "mp={mp} rows={n}");
            }
        }
    }

    #[test]
    #[allow(clippy::disallowed_types)] // test bookkeeping: held briefly, never waited on
    fn a_tp_inference_pass_joins_each_layer_once_per_chunk() {
        use std::sync::Mutex;
        let cfg = LmConfig::tiny();
        let hyper = WorkerHyper { tp_inference: true, ..WorkerHyper::default() };
        type Spawn = fn(LmConfig, WorkerHyper) -> Box<dyn Worker>;
        let passes: [(&str, Spawn); 2] = [
            ("compute_log_prob", |cfg, hyper| Box::new(ActorWorker::new(cfg, hyper))),
            ("compute_values", |cfg, hyper| Box::new(CriticWorker::new(cfg, hyper))),
        ];
        for (p, t, d) in [(1usize, 2usize, 2usize), (2, 2, 1)] {
            for (method, spawn) in passes {
                // Every call's TP all-reduces, as each rank's communicator
                // counted them.
                let rounds = Arc::new(Mutex::new(Vec::new()));
                let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
                let layout = WorkerLayout::train_only(ParallelSpec::new(p, t, d));
                let group = ctrl
                    .spawn_group(method, &ResourcePool::contiguous(0, 4), layout, |_r| {
                        let (mut worker, rounds) = (spawn(cfg, hyper.clone()), rounds.clone());
                        Box::new(move |method: &str, data: DataProto, ctx: &mut RankCtx| {
                            let before = ctx.comms.tp.rounds();
                            let reply = worker.execute(method, data, ctx);
                            rounds.lock().unwrap().push(ctx.comms.tp.rounds() - before);
                            reply
                        })
                    })
                    .unwrap();
                for (rows, expect) in [(8usize, (cfg.layers / p) as u64), (0, 0)] {
                    let mut batch = DataProto::with_rows(rows);
                    batch.insert_tokens("prompts", vec![3; rows * 6], 6);
                    batch.insert_tokens("responses", vec![5; rows * 6], 6);
                    let out = group.call_sync(method, &batch, Protocol::ThreeD).unwrap();
                    assert_eq!(out.rows(), rows);
                    let counted = std::mem::take(&mut *rounds.lock().unwrap());
                    assert_eq!(counted, [expect; 4], "{method} on {p}-{t}-{d}, {rows} rows");
                }
            }
        }
    }

    #[test]
    fn row_fold_gives_every_peer_the_tree_sum_of_all_rows_in_row_order() {
        // Row `i` of kind `k` "computes" a gradient that depends on both,
        // with magnitudes far enough apart that another association or
        // order would round differently.
        fn grad(kind: usize, i: usize) -> Vec<f32> {
            let scale = 10f32.powi((i as i32 * 3 + kind as i32) % 7 - 3);
            (0..5).map(|c| ((i * 13 + c * 7 + kind * 5) as f32 * 0.61).sin() * scale).collect()
        }
        for mp in [1usize, 2, 4] {
            let ctrl = Controller::new(ClusterSpec::a100_with_gpus(mp));
            let layout = WorkerLayout::train_only(ParallelSpec::new(1, mp, 1));
            let group = ctrl
                .spawn_group("fold", &ResourcePool::contiguous(0, mp), layout, |_r| {
                    Box::new(|_: &str, data: DataProto, ctx: &mut RankCtx| {
                        // `a` counted rows, then `b` auxiliary ones, all
                        // 12 tokens long: two to a stacked tape.
                        let (a, b) = (data.rows(), data.rows() / 2);
                        let mut fold = RowFold::new(ctx, 5);
                        for (kind, n, weight) in [(0, a, 1.0), (1, b, 0.0)] {
                            fold.rows(&vec![vec![0usize; 12]; n], weight, |rows, run, grads| {
                                assert_eq!((rows.len(), run.len()), (grads.len(), grads.len()));
                                for (&i, g) in rows.iter().zip(grads.iter_mut()) {
                                    g[..5].copy_from_slice(&grad(kind, i));
                                }
                                rows.iter().map(|&i| [i as f32, kind as f32]).collect()
                            });
                        }
                        let sum = fold.finish();
                        let mut out = DataProto::with_rows(1);
                        out.insert_f32("sum", sum.as_ref().to_vec(), 6);
                        // (A leading marker: a reply column may not be empty.)
                        let scalars = [&[-1.0][..], &sum.0.scalars.concat()].concat();
                        out.insert_f32("scalars", scalars, 1 + 2 * (a + b));
                        Ok(out)
                    })
                })
                .unwrap();
            for n in [0usize, 1, 3, 8, 11] {
                let mut batch = DataProto::with_rows(n);
                batch.insert_f32("x", vec![0.0; n], 1);
                let out = group.call_sync("fold", &batch, Protocol::AllToAll).unwrap();
                let rows = (0..n).map(|i| (0, i, 1.0)).chain((0..n / 2).map(|i| (1, i, 0.0)));
                let parts: Vec<Vec<f32>> =
                    rows.clone().map(|(k, i, w)| [grad(k, i), vec![w]].concat()).collect();
                let expect = if parts.is_empty() {
                    vec![0.0; 6]
                } else {
                    hf_simcluster::tree_sum_parts(parts)
                };
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(out.f32("sum").unwrap().0), bits(&expect.repeat(mp)), "{mp} {n}");
                assert_eq!(expect[5], n as f32, "the sum's last value is the row count");
                let scalars = rows.flat_map(|(k, i, _)| [i as f32, k as f32]);
                let scalars: Vec<f32> = std::iter::once(-1.0).chain(scalars).collect();
                assert_eq!(out.f32("scalars").unwrap().0, scalars.repeat(mp), "mp={mp} rows={n}");
            }
        }
    }
}
