//! RLHF model classes (paper Table 4), implemented as SPMD workers on
//! the hybrid runtime.
//!
//! The transfer protocol splits a batch across DP (or micro-DP) groups
//! and hands each chunk to a whole model-parallel group, which computes
//! it cooperatively: `mp_rows` gives rank `r` of the group the rows
//! `i ≡ r (mod mp)` and reassembles every row's result on every rank
//! through an untimed host exchange. Virtual time already charges the
//! group's cooperation as `per_token_latency / mp` per row on every
//! rank, so the exchange costs no virtual time; per-row results are pure
//! functions of replicated weights and the shared chunk, so what each
//! rank ends up with is what it would have computed alone, bit for bit.
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
//! Sampling inside `generate_sequences` is seeded from the chunk
//! contents and a per-call round counter, so all ranks holding the same
//! chunk produce identical responses (the SPMD determinism the
//! multi-controller paradigm relies on).

use std::ops::Range;
use std::sync::Arc;

use hf_core::{CoreError, DataProto, RankCtx, Result, Worker};
use hf_genserve::{GenConfig, GenRequest, GenServer};
use hf_nn::{stacks, Adam, Head, LmConfig, ShardedLm, StageOutput, Tensor, TinyLm};
use hf_parallel::shard::train_shard;
use hf_parallel::ShardLayout;
use hf_resilience::{encode_shard, shard_range, AssembledState, ShardHeader};
use hf_simcluster::{SumPart, TreeSum};

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
    /// Virtual seconds charged per processed token (scaled by the
    /// group's model-parallel size).
    pub per_token_latency: f64,
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
            per_token_latency: 1e-6,
            tp_inference: false,
            gen_block_tokens: 16,
            gen_cache_budget: 1 << 20,
            gen_max_batch: 64,
        }
    }
}

/// Meta key: set to `"1"` by the pipelined driver on generation inputs
/// (`"0"` is off; any other value is a `Config` error).
/// Gates the overlap-aware hybrid-engine entry and the
/// transition-already-done skip for later chunks of the same round —
/// synchronous drivers never stamp it, so their timing and bits are
/// untouched.
pub const PIPELINE_META: &str = "__pipeline";

/// Meta key: explicit generation round. The pipelined driver splits one
/// logical generation into several `generate_sequences` calls; stamping
/// the round keeps every chunk's sampler seeds identical to the single
/// synchronous call (which advances the worker's own counter once).
pub const GEN_ROUND_META: &str = "__gen_round";

/// Meta key: the id of one *logical* generation pass, stamped by the
/// barrier driver and reused by a retry of that pass. A rank whose last
/// pass carried the same id already spent the pass's sampler round — it
/// ran the attempt whose failure on a peer caused the retry — and does
/// not advance again, so every rank samples the retried pass from the
/// round of the attempt it replaces. Not echoed in the reply.
pub const GEN_PASS_META: &str = "__gen_pass";

/// Meta key: set to `"1"` by a driver on a generation input whose
/// `logp_old` it will not read — `compute_log_prob` is about to replace
/// the column (`recompute_logp`), or only the pass's `scores` matter
/// (ReMax's greedy baseline). `generate_sequences` then replies without
/// the column, and skips the forward pass a stop-shortened row's
/// column needs. `"0"` is off; any other value is a `Config` error.
pub const NO_LOGP_META: &str = "__no_logp";

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

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

fn charge_tokens(ctx: &mut RankCtx, tokens: usize, hyper: &WorkerHyper) {
    let mp = ctx.layout.spec.mp() as f64;
    ctx.charge(tokens as f64 * hyper.per_token_latency / mp);
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
/// collective would charge it twice. Every peer must call this the same
/// number of times per method, which holds because they validate the
/// same chunk before the first call.
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
    hyper: &WorkerHyper,
    ctx: &mut RankCtx,
    seqs: &[Vec<usize>],
    (pw, rw): (usize, usize),
) -> Vec<f32> {
    let rows = mp_rows(ctx, seqs.len(), |mine| {
        stacked(seqs, mine, response(pw, rw), |run, reads| lm.log_probs_stacked(run, reads))
    });
    for seq in seqs {
        charge_tokens(ctx, seq.len(), hyper);
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
/// Returns the last stage's `head` over the positions `read` of every
/// row, row `i`'s position `read.start + t` in row `i · read.len() + t`;
/// `None` on the other stages (the `3D_PROTO` collect reads the last one)
/// and for an empty chunk, which makes no pass and no collective.
fn tp_forward(
    lm: &TinyLm,
    hyper: &WorkerHyper,
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
        charge_tokens(ctx, seq.len(), hyper);
    }
    Ok(last)
}

/// What a model-parallel group made of the per-row gradients of an
/// update method's chunk; every peer holds the same one.
pub(crate) struct Folded {
    /// The rows' gradients, tree-summed in row order, then the sum of
    /// their weights — the chunk's row count: `[param_count + 1]`.
    sum: Vec<f32>,
    /// Every row's two scalars, in row order.
    scalars: Vec<[f32; 2]>,
}

/// A chunk's gradient sum with its row count behind it, shared by the
/// peers of the model-parallel group that folded it.
#[derive(Clone)]
pub(crate) struct GradSum(Arc<Folded>);

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
pub(crate) struct GradOnly(pub GradSum);

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

/// Synchronizes a chunk's gradient `sum` over the data-parallel group
/// (a real collective; the row count rides along as the last value, so
/// one collective carries both — counts are small integers, exact in
/// f32) and steps `opt` on the mean: ONE division by the *global* row
/// count, after the reduction.
fn sync_and_step(ctx: &mut RankCtx, opt: &mut Adam, lm: &mut TinyLm, sum: GradSum) {
    let mut step = |sum: &[f32]| {
        let (grad, count) = sum.split_at(sum.len() - 1);
        opt.step_mean(lm.flat_mut(), grad, count[0].max(1.0));
    };
    if ctx.comms.dp.size() > 1 {
        let mut clock = ctx.clock;
        step(&ctx.comms.dp.all_reduce_sum_shared(&mut clock, sum));
        ctx.clock = clock;
    } else {
        step(sum.as_ref());
    }
}

fn metrics(values: &[(&str, f32)]) -> DataProto {
    let mut out = DataProto::with_rows(1);
    for (k, v) in values {
        out.insert_f32(k, vec![*v], 1);
    }
    out
}

/// One rank's `save_shard` reply for *replicated* state: the
/// model-parallel group tiles the flat vector (`mp_pos = p_idx·t +
/// t_idx`) and every data-parallel replica holds the same bytes, so only
/// the `d_idx == 0` replica owns its slice.
fn shard_reply(ctx: &RankCtx, params: &[f32], opt: &Adam, gen_round: u64) -> Result<DataProto> {
    let (m, v, opt_t) = opt.state();
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

/// The actor model class: generation, log-probs, pre-train loss, PPO
/// updates (Table 4).
pub struct ActorWorker {
    lm: TinyLm,
    opt: Adam,
    hyper: WorkerHyper,
    gen_round: u64,
    /// The [`GEN_PASS_META`] id of the last pass that advanced
    /// `gen_round`.
    gen_pass: Option<u64>,
    /// The resharded hybrid engine, held between the train→generation
    /// transition and the generation→training copy-back in
    /// `update_actor`.
    gen_engine: Option<hf_hybridengine::HybridEngineRank>,
    /// The paged-KV continuous-batching generation engine
    /// (`generate_sequences` routes every request through it).
    genserve: GenServer,
    /// Whether training has touched the weights since they were last
    /// installed into the generation engine.
    weights_dirty: bool,
}

impl ActorWorker {
    /// Builds the actor from an LM config (all ranks must use the same
    /// seed so replicas start identical).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lm = TinyLm::new(cfg, hyper.seed);
        let opt = Adam::new(cfg.param_count(), hyper.lr);
        let genserve = GenServer::new(GenConfig {
            block_tokens: hyper.gen_block_tokens,
            cache_budget_bytes: hyper.gen_cache_budget,
            max_batch: hyper.gen_max_batch,
        });
        ActorWorker {
            lm,
            opt,
            hyper,
            gen_round: 0,
            gen_pass: None,
            gen_engine: None,
            genserve,
            weights_dirty: true,
        }
    }

    /// Read access to the underlying LM (for checkpoint tests).
    pub(crate) fn lm(&self) -> &TinyLm {
        &self.lm
    }

    /// The generation RNG round (the ZeRO wrapper snapshots it into its
    /// own `save_shard` reply).
    pub(crate) fn gen_round(&self) -> u64 {
        self.gen_round
    }

    /// Installs a restored state, Adam included. The restored sampler
    /// round was spent by no pass this rank ran.
    pub(crate) fn load_state(&mut self, st: &AssembledState) {
        self.lm.flat_mut().copy_from_slice(&st.params);
        self.opt.load_state(&st.opt_m, &st.opt_v, st.opt_t);
        self.gen_round = st.gen_round;
        self.gen_pass = None;
        self.weights_dirty = true;
    }

    /// Runs the 3D-HybridEngine train→generation transition for real:
    /// all-gathers this rank's training shard of the block weights
    /// within its micro-DP group (one concurrent collective per group,
    /// §5.3, charged to virtual time) and verifies the reconstructed
    /// generation shard byte-matches the model — the zero-redundancy
    /// resharding executing on the functional path every iteration.
    fn hybrid_engine_transition(&mut self, ctx: &mut RankCtx, pipelined: bool) -> Result<()> {
        let Some(gen) = ctx.layout.gen else { return Ok(()) };
        let Some(micro) = &ctx.comms.micro_dp else { return Ok(()) };
        if gen.method != hf_parallel::GroupingMethod::Strided {
            // The vanilla engine gathers over the whole MP group; only
            // the paper's strided grouping is wired into the functional
            // path (the vanilla variant is exercised by hf-hybridengine's
            // own tests).
            return Ok(());
        }
        if pipelined && self.gen_engine.is_some() && !self.weights_dirty {
            // Later chunks of the same pipelined round: the engine is
            // already in generation mode with current weights, so the
            // gather would be a no-op reshard — skip it. Synchronous
            // drivers never take this path (ReMax's second greedy pass
            // deliberately re-runs the gather, and its timing is pinned
            // by committed baselines).
            return Ok(());
        }
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
        // Pipelined, the all-gather is modeled as having started when the
        // controller dispatched this generation call, hiding it behind
        // the tail of the previous train step still draining from this
        // rank's mailbox.
        engine.to_generation_traced(
            micro,
            &mut ctx.clock,
            &ctx.telemetry,
            &track,
            ctx.cause,
            pipelined.then_some(ctx.dispatch_time),
        );
        // The gathered generation shard must equal the model's own slice.
        if !engine.gen_matches(blocks) {
            return Err(CoreError::Worker(format!(
                "rank {} hybrid-engine reshard mismatch: replicas drifted",
                ctx.rank
            )));
        }
        // Hold the resharded engine until `update_actor` flips back.
        self.gen_engine = Some(engine);
        Ok(())
    }

    fn generate_sequences(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        // The meta is read before anything changes: a malformed key
        // leaves every rank as it was.
        let round = meta(&data, GEN_ROUND_META, |s| s.parse::<u64>().ok())?;
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
        let pipelined = flag(PIPELINE_META)?;
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
        // Reshard training → generation weights before generating.
        self.hybrid_engine_transition(ctx, pipelined)?;
        // One logical generation = one round. The pipelined driver
        // splits a round into several calls and pins the round via meta
        // so chunk seeds match the single synchronous call exactly. A
        // call that turns its chunk down below still spent the round, on
        // every rank alike; a retry of a pass this rank already ran
        // samples that attempt's round again.
        match (round, pass) {
            (Some(round), _) => self.gen_round = round,
            (None, Some(pass)) if self.gen_pass == Some(pass) => {}
            (None, pass) => {
                self.gen_round += 1;
                self.gen_pass = pass;
            }
        }
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;

        // Install the resharded weights into the generation engine if
        // training has touched them since the last install.
        if self.weights_dirty || !self.genserve.has_weights() {
            if ctx.telemetry.is_enabled() {
                let now = ctx.clock.now();
                ctx.telemetry.span_causal(
                    &ctx.gpu_track(),
                    "transition.install_gen_weights",
                    hf_telemetry::SpanKind::Comm,
                    now,
                    now,
                    0,
                    &[ctx.cause],
                    &[("bytes", (self.lm.flat().len() * 4).to_string())],
                );
            }
            self.genserve.install_weights(&self.lm);
            self.weights_dirty = false;
        }

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
            .generate(&reqs)
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
            ctx.charge(self.hyper.per_token_latency * tr.batch as f64 / mp);
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
        out.meta.remove(GEN_PASS_META);
        out.meta.remove(NO_LOGP_META);
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
            // last contribute zeros.
            let pass = (pw + rw - 1, response(pw, rw));
            let logits = tp_forward(&self.lm, &self.hyper, ctx, &seqs, pass, Head::Logits)?;
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
            response_log_probs(&self.lm, &self.hyper, ctx, &seqs, (pw, rw))
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
            charge_tokens(ctx, seq.len(), &self.hyper);
        }
        Ok(metrics(&[("ptx_loss", total / rows.len().max(1) as f32)]))
    }

    /// Computes the *unscaled* PPO(+ptx) gradient sum over this rank's
    /// chunk with the chunk's row count behind it, without synchronizing
    /// or applying it (shared by the replicated and ZeRO update paths).
    ///
    /// Per-row gradients combine in a balanced pairwise tree
    /// ([`RowFold`], the same association the DP collectives use for
    /// rank contributions) and the mean is taken by ONE division by the
    /// *global* row count after synchronization. The old
    /// mean-per-rank-then-average-ranks pipeline (left-fold sum,
    /// `/local_count`, all-reduce, `/d`) had a layout-dependent float
    /// association *and* mis-weighted rows under unequal chunks — both
    /// caught by the hf-audit differential oracle.
    pub(crate) fn actor_grads(
        &mut self,
        data: &DataProto,
        ctx: &mut RankCtx,
    ) -> Result<(GradSum, DataProto)> {
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
            charge_tokens(ctx, seq.len() * 3, &self.hyper);
        }
        for (seq, [loss, _]) in pre.iter().zip(ptx_rows) {
            ptx_loss += loss;
            charge_tokens(ctx, seq.len() * 3, &self.hyper);
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
        if let Some(mut engine) = self.gen_engine.take() {
            // Generation → training under the strided grouping is the
            // zero-redundancy copy-back: no communication, no virtual
            // time. The engine records it as an instantaneous marker so
            // traces show where the mode flips.
            engine.to_training_traced(&ctx.clock, &ctx.telemetry, &ctx.gpu_track(), ctx.cause);
        }
        let (sum, m) = self.actor_grads(&data, ctx)?;
        sync_and_step(ctx, &mut self.opt, &mut self.lm, sum);
        self.weights_dirty = true;
        Ok(m)
    }

    /// Mutable access to the LM (the ZeRO wrapper rehydrates weights).
    pub(crate) fn lm_mut(&mut self) -> &mut TinyLm {
        &mut self.lm
    }

    /// Flags the generation engine's weight copy as stale (the ZeRO
    /// wrapper updates parameters outside `update_actor`).
    pub(crate) fn mark_weights_dirty(&mut self) {
        self.weights_dirty = true;
    }
}

impl Worker for ActorWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        match method {
            "generate_sequences" => self.generate_sequences(data, ctx),
            "compute_log_prob" => self.compute_log_prob(data, ctx),
            "compute_loss" => self.compute_loss(data, ctx),
            "update_actor" => self.update_actor(data, ctx),
            "save_shard" => shard_reply(ctx, self.lm.flat(), &self.opt, self.gen_round),
            "load_checkpoint" => {
                self.load_state(&AssembledState::from_load_input(&data, self.lm.flat().len())?);
                Ok(DataProto::empty())
            }
            other => Err(CoreError::Worker(format!("actor has no method {other}"))),
        }
    }
}

/// The critic model class: value estimation and clipped value updates.
pub struct CriticWorker {
    lm: TinyLm,
    opt: Adam,
    hyper: WorkerHyper,
}

impl CriticWorker {
    /// Builds the critic (seeded differently from the actor, as a
    /// separately-initialized value model).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lm = TinyLm::new(cfg, hyper.seed ^ 0xc417);
        let opt = Adam::new(cfg.param_count(), hyper.lr);
        CriticWorker { lm, opt, hyper }
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
            match tp_forward(&self.lm, &self.hyper, ctx, &seqs, pass, Head::Values)? {
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
                charge_tokens(ctx, seq.len(), &self.hyper);
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
            charge_tokens(ctx, seq.len() * 3, &self.hyper);
        }
        let denom_local = prompts.len().max(1) as f32;
        sync_and_step(ctx, &mut self.opt, &mut self.lm, sum);
        Ok(metrics(&[("critic_loss", loss_acc / denom_local)]))
    }
}

impl Worker for CriticWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        match method {
            "compute_values" => self.compute_values(data, ctx),
            "update_critic" => self.update_critic(data, ctx),
            "save_shard" => shard_reply(ctx, self.lm.flat(), &self.opt, 0),
            "load_checkpoint" => {
                let st = AssembledState::from_load_input(&data, self.lm.flat().len())?;
                self.lm.flat_mut().copy_from_slice(&st.params);
                self.opt.load_state(&st.opt_m, &st.opt_v, st.opt_t);
                Ok(DataProto::empty())
            }
            other => Err(CoreError::Worker(format!("critic has no method {other}"))),
        }
    }
}

/// The frozen reference policy: KL anchor for the actor.
pub struct ReferenceWorker {
    lm: TinyLm,
    hyper: WorkerHyper,
}

impl ReferenceWorker {
    /// Builds the reference with the *same seed as the actor*, matching
    /// RLHF practice (reference = initial actor weights).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lm = TinyLm::new(cfg, hyper.seed);
        ReferenceWorker { lm, hyper }
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
        let logps = response_log_probs(&self.lm, &self.hyper, ctx, &seqs, (pw, rw));
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

/// The reward model class; Safe-RLHF's cost model is another instance
/// answering `compute_cost` (Figure 6 reuses `RewardWorker` verbatim).
pub struct RewardWorker {
    kind: RewardKind,
    lm: Option<TinyLm>,
    hyper: WorkerHyper,
}

impl RewardWorker {
    /// Builds a reward/cost model.
    pub fn new(cfg: LmConfig, kind: RewardKind, hyper: WorkerHyper) -> Self {
        let lm = match &kind {
            RewardKind::Neural { seed } => Some(TinyLm::new(cfg, *seed)),
            RewardKind::RuleBased { .. } => None,
        };
        RewardWorker { kind, lm, hyper }
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
        match (&self.kind, &self.lm) {
            (RewardKind::RuleBased { good_tokens }, _) => (mine.iter())
                .map(|&i| {
                    let resp = &resp_raw[i * rw..(i + 1) * rw];
                    let hits = resp.iter().filter(|t| good_tokens.contains(t)).count();
                    hits as f32 / rw.max(1) as f32
                })
                .collect(),
            (RewardKind::Neural { .. }, Some(lm)) => {
                let seqs = sequences(prompts, resps);
                let len = seqs.first().map_or(0, Vec::len);
                let last = len.saturating_sub(1)..len;
                stacked(&seqs, mine, last, |run, reads| lm.values_stacked(run, reads)).concat()
            }
            (RewardKind::Neural { .. }, None) => unreachable!("a neural reward has an LM"),
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
        let vocab = self.lm.as_ref().map_or(usize::MAX, |lm| lm.cfg.vocab);
        let (prompts, _pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let (resp_raw, _) = data.tokens("responses")?;
        let mut out = DataProto::with_rows(prompts.len());
        let scores =
            mp_rows(ctx, prompts.len(), |mine| self.scores(mine, (&prompts, &resps), resp_raw, rw));
        for (p, r) in prompts.iter().zip(resps.iter()) {
            charge_tokens(ctx, p.len() + r.len(), &self.hyper);
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
