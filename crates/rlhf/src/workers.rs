//! RLHF model classes (paper Table 4), implemented as SPMD workers on
//! the hybrid runtime.
//!
//! The transfer protocol splits a batch across DP (or micro-DP) groups
//! and hands each chunk to a whole model-parallel group, which computes
//! it cooperatively: [`mp_rows`] gives rank `r` of the group the rows
//! `i ≡ r (mod mp)` and reassembles every row's result on every rank
//! through an untimed host exchange. Virtual time already charges the
//! group's cooperation as `per_token_latency / mp` per row on every
//! rank, so the exchange costs no virtual time; per-row results are pure
//! functions of replicated weights and the shared chunk, so what each
//! rank ends up with is what it would have computed alone, bit for bit.
//! (Real tensor-parallel *backward* stays out of scope: only the
//! `tp_inference` forward passes shard the model itself.) Update methods
//! all-reduce gradients over the rank's DP communicator — a real
//! collective through the virtual NCCL — so model replicas stay in
//! lock-step, exactly like data-parallel training.
//!
//! Sampling inside `generate_sequences` is seeded from the chunk
//! contents and a per-call round counter, so all ranks holding the same
//! chunk produce identical responses (the SPMD determinism the
//! multi-controller paradigm relies on).

use hf_core::{CoreError, DataProto, RankCtx, Result, Worker};
use hf_genserve::{GenConfig, GenRequest, GenServer};
use hf_nn::{Adam, LmConfig, TinyLm};
use hf_parallel::shard::train_shard;
use hf_parallel::ShardLayout;
use hf_simcluster::tree_sum_parts;

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
    /// Run inference passes (`compute_log_prob`) with *real* model
    /// parallelism: each rank computes only its Megatron-style weight
    /// shard — TP partials joined by all-reduces over the TP
    /// communicator, pipeline stages handing activations point-to-point.
    /// Requires `t | ffn` and `p | layers`.
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

/// Meta key: set to `"1"` by the pipelined driver on generation inputs.
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

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-1a over the bit pattern of a parameter buffer — the §9
/// silent-data-corruption guard on checkpoints.
pub(crate) fn param_checksum(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for p in params {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
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

fn f32_rows(data: &DataProto, name: &str) -> Result<(Vec<Vec<f32>>, usize)> {
    let (vals, w) = data.f32(name)?;
    let rows = vals.len().checked_div(w).unwrap_or(0);
    Ok(((0..rows).map(|r| vals[r * w..(r + 1) * w].to_vec()).collect(), w))
}

fn charge_tokens(ctx: &mut RankCtx, tokens: usize, hyper: &WorkerHyper) {
    let mp = ctx.layout.spec.mp() as f64;
    ctx.charge(tokens as f64 * hyper.per_token_latency / mp);
}

/// Computes `row(i)` for every row `i < n` of a chunk the transfer
/// protocol gave to this rank's whole model-parallel group
/// (`Protocol::ThreeD` methods only): rank `r` of the group computes the
/// rows `i ≡ r (mod mp)`, and the peers swap results so each returns all
/// `n`, in row order.
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
    row: impl FnMut(usize) -> T,
) -> Vec<T> {
    let (mp, r) = (ctx.comms.mp.size(), ctx.comms.mp.rank());
    let mine: Vec<T> = (r..n).step_by(mp).map(row).collect();
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

/// Log-probs of every row's `rw` response tokens under `lm` (one plain
/// forward per row, rows shared across the model-parallel group), flat
/// in row order.
fn response_log_probs(
    lm: &TinyLm,
    hyper: &WorkerHyper,
    ctx: &mut RankCtx,
    seqs: &[Vec<usize>],
    rw: usize,
) -> Vec<f32> {
    let rows = mp_rows(ctx, seqs.len(), |i| {
        let lp = lm.log_probs(&seqs[i]);
        lp[lp.len() - rw..].to_vec()
    });
    for seq in seqs {
        charge_tokens(ctx, seq.len(), hyper);
    }
    rows.concat()
}

fn metrics(values: &[(&str, f32)]) -> DataProto {
    let mut out = DataProto::with_rows(1);
    for (k, v) in values {
        out.insert_f32(k, vec![*v], 1);
    }
    out
}

/// Builds one rank's `save_shard` reply for *replicated* state: the
/// model-parallel group tiles the flat vector (`mp_pos = p_idx·t +
/// t_idx`), every data-parallel replica holds the same bytes, so only
/// the `d_idx == 0` replica marks its row as an owner shard. Row widths
/// are padded uniform so the ALL_TO_ALL concat aligns; `shard_meta` is
/// `[rank, start, len, owner, total, gen_round, opt_t]` (all values
/// < 2^24, exact in f32).
pub(crate) fn shard_reply(
    ctx: &RankCtx,
    params: &[f32],
    m: &[f32],
    v: &[f32],
    gen_round: u64,
    opt_t: u64,
) -> DataProto {
    let tc = ctx.coords();
    let spec = &ctx.layout.spec;
    let mp = spec.mp();
    let mp_pos = tc.p_idx * spec.t + tc.t_idx;
    let total = params.len();
    let padded = total.div_ceil(mp);
    let start = (mp_pos * padded).min(total);
    let end = ((mp_pos + 1) * padded).min(total);
    let len = end - start;
    let owner = tc.d_idx == 0;
    let mut out = DataProto::with_rows(1);
    for (name, src) in [("shard_params", params), ("shard_m", m), ("shard_v", v)] {
        let mut row = src[start..end].to_vec();
        row.resize(padded, 0.0);
        out.insert_f32(name, row, padded);
    }
    out.insert_f32(
        "shard_meta",
        vec![
            ctx.rank as f32,
            start as f32,
            len as f32,
            if owner { 1.0 } else { 0.0 },
            total as f32,
            gen_round as f32,
            opt_t as f32,
        ],
        7,
    );
    out
}

/// The actor model class: generation, log-probs, pre-train loss, PPO
/// updates (Table 4).
pub struct ActorWorker {
    lm: TinyLm,
    opt: Adam,
    hyper: WorkerHyper,
    gen_round: u64,
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
            ..GenConfig::default()
        });
        ActorWorker {
            lm,
            opt,
            hyper,
            gen_round: 0,
            gen_engine: None,
            genserve,
            weights_dirty: true,
        }
    }

    /// Read access to the underlying LM (for checkpoint tests).
    pub fn lm(&self) -> &TinyLm {
        &self.lm
    }

    /// The generation RNG round (the ZeRO wrapper snapshots it into its
    /// own `save_shard` reply).
    pub(crate) fn gen_round(&self) -> u64 {
        self.gen_round
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
        let my_shard = train_shard(&gen.train, ctx.rank, layout.layers());
        let mut buf = Vec::with_capacity(layout.shard_params(&my_shard));
        for r in layout.ranges(&my_shard) {
            buf.extend_from_slice(&blocks[r]);
        }
        let mut engine = hf_hybridengine::HybridEngineRank::new(ctx.rank, gen, layout.clone(), buf);
        let mut clock = ctx.clock;
        let track = hf_telemetry::gpu_track(ctx.device.index());
        let gathered = if pipelined {
            // Overlap-aware entry: the all-gather is modeled as having
            // started when the controller dispatched this generation
            // call, hiding it behind the tail of the previous train
            // step still draining from this rank's mailbox.
            engine
                .to_generation_overlapped(
                    micro,
                    &mut clock,
                    &ctx.telemetry,
                    &track,
                    ctx.cause,
                    ctx.dispatch_time,
                )
                .to_vec()
        } else {
            engine
                .to_generation_traced(micro, &mut clock, &ctx.telemetry, &track, ctx.cause)
                .to_vec()
        };
        ctx.clock = clock;
        // The gathered generation shard must equal the model's own slice.
        let gshard = hf_parallel::shard::gen_shard(&gen, ctx.rank, layout.layers());
        let mut expect = Vec::with_capacity(gathered.len());
        for r in layout.ranges(&gshard) {
            expect.extend_from_slice(&blocks[r]);
        }
        if gathered != expect {
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
        let pipelined = data.meta.get(PIPELINE_META).map(String::as_str) == Some("1");
        // Reshard training → generation weights before generating.
        self.hybrid_engine_transition(ctx, pipelined)?;
        // One logical generation = one round. The pipelined driver
        // splits a round into several calls and pins the round via meta
        // so chunk seeds match the single synchronous call exactly. A
        // call that turns its chunk down below still spent the round, on
        // every rank alike.
        match data.meta.get(GEN_ROUND_META).and_then(|s| s.parse::<u64>().ok()) {
            Some(round) => self.gen_round = round,
            None => self.gen_round += 1,
        }
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;
        let resp_len: usize =
            data.meta.get("response_len").and_then(|s| s.parse().ok()).ok_or_else(|| {
                CoreError::Data("generate_sequences needs response_len meta".into())
            })?;
        let greedy = data.meta.get("greedy").map(String::as_str) == Some("1");
        let stop_tokens: Vec<usize> = data
            .meta
            .get("stop_tokens")
            .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
            .unwrap_or_default();
        let pad_token: usize = data.meta.get("pad_token").and_then(|s| s.parse().ok()).unwrap_or(0);
        if pad_token >= vocab {
            return Err(CoreError::Config(format!(
                "pad_token {pad_token} is outside the model's vocabulary of {vocab}"
            )));
        }

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
        let row0: usize =
            data.meta.get(hf_core::ROW_OFFSET_META).and_then(|s| s.parse().ok()).unwrap_or(0);
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
        // Engine metrics are tagged with their consumer (`rollout` —
        // the training job's generation; hf-serve tenants use
        // `tenant<k>`) so co-located serving + training runs stay
        // attributable stream by stream.
        ctx.telemetry.add_counter("genserve.rollout.steps", report.steps);
        ctx.telemetry.add_counter("genserve.rollout.preemptions", report.preemptions);
        ctx.telemetry.add_counter("genserve.rollout.generated_tokens", report.generated_tokens);
        ctx.telemetry.add_counter("genserve.rollout.prefix_hit_tokens", report.prefix_hit_tokens);
        // Per-request time-to-first-token, from the engine's step
        // indices and the virtual step end times charged above
        // (BTreeMap order keeps the digest build deterministic).
        for &step in report.first_token_step.values() {
            if let Some(&t_first) = step_ends.get(step as usize) {
                ctx.telemetry.observe_digest("genserve.rollout.ttft_s", t_first - gen_t0);
            }
        }
        let gen_dt = ctx.clock.now() - gen_t0;
        if gen_dt > 0.0 {
            let tps = report.generated_tokens as f64 / gen_dt;
            ctx.telemetry.set_gauge("genserve.rollout.tokens_per_s", tps);
            ctx.telemetry.observe_digest("genserve.rollout.tokens_per_s", tps);
        }

        // Pad ragged responses to the fixed `resp_len` width and surface
        // the true per-sequence lengths as a `response_len` column.
        let mut responses: Vec<u32> = Vec::with_capacity(prompts.len() * resp_len);
        let mut lens: Vec<f32> = Vec::with_capacity(prompts.len());
        let mut logps: Vec<f32> = Vec::with_capacity(prompts.len() * resp_len);
        // A plain loop, not `mp_rows`: this method is dispatched by the
        // *generation* grouping, under which the training model-parallel
        // peers hold different rows (1-2-2 → 1-1-2-2).
        for (prompt, out) in prompts.iter().zip(&outs) {
            lens.push(out.tokens.len() as f32);
            let mut seq = prompt.clone();
            seq.extend_from_slice(&out.tokens);
            seq.resize(pw + resp_len, pad_token);
            let lp = self.lm.log_probs(&seq);
            logps.extend_from_slice(&lp[pw - 1..pw - 1 + resp_len]);
            responses.extend(out.tokens.iter().map(|&t| t as u32));
            responses.extend(std::iter::repeat_n(pad_token as u32, resp_len - out.tokens.len()));
        }
        let mut out = data.clone();
        out.insert_tokens("responses", responses, resp_len);
        out.insert_f32("logp_old", logps, resp_len);
        out.insert_f32("response_len", lens, 1);
        Ok(out)
    }

    fn compute_log_prob(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let mut out = DataProto::with_rows(prompts.len());
        let tp = self.hyper.tp_inference && ctx.layout.spec.mp() > 1;
        if tp
            && (!self.lm.cfg.ffn.is_multiple_of(ctx.layout.spec.t)
                || !self.lm.cfg.layers.is_multiple_of(ctx.layout.spec.p))
        {
            return Err(CoreError::Config("tp_inference requires t | ffn and p | layers".into()));
        }
        let seqs = sequences(&prompts, &resps);
        let logps = if tp {
            // This rank's Megatron-style shard, cut once for the whole
            // chunk: every peer runs every row, each on its own shard.
            let (tc, spec) = (ctx.coords(), ctx.layout.spec);
            let shard = hf_nn::ShardedLm::from_full(&self.lm, tc.p_idx, spec.p, tc.t_idx, spec.t);
            let mut logps = Vec::with_capacity(seqs.len() * rw);
            for seq in &seqs {
                let lp = Self::tp_log_probs(&shard, seq, ctx);
                logps.extend_from_slice(&lp[pw - 1..pw - 1 + rw]);
                charge_tokens(ctx, seq.len(), &self.hyper);
            }
            logps
        } else {
            response_log_probs(&self.lm, &self.hyper, ctx, &seqs, rw)
        };
        out.insert_f32("cur_logp", logps, rw);
        Ok(out)
    }

    /// Next-token log-probs computed with genuine 2-D model parallelism:
    /// this rank's `shard` runs the forward; TP partials
    /// join through real all-reduces over the TP communicator, pipeline
    /// stages hand activations point-to-point (every model-parallel peer
    /// executes the same sequence in lock-step since the protocol gave
    /// the whole group one chunk). Non-final stages contribute zeros;
    /// the `3D_PROTO` collect reads from the last stage.
    fn tp_log_probs(shard: &hf_nn::ShardedLm, seq: &[usize], ctx: &mut RankCtx) -> Vec<f32> {
        let tc = ctx.coords();
        let mut clock = ctx.clock;
        // Stage input: embed on stage 0, receive activations otherwise.
        let h_in = if tc.p_idx == 0 {
            shard.embed(&seq[..seq.len() - 1])
        } else {
            let prev = ctx.comms.pp.group().devices()[tc.p_idx - 1];
            let (rows, cols, data): (usize, usize, Vec<f32>) =
                ctx.p2p.recv(&mut clock, prev, ctx.device);
            hf_nn::Tensor::new(data, rows, cols)
        };
        let out =
            shard.forward_stage(h_in, |partial| ctx.comms.tp.all_reduce_sum(&mut clock, partial));
        let lps = match out {
            hf_nn::StageOutput::Hidden(h) => {
                let next = ctx.comms.pp.group().devices()[tc.p_idx + 1];
                let bytes = (h.len() * 4) as f64;
                ctx.p2p.send(
                    &clock,
                    ctx.device,
                    next,
                    (h.rows(), h.cols(), h.data().to_vec()),
                    bytes,
                );
                vec![0.0; seq.len() - 1]
            }
            hf_nn::StageOutput::Final { logits, .. } => {
                // log softmax + gather next tokens, matching
                // `TinyLm::log_probs`.
                let mut lps = Vec::with_capacity(seq.len() - 1);
                for (t, &tok) in seq[1..].iter().enumerate() {
                    let row = logits.row(t);
                    let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let z: f32 = row.iter().map(|v| (v - m).exp()).sum();
                    lps.push((row[tok] - m) - z.ln());
                }
                lps
            }
        };
        ctx.clock = clock;
        lps
    }

    /// Pre-training cross-entropy over a `pretrain` token column (the
    /// PPO-ptx / Safe-RLHF auxiliary loss), no update.
    fn compute_loss(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let (rows, _w) = token_rows(&data, "pretrain", self.lm.cfg.vocab)?;
        let means = mp_rows(ctx, rows.len(), |i| {
            let seq = &rows[i];
            let mut fp = self.lm.forward(&seq[..seq.len() - 1]);
            let lp = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
            let mean = fp.tape.mean_all(lp);
            fp.tape.value(mean).get(0, 0)
        });
        let mut total = 0.0f32;
        for (seq, mean) in rows.iter().zip(means) {
            total -= mean;
            charge_tokens(ctx, seq.len(), &self.hyper);
        }
        Ok(metrics(&[("ptx_loss", total / rows.len().max(1) as f32)]))
    }

    fn ptx_grad(&self, seq: &[usize]) -> (Vec<f32>, f32) {
        let mut fp = self.lm.forward(&seq[..seq.len() - 1]);
        let lp = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
        let mean = fp.tape.mean_all(lp);
        let loss = fp.tape.scale(mean, -1.0);
        let val = fp.tape.value(loss).get(0, 0);
        (fp.backward(loss), val)
    }

    /// Computes the *unscaled* PPO(+ptx) gradient sum over this rank's
    /// chunk plus the chunk's row count, without synchronizing or
    /// applying it (shared by the replicated and ZeRO update paths).
    ///
    /// Per-row gradients combine in a balanced pairwise tree
    /// ([`hf_simcluster::tree_sum_parts`], the same association the DP
    /// collectives use for rank contributions) and the mean is taken by
    /// ONE division by the *global* row count after synchronization.
    /// The old mean-per-rank-then-average-ranks pipeline (left-fold sum,
    /// `/local_count`, all-reduce, `/d`) had a layout-dependent float
    /// association *and* mis-weighted rows under unequal chunks — both
    /// caught by the hf-audit differential oracle.
    pub(crate) fn actor_grads(
        &mut self,
        data: &DataProto,
        ctx: &mut RankCtx,
    ) -> Result<(Vec<f32>, f32, DataProto)> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = release_peers(ctx, token_rows(data, "prompts", vocab))?;
        let (resps, rw) = release_peers(ctx, token_rows(data, "responses", vocab))?;
        let (old_logps, _) = f32_rows(data, "logp_old")?;
        let (advs, _) = f32_rows(data, "advantages")?;
        let ptx_coef: f32 = data.meta.get("ptx_coef").and_then(|s| s.parse().ok()).unwrap_or(0.0);

        let n = self.lm.cfg.param_count();
        let seqs = sequences(&prompts, &resps);
        let rows = mp_rows(ctx, seqs.len(), |i| {
            let seq = &seqs[i];
            let mut fp = self.lm.forward(&seq[..seq.len() - 1]);
            let lp_all = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
            let lp_resp = fp.tape.slice_rows(lp_all, pw - 1, pw - 1 + rw);
            let ppo = fp.tape.ppo_clip_loss(lp_resp, &old_logps[i], &advs[i], self.hyper.clip);
            let logits_resp = fp.tape.slice_rows(fp.logits, pw - 1, pw - 1 + rw);
            let ent = fp.tape.mean_entropy(logits_resp);
            let ent_term = fp.tape.scale(ent, -self.hyper.entropy_coef);
            let loss = fp.tape.add(ppo, ent_term);
            let (ppo, ent) = (fp.tape.value(ppo).get(0, 0), fp.tape.value(ent).get(0, 0));
            (fp.backward(loss), ppo, ent)
        });
        let mut row_grads: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
        let mut loss_acc = 0.0f32;
        let mut ent_acc = 0.0f32;
        for (seq, (grad, ppo, ent)) in seqs.iter().zip(rows) {
            loss_acc += ppo;
            ent_acc += ent;
            row_grads.push(grad);
            charge_tokens(ctx, seq.len() * 3, &self.hyper);
        }
        let count = prompts.len() as f32;
        let denom = prompts.len().max(1) as f32;
        let mut ptx_loss = 0.0f32;
        if ptx_coef > 0.0 && data.has("pretrain") {
            let (pre, _w) = release_peers(ctx, token_rows(data, "pretrain", vocab))?;
            // Scaled so the global division by the total row count
            // reproduces `ptx_coef × mean(ptx grads)` when chunks are
            // equal-sized.
            let scale = ptx_coef / pre.len() as f32 * denom;
            let ptx_rows = mp_rows(ctx, pre.len(), |i| {
                let (mut g, l) = self.ptx_grad(&pre[i]);
                for gi in g.iter_mut() {
                    *gi *= scale;
                }
                (g, l)
            });
            for (seq, (g, l)) in pre.iter().zip(ptx_rows) {
                ptx_loss += l;
                row_grads.push(g);
                charge_tokens(ctx, seq.len() * 3, &self.hyper);
            }
            ptx_loss /= pre.len().max(1) as f32;
        }
        let grad_sum =
            if row_grads.is_empty() { vec![0.0f32; n] } else { tree_sum_parts(row_grads) };
        let m = metrics(&[
            ("actor_loss", loss_acc / denom),
            ("entropy", ent_acc / denom),
            ("ptx_loss", ptx_loss),
        ]);
        Ok((grad_sum, count, m))
    }

    fn update_actor(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        if let Some(mut engine) = self.gen_engine.take() {
            // Generation → training under the strided grouping is the
            // zero-redundancy copy-back: no communication, no virtual
            // time. The engine records it as an instantaneous marker so
            // traces show where the mode flips.
            engine.to_training_traced(&ctx.clock, &ctx.telemetry, &ctx.gpu_track(), ctx.cause);
        }
        let (mut grad, count, m) = self.actor_grads(&data, ctx)?;
        let mut total = count;
        // Data-parallel gradient synchronization (real collective). The
        // row count rides along as a trailing element so one collective
        // carries both; counts are small integers, exact in f32.
        if ctx.comms.dp.size() > 1 {
            let mut clock = ctx.clock;
            grad.push(count);
            let mut summed = ctx.comms.dp.all_reduce_sum(&mut clock, &grad);
            ctx.clock = clock;
            total = summed.pop().expect("count element");
            grad = summed;
        }
        let denom = total.max(1.0);
        for g in grad.iter_mut() {
            *g /= denom;
        }
        self.opt.step(self.lm.flat_mut(), &grad);
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
            "save_checkpoint" => Ok({
                let mut out = DataProto::with_rows(1);
                out.insert_f32("params", self.lm.flat().to_vec(), self.lm.flat().len());
                // §9 fault tolerance: checksum against silent corruption,
                // plus the RNG round so recovery reproduces sampling.
                let (m, v, t) = self.opt.state();
                out.insert_f32("opt_m", m.to_vec(), m.len());
                out.insert_f32("opt_v", v.to_vec(), v.len());
                out.meta
                    .insert("checksum".into(), format!("{:016x}", param_checksum(self.lm.flat())));
                out.meta.insert("gen_round".into(), self.gen_round.to_string());
                out.meta.insert("opt_t".into(), t.to_string());
                out
            }),
            "save_shard" => {
                let (m, v, t) = self.opt.state();
                Ok(shard_reply(ctx, self.lm.flat(), m, v, self.gen_round, t))
            }
            "load_checkpoint" => {
                let (params, _) = data.f32("params")?;
                if params.len() != self.lm.flat().len() {
                    return Err(CoreError::Data("checkpoint size mismatch".into()));
                }
                if let Some(expect) = data.meta.get("checksum") {
                    let got = format!("{:016x}", param_checksum(params));
                    if &got != expect {
                        return Err(CoreError::Data(format!(
                            "checkpoint checksum mismatch: stored {expect}, computed {got}                              (silent data corruption)"
                        )));
                    }
                }
                if let Some(round) = data.meta.get("gen_round").and_then(|s| s.parse().ok()) {
                    self.gen_round = round;
                }
                if data.has("opt_m") && data.has("opt_v") {
                    let (m, _) = data.f32("opt_m")?;
                    let (v, _) = data.f32("opt_v")?;
                    let t = data.meta.get("opt_t").and_then(|s| s.parse().ok()).unwrap_or(0);
                    self.opt.load_state(m, v, t);
                }
                self.lm.flat_mut().copy_from_slice(params);
                self.weights_dirty = true;
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

    fn response_values(&self, prompt: &[usize], resp: &[usize]) -> Vec<f32> {
        let mut seq = prompt.to_vec();
        seq.extend_from_slice(resp);
        let vals = self.lm.values(&seq);
        vals[prompt.len() - 1..prompt.len() - 1 + resp.len()].to_vec()
    }

    /// Per-position values under real tensor parallelism (p = 1 path;
    /// the critic's preparation pass is a single forward, so only the TP
    /// dimension is sharded here).
    fn tp_response_values(
        shard: &hf_nn::ShardedLm,
        prompt: &[usize],
        resp: &[usize],
        ctx: &mut RankCtx,
    ) -> Vec<f32> {
        let mut seq = prompt.to_vec();
        seq.extend_from_slice(resp);
        let h = shard.embed(&seq);
        let mut clock = ctx.clock;
        let out =
            shard.forward_stage(h, |partial| ctx.comms.tp.all_reduce_sum(&mut clock, partial));
        ctx.clock = clock;
        let hf_nn::StageOutput::Final { values, .. } = out else {
            unreachable!("single-stage forward finalizes")
        };
        values.data()[prompt.len() - 1..prompt.len() - 1 + resp.len()].to_vec()
    }

    fn compute_values(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, _pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let tp = self.hyper.tp_inference
            && ctx.layout.spec.t > 1
            && ctx.layout.spec.p == 1
            && self.lm.cfg.ffn.is_multiple_of(ctx.layout.spec.t);
        // This rank's tensor shard, cut once for the whole chunk.
        let shard = tp.then(|| {
            hf_nn::ShardedLm::from_full(&self.lm, 0, 1, ctx.coords().t_idx, ctx.layout.spec.t)
        });
        let mut out = DataProto::with_rows(prompts.len());
        let values = match &shard {
            Some(shard) => {
                // Every peer runs every row, each on its own tensor shard.
                let mut values = Vec::with_capacity(prompts.len() * rw);
                for (p, r) in prompts.iter().zip(resps.iter()) {
                    values.extend(Self::tp_response_values(shard, p, r, ctx));
                    charge_tokens(ctx, p.len() + r.len(), &self.hyper);
                }
                values
            }
            None => {
                let rows =
                    mp_rows(ctx, prompts.len(), |i| self.response_values(&prompts[i], &resps[i]));
                for (p, r) in prompts.iter().zip(resps.iter()) {
                    charge_tokens(ctx, p.len() + r.len(), &self.hyper);
                }
                rows.concat()
            }
        };
        out.insert_f32("values", values, rw);
        Ok(out)
    }

    fn update_critic(&mut self, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let vocab = self.lm.cfg.vocab;
        let (prompts, pw) = release_peers(ctx, token_rows(&data, "prompts", vocab))?;
        let (resps, rw) = release_peers(ctx, token_rows(&data, "responses", vocab))?;
        let (returns, _) = f32_rows(&data, "returns")?;
        let (old_values, _) = f32_rows(&data, "values")?;
        let n = self.lm.cfg.param_count();
        let seqs = sequences(&prompts, &resps);
        let rows = mp_rows(ctx, seqs.len(), |i| {
            let mut fp = self.lm.forward(&seqs[i]);
            let v_resp = fp.tape.slice_rows(fp.values, pw - 1, pw - 1 + rw);
            let loss =
                fp.tape.value_clip_loss(v_resp, &returns[i], &old_values[i], self.hyper.vclip);
            let value = fp.tape.value(loss).get(0, 0);
            (fp.backward(loss), value)
        });
        let mut row_grads: Vec<Vec<f32>> = Vec::with_capacity(rows.len());
        let mut loss_acc = 0.0f32;
        for (seq, (grad, loss)) in seqs.iter().zip(rows) {
            loss_acc += loss;
            row_grads.push(grad);
            charge_tokens(ctx, seq.len() * 3, &self.hyper);
        }
        // Same layout-invariant reduction as the actor: balanced
        // pairwise-tree row sums, one division by the global row count.
        let count = prompts.len() as f32;
        let denom_local = prompts.len().max(1) as f32;
        let mut grad_acc =
            if row_grads.is_empty() { vec![0.0f32; n] } else { tree_sum_parts(row_grads) };
        let mut total = count;
        if ctx.comms.dp.size() > 1 {
            let mut clock = ctx.clock;
            grad_acc.push(count);
            let mut summed = ctx.comms.dp.all_reduce_sum(&mut clock, &grad_acc);
            ctx.clock = clock;
            total = summed.pop().expect("count element");
            grad_acc = summed;
        }
        let denom = total.max(1.0);
        for g in grad_acc.iter_mut() {
            *g /= denom;
        }
        self.opt.step(self.lm.flat_mut(), &grad_acc);
        Ok(metrics(&[("critic_loss", loss_acc / denom_local)]))
    }
}

impl Worker for CriticWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        match method {
            "compute_values" => self.compute_values(data, ctx),
            "update_critic" => self.update_critic(data, ctx),
            "save_checkpoint" => Ok({
                let mut out = DataProto::with_rows(1);
                out.insert_f32("params", self.lm.flat().to_vec(), self.lm.flat().len());
                let (m, v, t) = self.opt.state();
                out.insert_f32("opt_m", m.to_vec(), m.len());
                out.insert_f32("opt_v", v.to_vec(), v.len());
                out.meta
                    .insert("checksum".into(), format!("{:016x}", param_checksum(self.lm.flat())));
                out.meta.insert("opt_t".into(), t.to_string());
                out
            }),
            "save_shard" => {
                let (m, v, t) = self.opt.state();
                Ok(shard_reply(ctx, self.lm.flat(), m, v, 0, t))
            }
            "load_checkpoint" => {
                let (params, _) = data.f32("params")?;
                if params.len() != self.lm.flat().len() {
                    return Err(CoreError::Data("checkpoint size mismatch".into()));
                }
                if let Some(expect) = data.meta.get("checksum") {
                    let got = format!("{:016x}", param_checksum(params));
                    if &got != expect {
                        return Err(CoreError::Data(
                            "checkpoint checksum mismatch (silent data corruption)".into(),
                        ));
                    }
                }
                if data.has("opt_m") && data.has("opt_v") {
                    let (m, _) = data.f32("opt_m")?;
                    let (v, _) = data.f32("opt_v")?;
                    let t = data.meta.get("opt_t").and_then(|s| s.parse().ok()).unwrap_or(0);
                    self.opt.load_state(m, v, t);
                }
                self.lm.flat_mut().copy_from_slice(params);
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
        let (prompts, _pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let mut out = DataProto::with_rows(prompts.len());
        let seqs = sequences(&prompts, &resps);
        let logps = response_log_probs(&self.lm, &self.hyper, ctx, &seqs, rw);
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

    fn score(&self, prompt: &[usize], resp: &[usize], resp_u32: &[u32]) -> f32 {
        match &self.kind {
            RewardKind::RuleBased { good_tokens } => {
                let hits = resp_u32.iter().filter(|t| good_tokens.contains(t)).count();
                hits as f32 / resp.len().max(1) as f32
            }
            RewardKind::Neural { .. } => {
                let mut seq = prompt.to_vec();
                seq.extend_from_slice(resp);
                let vals = self.lm.as_ref().expect("neural reward has an LM").values(&seq);
                *vals.last().expect("non-empty sequence")
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
        let vocab = self.lm.as_ref().map_or(usize::MAX, |lm| lm.cfg.vocab);
        let (prompts, _pw) = token_rows(&data, "prompts", vocab)?;
        let (resps, rw) = token_rows(&data, "responses", vocab)?;
        let (resp_raw, _) = data.tokens("responses")?;
        let mut out = DataProto::with_rows(prompts.len());
        let scores = mp_rows(ctx, prompts.len(), |i| {
            self.score(&prompts[i], &resps[i], &resp_raw[i * rw..(i + 1) * rw])
        });
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
                        let rows = mp_rows(ctx, data.rows(), |i| {
                            vec![(i * i) as f32 + 0.5, ctx.comms.mp.rank() as f32]
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
}
