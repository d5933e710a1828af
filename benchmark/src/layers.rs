//! The traced run: per-layer metrics, each taken from outside by timing
//! calls into a layer's public functions at the workload's own shapes
//! (its `LmConfig`, layout, per-rank batch and experience batch).
//!
//! Order of a traced run: the same iterations untraced and traced in
//! alternating blocks (their difference is the tracing overhead), the insight
//! analysis of the traced pass's virtual spans, a stage replay, then one
//! probe per layer. Host figures are medians on the reference clock
//! (`calibrate::RefClock`: host time at the reference speed); every probe
//! is boxed to a share of `--seconds` of plain host time.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hybridflow::core::{
    physical_copy_bytes, Controller, CoreError, DataProto, Protocol, RankCtx, Result, Worker,
};
use hybridflow::genserve::{GenConfig, GenRequest, GenServer};
use hybridflow::hybridengine::{transition_metrics, EngineMode, HybridEngineRank};
use hybridflow::insight::{analyze_iterations, SpanGraph};
use hybridflow::mapping::{AlgoKind, DataflowSpec, Mapper};
use hybridflow::modelspec::{ModelConfig, PerfModel, RlhfWorkload};
use hybridflow::nn::{Adam, ShardedLm, TinyLm};
use hybridflow::parallel::shard::train_shard;
use hybridflow::parallel::{GroupingMethod, ParallelSpec, ShardLayout};
use hybridflow::resilience::CheckpointStore;
use hybridflow::rewards::{splitmix, EvalItem, PoolConfig, SandboxPool, VerifierSpec};
use hybridflow::rlhf::{restore_system_checkpoint, save_system_checkpoint, RewardSource};
use hybridflow::simcluster::{
    ClusterSpec, CommCostModel, CommGroup, Communicator, DeviceId, VirtualClock,
};
use hybridflow::telemetry::{SpanRecord, Telemetry};

use crate::calibrate::{RefClock, Sampler};
use crate::e2e::ScratchDir;
use crate::json::Json;
use crate::recorder::Recorder;
use crate::replay::{self, StageTimes};
use crate::stats::{mean, median, summarize};
use crate::workloads::{finite, Driver, Session, StepOutcome, Workload, MODEL_SEED};

/// Everything one traced run measured.
pub struct TraceReport {
    /// `(metric name, value)` for every per-layer metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Traced iterations plus checks made.
    pub attempted: u64,
    /// One line per failed iteration or check.
    pub failures: Vec<String>,
    /// Sample counts and other context, one line each.
    pub notes: Vec<String>,
}

/// Runs `f` until `budget_s` of host time has passed and at least `min`
/// samples exist, stopping early at `max`. Returns each call's duration
/// in µs on the reference clock `host`.
fn timed(host: &RefClock, budget_s: f64, min: usize, max: usize, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max && (samples.len() < min || start.elapsed().as_secs_f64() < budget_s) {
        let t0 = host.now();
        f();
        samples.push((host.now() - t0) * 1e6);
    }
    samples
}

/// The prompt+response token rows of an experience batch.
fn sequences(batch: &DataProto) -> Result<Vec<Vec<usize>>> {
    let (prompts, pw) = batch.tokens("prompts")?;
    let (resps, rw) = batch.tokens("responses")?;
    Ok(prompts
        .chunks(pw)
        .zip(resps.chunks(rw))
        .map(|(p, r)| p.iter().chain(r).map(|&t| t as usize).collect())
        .collect())
}

/// Direct `TinyLm` calls on one thread.
struct NnProbe {
    fwd_bwd_us_per_token: f64,
    forward_us_per_token: f64,
    adam_us_per_kparam: f64,
}

fn nn_probe(host: &RefClock, lm: &TinyLm, seqs: &[Vec<usize>], budget_s: f64) -> NnProbe {
    let per_call = seqs[0].len() as f64;
    let mut next = 0usize;
    let mut pick = || {
        next = (next + 1) % seqs.len();
        &seqs[next]
    };
    let fwd_bwd = timed(host, budget_s, 20, 2000, || {
        let seq = pick();
        let mut fp = lm.forward(&seq[..seq.len() - 1]);
        let lp = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
        let loss = fp.tape.mean_all(lp);
        std::hint::black_box(fp.backward(loss));
    });
    let forward = timed(host, budget_s, 20, 2000, || {
        std::hint::black_box(lm.log_probs(pick()));
    });
    let n = lm.flat().len();
    let mut params = lm.flat().to_vec();
    let grads = vec![1e-3f32; n];
    let mut opt = Adam::new(n, 1e-3);
    let adam = timed(host, budget_s / 2.0, 20, 2000, || opt.step(&mut params, &grads));
    NnProbe {
        fwd_bwd_us_per_token: median(&fwd_bwd) / per_call,
        forward_us_per_token: median(&forward) / per_call,
        adam_us_per_kparam: median(&adam) / (n as f64 / 1e3),
    }
}

/// One rank's share of a tensor-parallel inference pass, as the workers
/// run it: its Megatron-style shard cut from the full model, then the
/// stage forward. The joins of TP partials are counted, not performed.
struct TpProbe {
    forward_us_per_token: f64,
    joins_per_sequence: f64,
}

fn tp_probe(
    host: &RefClock,
    lm: &TinyLm,
    seqs: &[Vec<usize>],
    spec: &ParallelSpec,
    budget_s: f64,
) -> TpProbe {
    let (mut next, mut joins) = (0usize, 0usize);
    let forwards = timed(host, budget_s, 20, 2000, || {
        next = (next + 1) % seqs.len();
        let seq = &seqs[next];
        let shard = ShardedLm::from_full(lm, 0, spec.p, 0, spec.t);
        let h = shard.embed(&seq[..seq.len() - 1]);
        std::hint::black_box(shard.forward_stage(h, |partial| {
            joins += 1;
            partial.to_vec()
        }));
    });
    TpProbe {
        forward_us_per_token: median(&forwards) / seqs[0].len() as f64,
        joins_per_sequence: joins as f64 / forwards.len() as f64,
    }
}

/// `decode_step_batch` fed the batch sizes a generation session used,
/// step by step: the nn work inside that session.
fn nn_decode_equivalent(lm: &TinyLm, batches: &[usize]) {
    let widest = batches.iter().copied().max().unwrap_or(0);
    let mut states: Vec<_> = (0..widest).map(|_| lm.decode_start()).collect();
    for (step, &b) in batches.iter().enumerate() {
        let tokens: Vec<usize> = (0..b).map(|lane| (step + lane) % lm.cfg.vocab).collect();
        let mut refs: Vec<_> = states.iter_mut().take(b).collect();
        std::hint::black_box(lm.decode_step_batch(&mut refs, &tokens));
    }
}

/// A standalone `GenServer` with the workload's `gen_*` hyper-parameters
/// and one rank's request set.
struct GenProbe {
    step_us_p50: f64,
    /// Engine time of one session (µs).
    session_us: f64,
    /// Time of the nn decode calls that session made (µs).
    nn_decode_us: f64,
    /// 1 − nn decode time ÷ engine time, the median over sessions each
    /// paired with its own decode replay (host speed drifts within a
    /// run, so the two are timed back to back).
    overhead_share: f64,
    /// Tokens decoded per session, prompt tokens included.
    lanes: usize,
    /// Tokens one session generated.
    generated: u64,
    steps_timed: usize,
}

fn genserve_probe(
    host: &RefClock,
    session: &Session,
    lm: &TinyLm,
    requests: usize,
    budget_s: f64,
) -> Result<GenProbe> {
    let hyper = &session.cfg.hyper;
    let mut server = GenServer::new(GenConfig {
        block_tokens: hyper.gen_block_tokens,
        cache_budget_bytes: hyper.gen_cache_budget,
        max_batch: hyper.gen_max_batch,
        ..GenConfig::default()
    });
    server.install_weights(lm);
    let prompts = session.prompts(0);
    let (toks, pw) = prompts.tokens("prompts")?;
    let rows: Vec<Vec<usize>> =
        toks.chunks(pw).map(|row| row.iter().map(|&t| t as usize).collect()).collect();
    let reqs: Vec<GenRequest> = (0..requests)
        .map(|i| GenRequest {
            prompt: rows[i % rows.len()].clone(),
            max_new_tokens: session.cfg.response_len,
            temperature: hyper.temperature,
            seed: splitmix(i as u64),
            stop_tokens: Vec::new(),
        })
        .collect();
    let (mut step_us, mut session_us, mut nn_us, mut overhead) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    let start = Instant::now();
    while session_us.len() < 3
        || (start.elapsed().as_secs_f64() < budget_s && step_us.len() < 20_000)
    {
        let t_session = host.now();
        let mut s =
            server.begin(&reqs).map_err(|e| CoreError::Worker(format!("genserve probe: {e}")))?;
        loop {
            let t0 = host.now();
            let more = s.step();
            step_us.push((host.now() - t0) * 1e6);
            if !more {
                break;
            }
        }
        let engine = (host.now() - t_session) * 1e6;
        let report = s.finish().1;
        let batches: Vec<usize> = report.traces.iter().map(|t| t.batch).collect();
        let t_nn = host.now();
        nn_decode_equivalent(lm, &batches);
        let nn = (host.now() - t_nn) * 1e6;
        session_us.push(engine);
        nn_us.push(nn);
        overhead.push(1.0 - nn / engine);
        last = Some((report, batches));
    }
    let (report, batches) = last.expect("at least three sessions ran");
    Ok(GenProbe {
        step_us_p50: median(&step_us),
        session_us: median(&session_us),
        nn_decode_us: median(&nn_us),
        overhead_share: median(&overhead),
        lanes: batches.iter().sum(),
        generated: report.generated_tokens,
        steps_timed: step_us.len(),
    })
}

/// A worker that returns its input: a call through it costs dispatch,
/// mailbox and collect only.
struct Echo;

impl Worker for Echo {
    fn execute(&mut self, _method: &str, data: DataProto, _ctx: &mut RankCtx) -> Result<DataProto> {
        Ok(data)
    }
}

struct CoreProbe {
    noop_call_us_p50: f64,
    split_merge_us: f64,
    calls: usize,
}

fn core_probe(
    host: &RefClock,
    session: &Session,
    batch: &DataProto,
    budget_s: f64,
) -> Result<CoreProbe> {
    let actor = &session.sys.actor;
    let layout = *actor.layout();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(session.workload.gpus));
    let group = ctrl.spawn_group("noop", actor.pool(), layout, |_| Box::new(Echo))?;
    let mut failed = None;
    let calls = timed(host, budget_s, 50, 5000, || {
        if let Err(e) = group.call_sync("noop", batch, Protocol::ThreeD) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let split_merge = timed(host, budget_s / 2.0, 50, 5000, || {
        let parts = Protocol::ThreeD.distribute(&layout, batch).expect("distribute");
        std::hint::black_box(Protocol::ThreeD.collect(&layout, parts).expect("collect"));
    });
    ctrl.shutdown()?;
    Ok(CoreProbe {
        noop_call_us_p50: median(&calls),
        split_merge_us: median(&split_merge),
        calls: calls.len(),
    })
}

/// Runs `f(rank, communicator)` on one long-lived thread per rank of
/// `groups` (each inner vector one rendezvous group) and returns rank
/// 0's result.
fn on_rank_threads<T: Send>(
    gpus: usize,
    groups: &[Vec<usize>],
    f: impl Fn(usize, Communicator) -> T + Sync,
) -> T {
    let cluster = Arc::new(ClusterSpec::a100_with_gpus(gpus));
    let cost = CommCostModel::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ranks in groups {
            let group = CommGroup::new(ranks.iter().map(|&r| DeviceId(r)).collect());
            for (pos, &rank) in ranks.iter().enumerate() {
                let comm = Communicator::new(group.clone(), pos, cluster.clone(), cost.clone());
                let f = &f;
                handles.push((rank, scope.spawn(move || f(rank, comm))));
            }
        }
        let mut rank0 = None;
        for (rank, h) in handles {
            let value = h.join().expect("probe rank thread panicked");
            if rank == 0 {
                rank0 = Some(value);
            }
        }
        rank0.expect("rank 0 belongs to a group")
    })
}

const COLLECTIVE_ROUNDS: usize = 200;

struct CollectiveProbe {
    allreduce_us_p50: f64,
    barrier_us_p50: f64,
    allreduce_virtual_us: f64,
}

/// One thread per rank of `groups`, all-reducing `payload` f32 inside its
/// group, every group at once — the rendezvous an update (data-parallel
/// groups, a gradient) or a TP inference pass (TP groups, one sequence's
/// activations) performs.
fn collective_probe(
    host: &RefClock,
    gpus: usize,
    groups: &[Vec<usize>],
    payload: usize,
) -> CollectiveProbe {
    let (allreduce, barrier, virtual_us) = on_rank_threads(gpus, groups, |rank, comm| {
        let data = vec![rank as f32; payload];
        let mut clock = VirtualClock::new();
        let mut allreduce = Vec::with_capacity(COLLECTIVE_ROUNDS);
        let mut virtual_us = 0.0;
        for round in 0..COLLECTIVE_ROUNDS {
            let (t0, v0) = (host.now(), clock.now());
            std::hint::black_box(comm.all_reduce_sum(&mut clock, &data));
            allreduce.push((host.now() - t0) * 1e6);
            if round == 0 {
                virtual_us = (clock.now() - v0) * 1e6;
            }
        }
        let mut barrier = Vec::with_capacity(COLLECTIVE_ROUNDS);
        for _ in 0..COLLECTIVE_ROUNDS {
            let t0 = host.now();
            comm.barrier(&mut clock);
            barrier.push((host.now() - t0) * 1e6);
        }
        (allreduce, barrier, virtual_us)
    });
    CollectiveProbe {
        allreduce_us_p50: median(&allreduce),
        barrier_us_p50: median(&barrier),
        allreduce_virtual_us: virtual_us,
    }
}

#[derive(Default)]
struct EngineProbe {
    transition_us_p50: f64,
    transition_virtual_us: f64,
    transition_bytes: f64,
}

/// `to_generation` + `to_training` across the actor's ranks, each on its
/// own thread inside its micro-DP group. A layout without a strided
/// generation grouping performs no transition: all zeros.
fn hybridengine_probe(host: &RefClock, session: &Session, lm: &TinyLm) -> EngineProbe {
    let Some(gen) = session.sys.actor.layout().gen.filter(|g| g.method == GroupingMethod::Strided)
    else {
        return EngineProbe::default();
    };
    let shards = ShardLayout::uniform(lm.cfg.layers, lm.cfg.block_size());
    let blocks = lm.block_region();
    let (host_us, virtual_us, bytes) =
        on_rank_threads(session.workload.gpus, &gen.micro_dp_groups(), |rank, comm| {
            let mine = train_shard(&gen.train, rank, shards.layers());
            let buf: Vec<f32> =
                shards.ranges(&mine).into_iter().flat_map(|r| blocks[r].iter().copied()).collect();
            let bytes = (comm.size() - 1) * buf.len() * 4;
            let mut engine = HybridEngineRank::new(rank, gen, shards.clone(), buf);
            let mut clock = VirtualClock::new();
            let mut host_us = Vec::with_capacity(COLLECTIVE_ROUNDS);
            let mut virtual_us = 0.0;
            for round in 0..COLLECTIVE_ROUNDS {
                let (t0, v0) = (host.now(), clock.now());
                std::hint::black_box(engine.to_generation(&comm, &mut clock).len());
                engine.to_training();
                host_us.push((host.now() - t0) * 1e6);
                if round == 0 {
                    virtual_us = (clock.now() - v0) * 1e6;
                }
            }
            (host_us, virtual_us, bytes as f64)
        });
    EngineProbe {
        transition_us_p50: median(&host_us),
        transition_virtual_us: virtual_us,
        transition_bytes: bytes,
    }
}

/// `SandboxPool::evaluate` over the batch's sequences, for a workload
/// whose reward is a verifier pool.
fn rewards_probe(
    host: &RefClock,
    spec: &VerifierSpec,
    pool: PoolConfig,
    batch: &DataProto,
    budget_s: f64,
) -> Result<f64> {
    let (prompts, pw) = batch.tokens("prompts")?;
    let (resps, rw) = batch.tokens("responses")?;
    let items: Vec<EvalItem> = prompts
        .chunks(pw)
        .zip(resps.chunks(rw))
        .enumerate()
        .map(|(row, (p, r))| EvalItem {
            task_seed: r
                .iter()
                .fold(splitmix(row as u64 ^ 0x5eed), |h, &t| splitmix(h ^ u64::from(t))),
            prompt: p.to_vec(),
            response: r.to_vec(),
        })
        .collect();
    let sandbox = SandboxPool::new(pool);
    let evals = timed(host, budget_s, 20, 2000, || {
        std::hint::black_box(sandbox.evaluate(spec, std::hint::black_box(&items)));
    });
    Ok(median(&evals) / items.len() as f64)
}

struct ResilienceProbe {
    save_ms_p50: f64,
    save_mib_per_s: f64,
    restore_ms: f64,
    ckpt_bytes: f64,
    restore_virtual_us: f64,
    saves: usize,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn resilience_probe(
    host: &RefClock,
    session: &Session,
    out: &Path,
    budget_s: f64,
) -> Result<ResilienceProbe> {
    let io = |e: std::io::Error| CoreError::Worker(format!("scratch dir: {e}"));
    let scratch =
        ScratchDir::new(out, &format!("ckpt-probe-{}", session.workload.name)).map_err(io)?;
    let store = CheckpointStore::new(scratch.path())?;
    let mut step = 0u64;
    let mut failed = None;
    let saves = timed(host, budget_s, 5, 200, || {
        step += 1;
        if let Err(e) = save_system_checkpoint(&store, &session.sys, &session.ctrl, step) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    let ckpt_bytes = dir_bytes(&scratch.path().join(format!("step-{step:06}"))) as f64;
    let fresh = Session::build(session.workload, 0, Telemetry::disabled())?;
    let v0 = fresh.ctrl.clock();
    let t0 = host.now();
    restore_system_checkpoint(&store, &fresh.sys, step)?;
    let restore_ms = (host.now() - t0) * 1e3;
    let save_ms_p50 = median(&saves) / 1e3;
    Ok(ResilienceProbe {
        save_ms_p50,
        save_mib_per_s: ckpt_bytes / (1024.0 * 1024.0) / (save_ms_p50 / 1e3),
        restore_ms,
        ckpt_bytes,
        restore_virtual_us: (fresh.ctrl.clock() - v0) * 1e6,
        saves: saves.len(),
    })
}

#[derive(Default)]
struct MappingProbe {
    search_ms_p50: f64,
    evals: f64,
    pruned: f64,
}

/// `Mapper::search` for PPO / llama-7b on 16 GPUs. It does not depend on
/// the workload, so only the one with `probes_mapping` times it.
fn mapping_probe(host: &RefClock, budget_s: f64) -> Result<MappingProbe> {
    let gpus = 16;
    let dataflow =
        DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
    let mut searches = Vec::new();
    let mut stats = None;
    let start = Instant::now();
    while searches.len() < 5 || (start.elapsed().as_secs_f64() < budget_s && searches.len() < 500) {
        // A fresh mapper per search: the strategy cache would otherwise
        // turn every search after the first into a lookup.
        let mapper =
            Mapper::new(PerfModel::new(ClusterSpec::a100_with_gpus(gpus)), dataflow.clone(), gpus);
        let t0 = host.now();
        let found = mapper.search();
        searches.push((host.now() - t0) * 1e3);
        if found.is_none() {
            return Err(CoreError::Worker("mapping probe: no feasible mapping".into()));
        }
        stats = Some(mapper.stats());
    }
    let stats = stats.expect("at least five searches ran");
    Ok(MappingProbe {
        search_ms_p50: median(&searches),
        evals: stats.evaluations as f64,
        pruned: stats.pruned as f64,
    })
}

/// Critical-path share by kind and mean device idle fraction, from the
/// program's own virtual-clock spans.
fn insight_metrics(spans: Vec<SpanRecord>) -> Vec<(&'static str, f64)> {
    const KINDS: [(&str, &str); 7] = [
        ("insight.cp_share.dispatch", "dispatch"),
        ("insight.cp_share.queue_wait", "queue_wait"),
        ("insight.cp_share.comm", "comm"),
        ("insight.cp_share.exec", "exec"),
        ("insight.cp_share.transition", "transition"),
        ("insight.cp_share.collect", "collect"),
        ("insight.cp_share.controller", "controller"),
    ];
    let iterations = analyze_iterations(&SpanGraph::build(spans));
    let total: f64 = iterations.iter().map(|it| it.duration()).sum();
    let mut out: Vec<(&'static str, f64)> = KINDS
        .iter()
        .map(|(metric, kind)| {
            let s: f64 = iterations.iter().filter_map(|it| it.by_kind.get(*kind)).sum();
            (*metric, if total > 0.0 { s / total } else { 0.0 })
        })
        .collect();
    let bubbles: Vec<f64> =
        iterations.iter().flat_map(|it| it.track_bubble.values().copied()).collect();
    out.push(("insight.bubble_share", mean(&bubbles)));
    out
}

/// Blocks of traced iterations, a tenth of the window each. The count is
/// fixed, not boxed by `--seconds`, so every count taken from the traced
/// iterations repeats exactly on any host; four blocks give a steady p50
/// without a trace file of hundreds of megabytes.
const TRACED_BLOCKS: usize = 4;

/// Runs closed-loop iterations `first..first + count`, one host span
/// each, and returns the per-iteration host times (ms).
fn traced_iterations(
    session: &mut Session,
    rec: &mut Recorder,
    first: usize,
    count: usize,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let mut ms = Vec::with_capacity(count);
    for i in first..first + count {
        rec.iter = i as u64;
        let (outcome, us) = rec.span("rlhf.iteration", "rlhf", |_| session.step());
        ms.push(us / 1e3);
        match outcome {
            StepOutcome::Ok(stats) => {
                if stats.is_some_and(|s| !finite(&s)) {
                    failures.push(format!("traced iteration {i}: non-finite loss"));
                }
            }
            StepOutcome::Failed(e) => {
                failures.push(format!("traced iteration {i}: {e}"));
                break;
            }
        }
    }
    ms
}

fn counter_sum(telemetry: &Telemetry, suffix: &str) -> f64 {
    let counters = telemetry.metrics().counters;
    counters
        .iter()
        .filter(|(k, _)| k.starts_with("protocol.") && k.ends_with(suffix))
        .map(|(_, v)| *v as f64)
        .sum()
}

/// Runs the traced pass of `workload` and writes `out/trace-<name>.json`.
pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<TraceReport> {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let sampler = Sampler::start();
    let host = &sampler.clock();
    let mut rec = Recorder::new(host.clone());

    // 1. The same iterations with telemetry disabled and recording, in
    //    alternating blocks so that a drift in host speed hits both
    //    alike; their p50s differ by what recording costs.
    let telemetry = Telemetry::with_span_capacity(1 << 20);
    let mut plain = Session::warmed_up(workload, seed, Telemetry::disabled())?;
    let mut session = Session::warmed_up(workload, seed, telemetry.clone())?;
    // A pipelined driver's warm-up leaves updates in flight whose spans
    // would land on either side of the clear; both sessions are drained
    // alike, so the counts repeat exactly.
    plain.flush()?;
    session.flush()?;
    telemetry.clear();
    let (calls0, clock0) = (session.ctrl.timeline().len(), session.ctrl.clock());
    // The copy counter is per thread and both sessions are driven from
    // this one, so it is read around the traced blocks only.
    let mut copied = 0;
    let block = workload.window / 10;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_BLOCKS {
        for _ in 0..block {
            let t0 = host.now();
            if let StepOutcome::Failed(e) = plain.step() {
                return Err(CoreError::Worker(format!("untraced pass: {e}")));
            }
            plain_ms.push((host.now() - t0) * 1e3);
        }
        let (first, copy0) = (traced_ms.len(), physical_copy_bytes());
        traced_ms.extend(traced_iterations(&mut session, &mut rec, first, block, &mut failures));
        copied += physical_copy_bytes() - copy0;
        if !failures.is_empty() {
            break;
        }
    }
    drop(plain);
    // A pipelined driver still has batches in flight: drained first, so
    // that every span and count below is complete and repeats exactly.
    if failures.is_empty() {
        session.flush()?;
    }
    let iters = traced_ms.len();
    let per_iter = |total: f64| total / iters as f64;
    let copy_bytes = per_iter(copied as f64);
    let virtual_iter_us = per_iter((session.ctrl.clock() - clock0) * 1e6);
    let dispatch_bytes = per_iter(counter_sum(&telemetry, ".dispatch_bytes"));
    let collect_bytes = per_iter(counter_sum(&telemetry, ".collect_bytes"));
    let recv_bytes = telemetry.counter("transition.to_generation.recv_bytes") as f64;
    // What the driver's own iterations did, per iteration: the units the
    // layer split below multiplies by probed unit costs.
    let driver_calls: Vec<_> = session.ctrl.timeline().split_off(calls0);
    let calls = per_iter(driver_calls.len() as f64);
    let count = |name: &str| per_iter(telemetry.counter(name) as f64);
    let gen_steps = count("genserve.rollout.steps");
    let generated_tokens = count("genserve.rollout.generated_tokens");
    let preemptions = count("genserve.rollout.preemptions");
    let verifier_tasks = count("reward_eval.tasks");
    let verifier_retries = count("reward_eval.retries");
    let rank_transitions = count("transition.to_training.count");
    let (spans, dropped) = (telemetry.spans(), telemetry.dropped_spans());
    let spans_per_iter = per_iter((spans.len() as u64 + dropped) as f64);
    if dropped > 0 {
        notes.push(format!("{dropped} virtual spans dropped by the ring"));
    }
    let mut metrics = insight_metrics(spans);
    let virtual_trace = telemetry.chrome_trace();
    let (plain_sum, traced_sum) = (summarize(&plain_ms), summarize(&traced_ms));
    notes.push(format!(
        "iteration p50 {:.3} ms untraced, {:.3} ms traced, {iters} iterations each",
        plain_sum.p50, traced_sum.p50
    ));
    if !failures.is_empty() {
        return Ok(TraceReport { metrics: Vec::new(), attempted: iters as u64, failures, notes });
    }

    // 2. Stage replay on the traced system (a pipelined driver's stages
    //    replay in barrier form).
    let mut stages: Vec<StageTimes> = Vec::new();
    let mut batch = None;
    let replay_start = Instant::now();
    while stages.len() < 3
        || (replay_start.elapsed().as_secs_f64() < seconds * 0.2 && stages.len() < 200)
    {
        rec.iter = (iters + stages.len()) as u64;
        let prompts = session.prompts(session.issued + stages.len() as u64);
        let (times, finished) = replay::iteration(&session, &mut rec, &prompts)?;
        stages.push(times);
        batch = Some(finished);
    }
    let batch = batch.expect("at least three replays ran");
    let stage = |f: fn(&StageTimes) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let updates = session.cfg.updates as f64;
    let generate_us = stage(|s| s.generate_us);
    let prepare_us = stage(|s| s.prepare_us);
    let advantage_us = stage(|s| s.advantage_us);
    let update_us = stage(|s| s.update_us);
    let replay_us = stage(|s| s.total_us);
    notes.push(format!("{} stage replays, p50 {:.3} ms each", stages.len(), replay_us / 1e3));

    // 3. One probe per layer, at this workload's shapes.
    let cfg = session.cfg.clone();
    let sys = &session.sys;
    let layout = *sys.actor.layout();
    let spec = layout.spec;
    let lm = TinyLm::new(cfg.lm, MODEL_SEED);
    let seqs = sequences(&batch)?;
    let gen_replicas = layout.gen.map_or(spec.d, |g| g.gen_replicas_total());
    let requests = (seqs.len() / gen_replicas).max(1);
    let slice = seconds * 0.04;
    let (nn, _) = rec.span("probe.nn", "nn", |_| nn_probe(host, &lm, &seqs, slice));
    let (gen, _) = rec.span("probe.genserve", "genserve", |_| {
        genserve_probe(host, &session, &lm, requests, slice)
    });
    let gen = gen?;
    let (core, _) = rec.span("probe.core", "core", |_| core_probe(host, &session, &batch, slice));
    let core = core?;
    let (sim, _) = rec.span("probe.simcluster", "simcluster", |_| {
        collective_probe(host, workload.gpus, &spec.dp_groups(), cfg.lm.param_count())
    });
    // Tensor-parallel inference: the shard's forward and the all-reduce
    // that joins one sequence's partial activations in each TP pair.
    let tp_inference = cfg.hyper.tp_inference && spec.mp() > 1;
    let tp = tp_inference.then(|| {
        let forward = rec.span("probe.nn.tp", "nn", |_| tp_probe(host, &lm, &seqs, &spec, slice)).0;
        let activations = (seqs[0].len() - 1) * cfg.lm.hidden;
        let join = rec.span("probe.simcluster.tp", "simcluster", |_| {
            collective_probe(host, workload.gpus, &spec.tp_groups(), activations)
        });
        (forward, join.0)
    });
    let (engine, _) =
        rec.span("probe.hybridengine", "hybridengine", |_| hybridengine_probe(host, &session, &lm));
    // The verifier pool and the mapper are probed where they are on the
    // path; elsewhere their metrics read zero.
    let eval_us_per_task = match &cfg.reward_source {
        RewardSource::Verifier { spec, pool } => {
            rec.span("probe.rewards", "rewards", |_| {
                rewards_probe(host, spec, *pool, &batch, slice)
            })
            .0?
        }
        RewardSource::Model => 0.0,
    };
    let (resilience, _) = rec
        .span("probe.resilience", "resilience", |_| resilience_probe(host, &session, out, slice));
    let resilience = resilience?;
    let mapping = if workload.probes_mapping {
        rec.span("probe.mapping", "mapping", |_| mapping_probe(host, slice)).0?
    } else {
        MappingProbe::default()
    };
    notes.push(format!(
        "samples: genserve steps {}, core calls {}, collectives {COLLECTIVE_ROUNDS}, saves {}",
        gen.steps_timed, core.calls, resilience.saves
    ));

    // The engine's own byte count must agree with the closed form of
    // Table 2 and with what the traced iterations counted.
    let mut attempted = iters as u64;
    if let Some(g) = layout.gen.filter(|g| g.method == GroupingMethod::Strided) {
        attempted += 1;
        let model_bytes = (lm.block_region().len() * 4) as f64;
        let closed_form =
            transition_metrics(EngineMode::HybridFlow, model_bytes, &spec, g.pg, g.tg).comm_volume;
        let counted = recv_bytes / (iters * spec.world()) as f64;
        if (closed_form - engine.transition_bytes).abs() > 1.0
            || (workload.driver != Driver::Pipelined && (counted - closed_form).abs() > 1.0)
        {
            failures.push(format!(
                "check transition bytes: probe {} B, Table 2 {closed_form} B, counter {counted} B",
                engine.transition_bytes
            ));
        }
    }

    // 4. Where a driver iteration's host time goes, by substitution: the
    //    units the traced iterations performed (timeline entries and
    //    counters) times each layer's probed unit cost. Work done on the
    //    rank threads shares the host's cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = nproc.min(workload.gpus) as f64;
    let tokens = (seqs.len() * seqs[0].len()) as f64;
    let kparams = cfg.lm.param_count() as f64 / 1e3;
    let groups = [Some(&sys.actor), sys.critic.as_ref(), Some(&sys.reference), Some(&sys.reward)];
    let spec_of =
        |group: &str| groups.iter().flatten().find(|g| g.name() == group).map(|g| g.layout().spec);
    // Every sequence passes once per iteration through each method the
    // driver calls, on all ranks of one replica: `mp` copies of the work.
    let mut methods: Vec<(&str, &str)> =
        driver_calls.iter().map(|c| (c.group.as_str(), c.method.as_str())).collect();
    methods.sort_unstable();
    methods.dedup();
    let (mut rank_us, mut simcluster_us) = (0.0, 0.0);
    for &(group, method) in &methods {
        let Some(spec) = spec_of(group) else { continue };
        let calls_per_iter = per_iter(
            driver_calls.iter().filter(|c| c.group == group && c.method == method).count() as f64,
        );
        let copies = tokens * spec.mp() as f64;
        if method.starts_with("update_") {
            rank_us += copies * nn.fwd_bwd_us_per_token
                + calls_per_iter * spec.world() as f64 * kparams * nn.adam_us_per_kparam;
            if spec.d > 1 {
                simcluster_us += calls_per_iter * sim.allreduce_us_p50;
            }
        } else if method == "generate_sequences" {
            // Decoding is counted below; each sequence is scored once more.
            rank_us += tokens * (spec.world() / gen_replicas) as f64 * nn.forward_us_per_token;
        } else if let (Some((forward, join)), "compute_values" | "compute_log_prob") = (&tp, method)
        {
            // Each replica's ranks forward their shards in lock-step,
            // joining partials sequence by sequence.
            rank_us += copies * forward.forward_us_per_token;
            simcluster_us +=
                (seqs.len() / spec.d) as f64 * forward.joins_per_sequence * join.allreduce_us_p50;
        } else if !(method == "compute_reward" && verifier_tasks > 0.0) {
            rank_us += copies * nn.forward_us_per_token;
        }
    }
    let decode_us_per_generated = gen.nn_decode_us / gen.generated.max(1) as f64;
    let engine_us_per_generated =
        (gen.session_us - gen.nn_decode_us).max(0.0) / gen.generated.max(1) as f64;
    let nn_us = (rank_us + generated_tokens * decode_us_per_generated) / parallel;
    let genserve_us = generated_tokens * engine_us_per_generated / parallel;
    let rewards_us = verifier_tasks * eval_us_per_task / parallel;
    let core_us = calls * core.noop_call_us_p50;
    let hybridengine_us = rank_transitions / spec.world() as f64 * engine.transition_us_p50;
    // The controller's own share is literal: the advantage stage plus
    // what a replayed iteration spends outside its stage spans.
    let self_us = rec.self_times_us();
    let glue_us: f64 = rec
        .spans()
        .iter()
        .zip(&self_us)
        .filter(|(s, _)| s.name == "replay.iteration")
        .map(|(_, us)| us)
        .sum::<f64>()
        / stages.len() as f64;
    let rlhf_us = advantage_us + glue_us;
    let iter_us = traced_sum.p50 * 1e3;
    let shares = [
        ("nn", "trace.self_share.nn", nn_us / iter_us),
        ("genserve", "trace.self_share.genserve", genserve_us / iter_us),
        ("core", "trace.self_share.core", core_us / iter_us),
        ("simcluster", "trace.self_share.simcluster", simcluster_us / iter_us),
        ("hybridengine", "trace.self_share.hybridengine", hybridengine_us / iter_us),
        ("rlhf", "trace.self_share.rlhf", rlhf_us / iter_us),
        ("rewards", "trace.self_share.rewards", rewards_us / iter_us),
    ];
    let tiled: f64 = shares.iter().map(|(_, _, s)| s).sum();
    // `rest` names what the split leaves open: worker-side glue, thread
    // switches and rendezvous skew.
    let share_of = |layers: &[&str]| -> f64 {
        let named: f64 =
            shares.iter().filter(|(layer, _, _)| layers.contains(layer)).map(|(_, _, s)| s).sum();
        named + if layers.contains(&"rest") { (1.0 - tiled).max(0.0) } else { 0.0 }
    };
    if let Some(check) = workload.share_check {
        attempted += 1;
        let (stressed, other) = (share_of(check.layers), share_of(check.over));
        if stressed <= check.factor * other {
            failures.push(format!(
                "check layer shares: {:?} hold {stressed:.3} of an iteration, not more than {} x \
                 the {other:.3} of {:?}",
                check.layers, check.factor, check.over
            ));
        }
    }

    metrics.extend([
        ("nn.fwd_bwd_us_per_token", nn.fwd_bwd_us_per_token),
        ("nn.forward_us_per_token", nn.forward_us_per_token),
        ("nn.decode_us_per_token", gen.nn_decode_us / gen.lanes.max(1) as f64),
        ("nn.adam_us_per_kparam", nn.adam_us_per_kparam),
        ("nn.tp_forward_us_per_token", tp.as_ref().map_or(0.0, |(f, _)| f.forward_us_per_token)),
        ("genserve.step_us_p50", gen.step_us_p50),
        ("genserve.tokens_per_step", generated_tokens / gen_steps.max(1.0)),
        ("genserve.preemptions", preemptions),
        ("genserve.overhead_share", gen.overhead_share),
        ("core.noop_call_us_p50", core.noop_call_us_p50),
        ("core.split_merge_us", core.split_merge_us),
        ("core.copy_bytes_per_iter", copy_bytes),
        ("core.dispatch_bytes_per_iter", dispatch_bytes),
        ("core.collect_bytes_per_iter", collect_bytes),
        ("core.calls_per_iter", calls),
        ("simcluster.allreduce_us_p50", sim.allreduce_us_p50),
        ("simcluster.barrier_us_p50", sim.barrier_us_p50),
        ("simcluster.allreduce_virtual_us", sim.allreduce_virtual_us),
        ("simcluster.tp_allreduce_us_p50", tp.as_ref().map_or(0.0, |(_, j)| j.allreduce_us_p50)),
        ("hybridengine.transition_us_p50", engine.transition_us_p50),
        ("hybridengine.transition_virtual_us", engine.transition_virtual_us),
        ("hybridengine.transition_bytes", engine.transition_bytes),
        ("rlhf.generate_ms_p50", generate_us / 1e3),
        ("rlhf.prepare_ms_p50", prepare_us / 1e3),
        ("rlhf.update_ms_p50", update_us / updates / 1e3),
        ("rlhf.advantage_us_p50", advantage_us),
        ("rlhf.iter_host_ms_p99", traced_sum.p99),
        ("rlhf.stage_sum_share", replay_us / iter_us),
        ("rlhf.virtual_iter_us", virtual_iter_us),
        ("rewards.eval_us_per_task", eval_us_per_task),
        ("rewards.retries", verifier_retries),
        ("resilience.save_ms_p50", resilience.save_ms_p50),
        ("resilience.save_mib_per_s", resilience.save_mib_per_s),
        ("resilience.restore_ms", resilience.restore_ms),
        ("resilience.ckpt_bytes", resilience.ckpt_bytes),
        ("resilience.restore_virtual_us", resilience.restore_virtual_us),
        ("mapping.search_ms_p50", mapping.search_ms_p50),
        ("mapping.evals", mapping.evals),
        ("mapping.pruned", mapping.pruned),
        ("telemetry.overhead_share", (traced_sum.p50 - plain_sum.p50) / plain_sum.p50),
        ("telemetry.spans_per_iter", spans_per_iter),
        ("trace.tiled_share", tiled),
    ]);
    metrics.extend(shares.iter().map(|(_, name, share)| (*name, *share)));

    let by_layer: Vec<String> =
        rec.self_us_by_layer().iter().map(|(l, us)| format!("{l} {:.0} ms", us / 1e3)).collect();
    notes.push(format!("host self time of this traced run by layer: {}", by_layer.join(", ")));
    write_trace(out, workload.name, &rec, &virtual_trace)
        .map_err(|e| CoreError::Worker(format!("write trace: {e}")))?;
    Ok(TraceReport { metrics, attempted, failures, notes })
}

/// Writes the Chrome trace: host spans (process 2) and the program's
/// virtual-clock spans (process 1) as two track families.
fn write_trace(out: &Path, name: &str, rec: &Recorder, virtual_trace: &str) -> std::io::Result<()> {
    let mut events: Vec<String> = rec.chrome_events().iter().map(Json::render).collect();
    events.push(
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"virtual clock"}}"#
            .into(),
    );
    let inner = virtual_trace
        .trim()
        .strip_prefix("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
        .and_then(|rest| rest.strip_suffix("]}"))
        .map(str::trim);
    if let Some(inner) = inner.filter(|s| !s.is_empty()) {
        events.push(inner.to_string());
    }
    std::fs::create_dir_all(out)?;
    std::fs::write(
        out.join(format!("trace-{name}.json")),
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
    )
}
