//! Cross-crate telemetry invariants: recording must be an observer, not
//! a participant. Spans carry well-formed virtual timestamps, byte
//! counters agree with the `DataProto` payloads and with the analytical
//! Table 2 transition volumes, and turning telemetry off changes
//! nothing about what the runtime computes.

use hybridflow::core::{Controller, DataProto, Protocol, RankCtx, Worker, WorkerLayout};
use hybridflow::hybridengine::{transition_metrics, EngineMode};
use hybridflow::parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hybridflow::resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hybridflow::rlhf::env::make_prompts;
use hybridflow::rlhf::{
    grpo_iteration, ppo_iteration, remap_recoverable, IterStats, MapperPlanner, PipelineConfig,
    PipelinedPpo, Placement, RemapConfig, RlhfConfig, RlhfSystem,
};
use hybridflow::simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hybridflow::telemetry::{SpanKind, Telemetry, CONTROLLER_TRACK};

fn traced_controller(gpus: usize) -> Controller {
    Controller::with_telemetry(
        ClusterSpec::a100_with_gpus(gpus),
        CommCostModel::default(),
        Telemetry::enabled(),
    )
}

/// Every model colocated on 4 GPUs, actor 1-2-2 with a strided micro-DP
/// generation grouping.
fn placement_4gpu(critic: bool) -> Placement {
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(ResourcePool::contiguous(0, 4), WorkerLayout::with_gen(gen), critic, false)
}

/// One tiny-model PPO iteration on 4 GPUs (colocated actor+critic,
/// strided micro-DP generation grouping) under the given controller.
fn ppo_once(ctrl: &Controller) -> IterStats {
    let cfg = RlhfConfig::tiny();
    let sys = RlhfSystem::build(ctrl, &placement_4gpu(true), cfg.clone()).expect("build");
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    ppo_iteration(&sys, ctrl, &prompts).expect("iter")
}

#[test]
fn disabled_telemetry_is_bit_identical_to_enabled() {
    // The recorder reads clocks but never advances them, so the exact
    // same trajectory — including virtual time — must come out whether
    // or not anyone is watching.
    let plain = ppo_once(&Controller::new(ClusterSpec::a100_with_gpus(4)));
    let traced_ctrl = traced_controller(4);
    let traced = ppo_once(&traced_ctrl);
    assert_eq!(plain, traced, "telemetry must not perturb the run");
    assert!(
        !traced_ctrl.telemetry().spans().is_empty(),
        "the traced run should actually have recorded something"
    );
}

#[test]
fn spans_are_well_formed_nested_and_monotonic() {
    let ctrl = traced_controller(4);
    ppo_once(&ctrl);
    let spans = ctrl.telemetry().spans();
    assert!(!spans.is_empty());
    for s in &spans {
        assert!(s.end >= s.start, "span {} runs backwards: {:?}", s.name, (s.start, s.end));
        assert!(s.start >= 0.0, "span {} starts before the epoch", s.name);
    }

    // Each simulated device executes one call at a time, so Exec spans
    // on a device track must not overlap.
    let mut tracks: Vec<String> = spans.iter().map(|s| s.track.clone()).collect();
    tracks.sort();
    tracks.dedup();
    for track in tracks.iter().filter(|t| t.starts_with("gpu-")) {
        let mut execs: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| &s.track == track && s.kind == SpanKind::Exec)
            .map(|s| (s.start, s.end))
            .collect();
        execs.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in execs.windows(2) {
            assert!(
                w[1].0 >= w[0].1,
                "overlapping Exec spans on {track}: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    // The three phase spans tile the iteration in order, and every
    // controller-side call span nests inside the phase envelope.
    let phase = |name: &str| -> (f64, f64) {
        spans
            .iter()
            .find(|s| s.kind == SpanKind::Phase && s.name == name)
            .map(|s| (s.start, s.end))
            .unwrap_or_else(|| panic!("missing phase span {name}"))
    };
    let generation = phase("generation");
    let preparation = phase("experience_preparation");
    let training = phase("training");
    assert_eq!(generation.1, preparation.0, "phases must be contiguous");
    assert_eq!(preparation.1, training.0, "phases must be contiguous");
    for s in spans.iter().filter(|s| s.track == CONTROLLER_TRACK && s.kind == SpanKind::Dispatch) {
        assert!(
            s.start >= generation.0 - 1e-12 && s.end <= training.1 + 1e-12,
            "call span {} [{}, {}] escapes the iteration envelope [{}, {}]",
            s.name,
            s.start,
            s.end,
            generation.0,
            training.1
        );
    }
}

#[test]
fn genserve_steps_nest_in_generation_phase_and_counters_export() {
    let ctrl = traced_controller(4);
    ppo_once(&ctrl);
    let tel = ctrl.telemetry();
    let spans = tel.spans();

    // Per-step engine spans live on per-device generation sub-tracks
    // and sit (in virtual time) inside the controller's generation
    // phase envelope.
    let gen_phase = spans
        .iter()
        .find(|s| s.kind == SpanKind::Phase && s.name == "generation")
        .expect("generation phase span");
    let steps: Vec<_> = spans.iter().filter(|s| s.name == "genserve.step").collect();
    assert!(!steps.is_empty(), "generation must record per-step engine spans");
    for s in &steps {
        assert!(
            s.track.starts_with("gpu-") && s.track.ends_with("/genserve"),
            "genserve.step on unexpected track {}",
            s.track
        );
        assert!(
            s.start >= gen_phase.start - 1e-12 && s.end <= gen_phase.end + 1e-12,
            "genserve.step [{}, {}] escapes the generation phase [{}, {}]",
            s.start,
            s.end,
            gen_phase.start,
            gen_phase.end
        );
    }

    // The scheduler's aggregate counters made it into the registry,
    // tagged with their consumer (the training rollout)...
    assert!(tel.counter("genserve.rollout.steps") > 0);
    assert!(tel.counter("genserve.rollout.generated_tokens") > 0);
    assert!(
        tel.metrics().counters.contains_key("genserve.rollout.preemptions"),
        "preemption counter must be exported even when zero"
    );
    assert!(tel.digest("genserve.rollout.tokens_per_s").is_some_and(|d| d.quantile(0.0) > 0.0));
    assert!(
        steps.iter().all(|s| s.args.iter().any(|(k, v)| k == "consumer" && v == "rollout")),
        "engine step spans must carry their consumer tag"
    );

    // ... and the time-varying ones (batch size, cache-block
    // utilization) export as Perfetto counter-track events.
    assert!(!tel.samples().is_empty());
    let trace = tel.chrome_trace();
    assert!(trace.contains("\"ph\":\"C\""), "trace must carry counter events");
    assert!(trace.contains("genserve.rollout.batch_size"));
    assert!(trace.contains("genserve.rollout.block_utilization"));

    // The per-iteration digest breaks the engine metrics out beside the
    // search and data-plane sections.
    assert!(tel.summary().contains("genserve:"), "summary must have a genserve section");
}

#[test]
fn protocol_byte_counters_match_dataproto_sizes() {
    let ctrl = traced_controller(4);
    let pool = ResourcePool::contiguous(0, 4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    fn echo() -> Box<dyn Worker> {
        Box::new(|_m: &str, d: DataProto, _c: &mut RankCtx| Ok(d))
    }
    let g = ctrl.spawn_group("echo", &pool, layout, |_r| echo()).unwrap();

    let rows = 8;
    let mut batch = DataProto::with_rows(rows);
    batch.insert_f32("v", (0..rows * 3).map(|v| v as f32).collect(), 3);
    let batch_bytes = batch.bytes() as u64;
    assert!(batch_bytes > 0);

    // DP_PROTO partitions the rows across the four dp groups; the
    // dispatched chunks must sum to exactly the batch, and echoing them
    // back collects exactly the batch again.
    let out = g.call_sync("echo", &batch, Protocol::Dp).unwrap();
    let tel = ctrl.telemetry();
    assert_eq!(tel.counter("protocol.Dp.dispatch_bytes"), batch_bytes);
    assert_eq!(tel.counter("protocol.Dp.collect_bytes"), out.bytes() as u64);
    assert_eq!(out.bytes() as u64, batch_bytes);

    // ONE_TO_ALL broadcasts the whole batch to every rank, so the
    // counter sees one full copy per rank shipped; the echoed
    // collection likewise concatenates one copy per rank.
    let out = g.call_sync("echo", &batch, Protocol::OneToAll).unwrap();
    assert_eq!(tel.counter("protocol.OneToAll.dispatch_bytes"), batch_bytes * 4);
    assert_eq!(tel.counter("protocol.OneToAll.collect_bytes"), out.bytes() as u64);
}

#[test]
fn transition_byte_counter_matches_table2_analytics() {
    // 8-GPU layout: training 1-4-2, generation 1-2 with strided
    // micro-DP grouping (micro-DP groups of size t/t_g = 2). Table 2's
    // HybridFlow row says each GPU transfers (t - t_g)/(t_g · t) · M;
    // the functional engine's recorded counter must agree exactly. M
    // here is the resharded parameter region (the residual blocks —
    // embeddings and heads are replicated, not resharded).
    let cfg = RlhfConfig::tiny();
    let spec = ParallelSpec::new(1, 4, 2);
    let (pg, tg) = (1usize, 2usize);
    let gen = GenGrouping::new(spec, pg, tg, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 8),
        WorkerLayout::with_gen(gen),
        true,
        false,
    );
    let ctrl = traced_controller(8);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).expect("build");
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    ppo_iteration(&sys, &ctrl, &prompts).expect("iter");

    let gpus = 8;
    let total = ctrl.telemetry().counter("transition.to_generation.recv_bytes");
    assert!(total > 0, "the strided transition must have run");
    assert_eq!(total % gpus, 0, "every rank transfers the same volume");
    let measured_per_gpu = total / gpus;

    let model_bytes = (cfg.lm.layers * cfg.lm.block_size() * 4) as f64;
    let analytic = transition_metrics(EngineMode::HybridFlow, model_bytes, &spec, pg, tg);
    assert_eq!(
        measured_per_gpu,
        analytic.comm_volume.round() as u64,
        "measured per-GPU transition bytes must equal the Table 2 volume"
    );
    // Spot-check the absolute number so a change to either side of the
    // comparison cannot silently cancel out: (4-2)/(2·4) · 4·6176·4 B.
    assert_eq!(measured_per_gpu, 24_704);
}

#[test]
fn every_metric_name_is_one_record() {
    // A name is a gauge or a digest, never both: `summary()` would print
    // it twice, and a reader of one record would miss the other. One
    // recorder watches a traced PPO iteration, GRPO with the verifier
    // pool, pipelined PPO, and a run that recovers from a killed rank.
    let tel = Telemetry::enabled();
    let (cluster, cost) = (ClusterSpec::a100_with_gpus(4), CommCostModel::default());
    let traced = || Controller::with_telemetry(cluster.clone(), cost.clone(), tel.clone());
    ppo_once(&traced());

    let cfg = RlhfConfig::tiny_verifier();
    let ctrl = traced();
    let sys = RlhfSystem::build(&ctrl, &placement_4gpu(false), cfg.clone()).expect("build");
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    grpo_iteration(&sys, &ctrl, &prompts).expect("grpo");

    let cfg = RlhfConfig::tiny();
    let ctrl = traced();
    let sys = RlhfSystem::build(&ctrl, &placement_4gpu(true), cfg.clone()).expect("build");
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: 2 });
    for _ in 0..2 {
        driver.step(&sys, &ctrl, &prompts).expect("pipelined step");
    }
    driver.flush(&sys, &ctrl).expect("flush");

    let kill = FaultPlan::new().kill_rank(
        "actor",
        1,
        FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
    );
    let ctrl = Controller::with_faults(cluster, cost, tel.clone(), FaultInjector::new(kill));
    let dir = std::env::temp_dir().join(format!("hf-one-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let remap = RemapConfig {
        iterations: 4,
        checkpoint_every: 1,
        batch: 8,
        allowed: Some((0..4).map(DeviceId).collect()),
        ..Default::default()
    };
    let report = remap_recoverable(
        &ctrl,
        &CheckpointStore::new(&dir).unwrap(),
        &remap,
        &placement_4gpu(true),
        RlhfConfig::tiny(),
        &mut MapperPlanner::toy(4),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.expect("recovered run").stats.recoveries, 1);

    let metrics = tel.metrics();
    for name in ["resilience.mttr_s", "genserve.rollout.tokens_per_s", "reward_eval.pool_occupancy"]
    {
        assert!(metrics.digests.contains_key(name), "{name} is a digest");
    }
    assert!(metrics.gauges.contains_key("pipeline.overlap_fraction"));
    let both: Vec<&String> =
        metrics.gauges.keys().filter(|k| metrics.digests.contains_key(*k)).collect();
    assert!(both.is_empty(), "recorded as a gauge and as a digest: {both:?}");
}
