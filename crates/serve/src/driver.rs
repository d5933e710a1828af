//! The headline scenario: the tenant front-end co-located with a
//! pipelined PPO training job on the same virtual cluster.
//!
//! Training runs first (it is deterministic), and its controller
//! timeline + HybridEngine transition spans are folded into a
//! [`CapacityProfile`]: while the actor generates, serving keeps a
//! configurable share of the engine; while update/prepare phases hold
//! the devices, the share shrinks; during train↔generation weight
//! transitions it drops to zero (the engine is mid-reshard). The
//! front-end then replays the same arrival schedule against that
//! profile and against a constant-1.0 serve-only baseline, and the
//! report pins how far the top-priority tenant's p99 TTFT is allowed
//! to drift between the two.

use hf_core::{Controller, TimelineEntry, WorkerLayout};
use hf_genserve::{GenConfig, GenError, GenServer};
use hf_nn::{LmConfig, TinyLm};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{ModelPlacement, PipelineConfig, PipelinedPpo, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::{SpanRecord, Telemetry};

use crate::arrival::build_arrivals;
use crate::frontend::{self, CapacityProfile, ServeConfig, ServeReport};
use crate::tenant::TenantSpec;

/// Co-located training shape plus the capacity shares the front-end
/// keeps during each training phase.
#[derive(Debug, Clone)]
pub struct ColocateConfig {
    /// Devices per model pool (total GPUs = 4x this).
    pub per_model: usize,
    /// Per-model layout, `(pipeline, tensor, data)`.
    pub spec: (usize, usize, usize),
    /// Generation TP size on the actor.
    pub tg: usize,
    /// Prompt rows per training iteration.
    pub rows: usize,
    /// Training iterations.
    pub iterations: usize,
    /// Generation chunks per iteration (pipelined driver).
    pub gen_chunks: usize,
    /// Front-end capacity share while the actor generates (rollout and
    /// serving share the generation engine).
    pub share_gen: f64,
    /// Front-end capacity share while training phases hold the devices.
    pub share_train: f64,
    /// Serving seconds per virtual second of the training job. The
    /// simulated tiny models train in milliseconds; real RLHF jobs hold
    /// devices for whole serving epochs, so the job's timeline is dilated
    /// by this factor before the front-end replays against it. A fixed
    /// factor, not a window the job is stretched onto: a job that gets
    /// shorter ends sooner and leaves the engine to serving.
    pub time_dilation: f64,
    /// Minimum width (serving seconds) of each HybridEngine transition
    /// blackout. The pipelined driver hides transition cost behind the
    /// train tail, but the serving engine is still unavailable while
    /// weights reshard — each transition instant becomes a
    /// zero-capacity window at least this wide.
    pub transition_floor_s: f64,
}

impl Default for ColocateConfig {
    fn default() -> Self {
        ColocateConfig {
            per_model: 2,
            spec: (1, 1, 2),
            tg: 1,
            rows: 8,
            iterations: 4,
            gen_chunks: 2,
            share_gen: 0.75,
            share_train: 0.5,
            // The four-iteration job filled an 8 s serving window when the
            // scenario was set up (2.336 515 virtual ms).
            time_dilation: 8.0 / 2.336_515e-3,
            transition_floor_s: 0.02,
        }
    }
}

/// What the co-located training job accomplished.
#[derive(Debug, Clone)]
pub struct TrainSummary {
    /// Training batches completed (including the flushed tail).
    pub iterations: u64,
    /// Controller virtual seconds the whole job took.
    pub virtual_seconds: f64,
    /// Virtual seconds spent inside HybridEngine weight transitions
    /// (serving capacity is zero there).
    pub transition_stall_s: f64,
    /// Mean reward-model score across iterations.
    pub mean_score: f64,
    /// Mean PPO surrogate loss across iterations.
    pub mean_actor_loss: f64,
}

/// Outcome of one co-located run: the same arrival schedule served
/// under the training-derived capacity profile and at full capacity.
#[derive(Debug, Clone)]
pub struct ColocatedRun {
    /// Front-end report under the training capacity profile.
    pub colocated: ServeReport,
    /// Front-end report at constant full capacity (baseline).
    pub serve_only: ServeReport,
    /// The training job's own progress.
    pub train: TrainSummary,
    /// The derived capacity profile's `(start, share)` segments.
    pub profile_segments: Vec<(f64, f64)>,
    /// Worst co-located / serve-only p99 TTFT ratio among priority-0
    /// tenants — the SLO-protection headline number.
    pub top_p99_ratio: f64,
}

/// A standalone serving engine sized in cache blocks; vocab matches
/// [`run_colocated`]'s arrival generation (returned second).
pub fn standard_server(cache_blocks: usize, max_batch: usize) -> (GenServer, usize) {
    let lm = TinyLm::new(LmConfig { vocab: 16, hidden: 8, ffn: 12, layers: 2 }, 11);
    let slot_bytes = lm.decode_start().cache_bytes();
    let mut server = GenServer::new(GenConfig {
        block_tokens: 4,
        cache_budget_bytes: cache_blocks * 4 * slot_bytes,
        max_batch,
        ..GenConfig::default()
    });
    server.install_weights(&lm);
    let vocab = lm.cfg.vocab;
    (server, vocab)
}

/// Runs the pipelined PPO job on a split placement and returns its
/// timeline, telemetry spans, and progress summary.
pub fn run_training(cc: &ColocateConfig) -> (Vec<TimelineEntry>, Vec<SpanRecord>, TrainSummary) {
    let rc = RlhfConfig::tiny();
    let n = cc.per_model;
    let ctrl = Controller::with_telemetry(
        ClusterSpec::a100_with_gpus(4 * n),
        CommCostModel::default(),
        Telemetry::enabled(),
    );
    let (p, t, d) = cc.spec;
    let spec = ParallelSpec::new(p, t, d);
    let gen = GenGrouping::new(spec, 1, cc.tg, GroupingMethod::Strided);
    let train = WorkerLayout::train_only(spec);
    let placement = Placement {
        actor: ModelPlacement {
            pool: ResourcePool::contiguous(0, n),
            layout: WorkerLayout::with_gen(gen),
        },
        critic: Some(ModelPlacement { pool: ResourcePool::contiguous(n, n), layout: train }),
        reference: ModelPlacement { pool: ResourcePool::contiguous(2 * n, n), layout: train },
        reward: ModelPlacement { pool: ResourcePool::contiguous(3 * n, n), layout: train },
        cost: None,
    };
    let sys = RlhfSystem::build(&ctrl, &placement, rc.clone()).expect("build split system");
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: cc.gen_chunks });
    let mut stats = Vec::new();
    for iter in 0..cc.iterations as u64 {
        let prompts =
            make_prompts(cc.rows, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, iter);
        if let Some(s) = driver.step(&sys, &ctrl, &prompts).expect("pipelined step") {
            stats.push(s);
        }
    }
    stats.extend(driver.flush(&sys, &ctrl).expect("pipeline flush"));
    let timeline = ctrl.timeline();
    let spans = ctrl.telemetry().spans();
    let virtual_seconds = ctrl.clock();
    ctrl.shutdown().expect("shutdown");
    let stall: f64 =
        spans.iter().filter(|s| s.name.starts_with("transition.")).map(|s| s.end - s.start).sum();
    let count = stats.len().max(1) as f64;
    let summary = TrainSummary {
        iterations: stats.len() as u64,
        virtual_seconds,
        transition_stall_s: stall,
        mean_score: stats.iter().map(|s| s.mean_score as f64).sum::<f64>() / count,
        mean_actor_loss: stats.iter().map(|s| s.actor_loss as f64).sum::<f64>() / count,
    };
    (timeline, spans, summary)
}

/// Folds a training timeline + transition spans into the front-end's
/// capacity profile: generation phases leave `share_gen`, training
/// phases leave `share_train`, transitions leave zero, and every
/// instant after the job ends is full capacity. Overlapping phases
/// take the minimum share. A call holds its devices from the instant it
/// could start (a call parked on the future it was issued on occupies a
/// mailbox slot, not a device). The whole timeline (which the tiny
/// simulated models finish in milliseconds) is dilated by
/// `cc.time_dilation`, and each transition becomes a blackout at least
/// `cc.transition_floor_s` wide.
pub fn train_capacity_profile(
    timeline: &[TimelineEntry],
    spans: &[SpanRecord],
    cc: &ColocateConfig,
) -> CapacityProfile {
    let scale = cc.time_dilation;
    let mut intervals: Vec<(f64, f64, f64)> = Vec::new();
    for e in timeline {
        if e.completed <= e.started {
            continue;
        }
        let share = if e.method.contains("generate") { cc.share_gen } else { cc.share_train };
        intervals.push((e.started * scale, e.completed * scale, share));
    }
    for s in spans {
        if s.name.starts_with("transition.to") {
            let start = s.start * scale;
            let end = (s.end * scale).max(start + cc.transition_floor_s);
            intervals.push((start, end, 0.0));
        }
    }
    if intervals.is_empty() {
        return CapacityProfile::constant(1.0);
    }
    let mut bounds: Vec<f64> = intervals.iter().flat_map(|&(a, b, _)| [a, b]).collect();
    bounds.push(0.0);
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let mut segments: Vec<(f64, f64)> = Vec::new();
    for w in bounds.windows(2) {
        let mid = 0.5 * (w[0] + w[1]);
        let share = intervals
            .iter()
            .filter(|&&(a, b, _)| a <= mid && mid < b)
            .map(|&(_, _, s)| s)
            .fold(1.0f64, f64::min);
        if segments.last().map(|&(_, s)| s) != Some(share) {
            segments.push((w[0], share));
        }
    }
    let end = *bounds.last().expect("non-empty bounds");
    if segments.last().map(|&(_, s)| s) != Some(1.0) {
        segments.push((end, 1.0));
    }
    CapacityProfile::from_segments(segments)
}

/// Runs the headline co-located scenario. `horizon_s <= 0` serves for
/// exactly the training job's duration. The top-priority p99 ratio
/// compares the co-located run against a serve-only replay of the
/// identical arrival schedule.
#[allow(clippy::too_many_arguments)]
pub fn run_colocated(
    cc: &ColocateConfig,
    server: &GenServer,
    vocab: usize,
    tenants: &[TenantSpec],
    horizon_s: f64,
    load: f64,
    seed: u64,
    serve_cfg: &ServeConfig,
    tel: Option<&Telemetry>,
) -> Result<ColocatedRun, GenError> {
    let (timeline, spans, train) = run_training(cc);
    let profile = train_capacity_profile(&timeline, &spans, cc);
    let horizon =
        if horizon_s > 0.0 { horizon_s } else { train.virtual_seconds * cc.time_dilation };
    let arrivals = build_arrivals(tenants, horizon, load, vocab, seed);
    let colocated = frontend::run(server, tenants, &arrivals, serve_cfg, &profile, tel)?;
    let serve_only = frontend::run(
        server,
        tenants,
        &arrivals,
        serve_cfg,
        &CapacityProfile::constant(1.0),
        None,
    )?;
    let top = tenants.iter().map(|t| t.priority).min().unwrap_or(0);
    let mut ratio = 1.0f64;
    for (co, base) in colocated.tenants.iter().zip(&serve_only.tenants) {
        if co.priority == top && co.completed > 0 && base.p99_ttft_s > 0.0 {
            ratio = ratio.max(co.p99_ttft_s / base.p99_ttft_s);
        }
    }
    Ok(ColocatedRun {
        colocated,
        serve_only,
        train,
        profile_segments: profile.segments().to_vec(),
        top_p99_ratio: ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::mixes;

    #[test]
    fn train_profile_has_transition_blackouts_and_recovers_to_full() {
        let cc = ColocateConfig::default();
        let (timeline, spans, train) = run_training(&cc);
        assert_eq!(train.iterations, cc.iterations as u64);
        assert!(train.virtual_seconds > 0.0);
        let profile = train_capacity_profile(&timeline, &spans, &cc);
        let segs = profile.segments();
        assert!(segs.iter().any(|&(_, s)| s == 0.0), "transitions must black out capacity");
        assert!(
            segs.iter().any(|&(_, s)| s == cc.share_train),
            "training phases must leave share_train"
        );
        assert_eq!(segs.last().unwrap().1, 1.0, "capacity recovers after the job ends");
        let job_end = train.virtual_seconds * cc.time_dilation;
        assert!(
            (segs.last().unwrap().0 - job_end).abs() <= cc.transition_floor_s,
            "the engine is handed back when the dilated job ends"
        );
        assert!(segs.windows(2).all(|w| w[0].0 < w[1].0), "segments strictly ordered");
    }

    #[test]
    fn colocated_run_protects_the_top_tier_and_still_trains() {
        let cc = ColocateConfig::default();
        let (server, vocab) = standard_server(64, 8);
        let tenants = mixes::tiered();
        let cfg = ServeConfig::default();
        let run = run_colocated(&cc, &server, vocab, &tenants, 8.0, 2.0, 42, &cfg, None).unwrap();
        assert_eq!(run.train.iterations, cc.iterations as u64, "training makes progress");
        assert!(run.train.mean_score.is_finite());
        let gold = &run.colocated.tenants[0];
        assert_eq!(gold.priority, 0);
        assert!(gold.completed > 0);
        assert!(
            run.top_p99_ratio <= 1.25,
            "co-location must not degrade top-tier p99 TTFT by more than 25% \
             (got {:.3})",
            run.top_p99_ratio
        );
        assert!(
            (gold.slo_attainment - 1.0).abs() < 1e-9,
            "top-tier SLO attainment must hold under co-location"
        );
        // The same schedule replayed twice is bit-identical.
        let again = run_colocated(&cc, &server, vocab, &tenants, 8.0, 2.0, 42, &cfg, None).unwrap();
        assert_eq!(run.top_p99_ratio.to_bits(), again.top_p99_ratio.to_bits());
        assert_eq!(run.colocated.duration_s.to_bits(), again.colocated.duration_s.to_bits());
    }
}
