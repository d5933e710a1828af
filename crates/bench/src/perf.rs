//! The perf regression gate: runs a fig9-style sweep of functional PPO
//! iterations with telemetry on, feeds the traces through hf-insight,
//! and renders a deterministic report — critical-path breakdown, bubble
//! fractions, what-if overlap bounds, and latency digests per
//! configuration.
//!
//! Determinism contract: the simulated cluster is virtual-clock exact,
//! insight orders everything canonically, and the JSON renderer is
//! byte-stable — two runs produce byte-identical reports (the registry's
//! rerun test enforces this). CI runs `hf-bench perf_report --fast
//! --check`, which diffs the fresh report against the committed baseline
//! at `crates/bench/baselines/perf_report_fast.json` within a relative
//! tolerance and fails on drift; intentional performance changes are
//! landed by regenerating the baseline (`hf-bench perf_report --fast
//! --json` and copying the report over it — see DESIGN.md §13).

use std::collections::BTreeMap;

use hf_core::Controller;
use hf_insight::{analyze_iterations, num_map, IterationAnalysis, Json, SpanGraph};
use hf_parallel::ParallelSpec;
use hf_rlhf::env::make_prompts;
use hf_rlhf::{ppo_iteration, PipelineConfig, PipelinedPpo, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, CommCostModel};
use hf_telemetry::{Digest, Telemetry};

use crate::experiments::colocated_ppo;
use crate::table::{col, label, mode, Report, Table};

/// One swept configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Stable name, used as the JSON key and table row label.
    pub name: String,
    /// Simulated GPUs.
    pub gpus: usize,
    /// Training layout (dp, tp, pp).
    pub layout: (usize, usize, usize),
    /// Generation TP size.
    pub tg: usize,
    /// Measured iterations after the one warmup iteration.
    pub iterations: usize,
}

/// The sweep. `fast` is the CI shape (8 GPUs, two generation TPs, one
/// measured iteration each — the committed baseline covers exactly
/// this); full sweeps 16 GPUs over the Figure 15 `t_g` axis.
pub fn sweep(fast: bool) -> Vec<PerfConfig> {
    let (gpus, layout, tgs, iterations): (usize, _, &[usize], usize) =
        if fast { (8, (1, 4, 2), &[2, 4], 1) } else { (16, (1, 8, 2), &[1, 2, 4, 8], 2) };
    tgs.iter()
        .map(|&tg| PerfConfig {
            name: format!("ppo_{}gpu_dp{}tp{}pp{}_tg{tg}", gpus, layout.0, layout.1, layout.2),
            gpus,
            layout,
            tg,
            iterations,
        })
        .collect()
}

fn what_if_json(it: &IterationAnalysis) -> Json {
    Json::obj(vec![
        ("zero_cost_transition_s", Json::Num(it.what_if.zero_cost_transition_s)),
        ("full_gen_train_overlap_s", Json::Num(it.what_if.full_gen_train_overlap_s)),
    ])
}

fn iteration_json(it: &IterationAnalysis) -> Json {
    // Durations only — absolute virtual timestamps depend on how much
    // warmup preceded the window and would add noise to `--check`.
    let path = it
        .segments
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("phase", Json::Str(s.phase.clone())),
                ("role", Json::Str(s.role.clone())),
                ("kind", Json::Str(s.kind.clone())),
                ("name", Json::Str(s.name.clone())),
                ("seconds", Json::Num(s.seconds())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("index", Json::Int(it.index as i64)),
        ("duration_s", Json::Num(it.duration())),
        ("phases_s", num_map(&it.phases)),
        ("critical_path_by_role_s", num_map(&it.by_role)),
        ("critical_path_by_kind_s", num_map(&it.by_kind)),
        ("track_bubble_fraction", num_map(&it.track_bubble)),
        ("role_bubble_fraction", num_map(&it.role_bubble)),
        ("what_if", what_if_json(it)),
        ("critical_path", Json::Arr(path)),
    ])
}

/// What one configuration measured.
pub struct PerfRow {
    /// The configuration.
    pub cfg: PerfConfig,
    /// The measured iterations of the barrier driver, analyzed.
    pub iterations: Vec<IterationAnalysis>,
    /// Latency digests recorded over the measured iterations.
    pub digests: BTreeMap<String, Digest>,
    /// The same placement under the pipelined driver.
    pub pipeline: PipelineRow,
}

/// The pipelined counterpart of a [`PerfRow`]'s barrier pass: the same
/// placement driven by [`PipelinedPpo`] at staleness 1 on a fresh
/// system, reporting *measured* overlap — printed next to the barrier
/// pass's full-overlap what-if bound, so the gate tracks how much of the
/// theoretical headroom the pipeline actually claims.
pub struct PipelineRow {
    /// Pipelined steps driven (one more than the measured iterations).
    pub steps: usize,
    /// Virtual seconds per step, flush included.
    pub iteration_s: f64,
    /// Virtual seconds of generation overlapped with training.
    pub overlap_measured_s: f64,
    /// That overlap as a fraction of the run.
    pub overlap_fraction: f64,
}

impl PerfRow {
    fn json(&self) -> Json {
        let (cfg, pipe) = (&self.cfg, &self.pipeline);
        let (dp, tp, pp) = cfg.layout;
        let digests =
            self.digests.iter().map(|(k, d)| (k.clone(), hf_insight::digest_stats(d))).collect();
        Json::obj(vec![
            ("name", Json::Str(cfg.name.clone())),
            ("gpus", Json::Int(cfg.gpus as i64)),
            ("layout", Json::Str(format!("dp{dp}-tp{tp}-pp{pp}"))),
            ("gen_tp", Json::Int(cfg.tg as i64)),
            ("iterations", Json::Arr(self.iterations.iter().map(iteration_json).collect())),
            (
                "pipeline",
                Json::obj(vec![
                    ("staleness", Json::Int(1)),
                    ("iterations", Json::Int(pipe.steps as i64)),
                    ("iteration_s", Json::Num(pipe.iteration_s)),
                    ("overlap_measured_s", Json::Num(pipe.overlap_measured_s)),
                    ("overlap_fraction", Json::Num(pipe.overlap_fraction)),
                ]),
            ),
            ("digests", Json::Obj(digests)),
        ])
    }
}

/// Runs one configuration under both drivers.
pub fn run_config(cfg: &PerfConfig) -> PerfRow {
    let telemetry = Telemetry::enabled();
    let ctrl = Controller::with_telemetry(
        ClusterSpec::a100_with_gpus(cfg.gpus),
        CommCostModel::default(),
        telemetry.clone(),
    );
    let rc = RlhfConfig::tiny();
    let (dp, tp, pp) = cfg.layout;
    let placement = colocated_ppo(ParallelSpec::new(dp, tp, pp), cfg.tg);
    let sys = RlhfSystem::build(&ctrl, &placement, rc.clone()).expect("build system");
    let prompts = make_prompts(8, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, 0);
    ppo_iteration(&sys, &ctrl, &prompts).expect("warmup iteration");
    telemetry.clear();
    for _ in 0..cfg.iterations {
        ppo_iteration(&sys, &ctrl, &prompts).expect("measured iteration");
    }
    let iterations = analyze_iterations(&SpanGraph::build(telemetry.spans()));
    let digests = telemetry.metrics().digests;
    ctrl.shutdown().expect("shutdown");
    PerfRow { cfg: cfg.clone(), iterations, digests, pipeline: run_pipelined(cfg, &placement, &rc) }
}

fn run_pipelined(cfg: &PerfConfig, placement: &Placement, rc: &RlhfConfig) -> PipelineRow {
    let telemetry = Telemetry::enabled();
    let ctrl = Controller::with_telemetry(
        ClusterSpec::a100_with_gpus(cfg.gpus),
        CommCostModel::default(),
        telemetry.clone(),
    );
    let sys = RlhfSystem::build(&ctrl, placement, rc.clone()).expect("build pipelined system");
    let prompts = make_prompts(8, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, 0);
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: 2 });
    let steps = cfg.iterations + 1;
    let t0 = ctrl.clock();
    for _ in 0..steps {
        driver.step(&sys, &ctrl, &prompts).expect("pipelined step");
    }
    driver.flush(&sys, &ctrl).expect("pipeline flush");
    let total = ctrl.clock() - t0;
    let metrics = telemetry.metrics();
    ctrl.shutdown().expect("shutdown");
    PipelineRow {
        steps,
        iteration_s: total / steps as f64,
        overlap_measured_s: metrics
            .counters
            .get("pipeline.overlap_measured_us")
            .copied()
            .unwrap_or(0) as f64
            / 1e6,
        overlap_fraction: metrics.gauges.get("pipeline.overlap_fraction").copied().unwrap_or(0.0),
    }
}

fn document(rows: &[PerfRow], fast: bool) -> Json {
    Json::obj(vec![
        ("schema", Json::Str("hf-insight.perf_report/v1".into())),
        ("mode", Json::Str(mode(fast).into())),
        ("configs", Json::Arr(rows.iter().map(PerfRow::json).collect())),
    ])
}

/// The `perf_report` experiment: the sweep, its gated JSON document, and
/// a critical-path summary of each configuration's first iteration.
/// `overlap` is the what-if *bound* (perfect gen/train overlap);
/// `pipe overlap` is what the staleness-1 pipelined driver actually
/// claimed of it on the same placement.
pub fn perf_report(fast: bool) -> Report {
    let rows: Vec<PerfRow> = sweep(fast).iter().map(run_config).collect();
    let mut table = Table::new(
        format!("perf report ({})", mode(fast)),
        vec![
            label("config"),
            col("iter", "ms", 3),
            col("dispatch", "ms", 3),
            col("exec", "ms", 3),
            col("trans", "ms", 3),
            col("queue", "ms", 3),
            col("zero-trans", "ms", 3),
            col("overlap", "ms", 3),
            col("pipe iter", "ms", 3),
            col("pipe overlap", "ms", 3),
        ],
    );
    for row in &rows {
        let it = &row.iterations[0];
        let kind = |k: &str| it.by_kind.get(k).copied().unwrap_or(0.0);
        let seconds = [
            it.duration(),
            kind("dispatch"),
            kind("exec"),
            kind("transition"),
            kind("queue_wait"),
            it.what_if.zero_cost_transition_s,
            it.what_if.full_gen_train_overlap_s,
            row.pipeline.iteration_s,
            row.pipeline.overlap_measured_s,
        ];
        let mut cells = vec![row.cfg.name.as_str().into()];
        cells.extend(seconds.map(|s| (s * 1e3).into()));
        table.push(cells);
    }
    Report { json: Some(document(&rows, fast)), ..Report::new(vec![table], Vec::new()) }
}

/// Relative tolerance `--check` allows before failing.
pub const CHECK_REL_TOL: f64 = 0.05;

/// Diffs a rendered report against the baseline text. `Ok` means within
/// tolerance; `Err` carries one line per difference.
pub fn check(current: &str, baseline: &str) -> Result<(), Vec<String>> {
    let b = hf_insight::flatten_json(baseline).map_err(|e| vec![format!("bad baseline: {e}")])?;
    let c = hf_insight::flatten_json(current).map_err(|e| vec![format!("bad report: {e}")])?;
    let diffs = hf_insight::compare_flat(&b, &c, CHECK_REL_TOL);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::baseline_path;

    fn fast_report() -> String {
        perf_report(true).json("perf_report", true).render()
    }

    #[test]
    fn report_has_the_gated_content() {
        let flat = hf_insight::flatten_json(&fast_report()).expect("report parses");
        assert_eq!(flat["schema"], hf_insight::Leaf::Str("hf-insight.perf_report/v1".into()));
        // Critical-path attribution, bubbles, what-ifs, and digests all
        // present for the first config's first iteration.
        let probe = [
            "configs[0].iterations[0].duration_s",
            "configs[0].iterations[0].critical_path_by_kind_s.exec",
            "configs[0].iterations[0].critical_path_by_kind_s.transition",
            "configs[0].iterations[0].track_bubble_fraction.gpu-0",
            "configs[0].iterations[0].role_bubble_fraction.actor",
            "configs[0].iterations[0].what_if.zero_cost_transition_s",
            "configs[0].pipeline.iteration_s",
            "configs[0].pipeline.overlap_measured_s",
            "configs[0].pipeline.overlap_fraction",
            "configs[0].digests.phase.generation.seconds.p50",
            "configs[0].digests.genserve.rollout.tokens_per_s.count",
        ];
        for key in probe {
            assert!(flat.contains_key(key), "missing {key}");
        }
        // Gap-free tiling survives the real runtime, not just unit
        // fixtures: segments sum to the iteration duration.
        let dur = match flat["configs[0].iterations[0].duration_s"] {
            hf_insight::Leaf::Num(d) => d,
            ref other => panic!("duration leaf {other:?}"),
        };
        let segments: Vec<f64> = flat
            .iter()
            .filter(|(k, _)| {
                k.starts_with("configs[0].iterations[0].critical_path[") && k.ends_with(".seconds")
            })
            .map(|(_, v)| match v {
                hf_insight::Leaf::Num(s) => *s,
                other => panic!("seconds leaf {other:?}"),
            })
            .collect();
        // The report prints whole microseconds, so every segment — and
        // the duration — is up to half a microsecond from what it rounds:
        // the sums may differ by that much per rounded figure, not by one
        // microsecond in all (1 042 vs 1 043 µs is a correct tiling).
        let path_total: f64 = segments.iter().sum();
        let slack = 0.5e-6 * (segments.len() + 1) as f64;
        assert!(
            (path_total - dur).abs() <= slack + 1e-12,
            "critical path must tile the iteration: {path_total} vs {dur} (± {slack})"
        );
    }

    #[test]
    fn check_matches_committed_baseline() {
        let baseline = std::fs::read_to_string(baseline_path("perf_report", true))
            .expect("committed baseline exists; regenerate with `hf-bench perf_report --fast`");
        if let Err(diffs) = check(&fast_report(), &baseline) {
            panic!(
                "fast report drifted from the committed baseline; if intentional, \
                 regenerate it with `hf-bench perf_report --fast --json` and copy \
                 BENCH_perf_report.json over crates/bench/baselines/perf_report_fast.json:\n{}",
                diffs.join("\n")
            );
        }
    }
}
