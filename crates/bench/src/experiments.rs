//! Experiment implementations, one per table/figure.

use hf_baselines::{estimate, Estimate, System};
use hf_core::WorkerLayout;
use hf_hybridengine::{transition_metrics, transition_time, EngineMode, TransitionMetrics};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper, PlacementPlan};
use hf_modelspec::{memory, ModelConfig, PerfModel, RlhfWorkload, TrainEngine};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::Placement;
use hf_simcluster::{ClusterSpec, DeviceId, ResourcePool};

/// Builds the analytic substrate for `gpus` A100s.
pub(crate) fn perf(gpus: usize) -> PerfModel {
    PerfModel::new(ClusterSpec::a100_with_gpus(gpus))
}

/// All four PPO models colocated on devices `0..spec.world()`, the actor
/// generating at TP `tg` under strided grouping.
pub(crate) fn colocated_ppo(spec: ParallelSpec, tg: usize) -> Placement {
    let gen = GenGrouping::new(spec, 1, tg, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, spec.world());
    Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false)
}

/// The paper's cluster-size ladder for a model scale: smallest non-OOM
/// power-of-two machine count up to 128 GPUs (§8.2).
pub(crate) fn gpu_ladder(model: &ModelConfig) -> Vec<usize> {
    let min = match model.name.as_str() {
        "llama-7b" => 8,
        "llama-13b" => 16,
        "llama-34b" => 32,
        "llama-70b" => 64,
        _ => 8,
    };
    let mut out = Vec::new();
    let mut n = min;
    while n <= 128 {
        out.push(n);
        n *= 2;
    }
    out
}

/// One throughput measurement (Figures 9, 10, 11).
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Model name.
    pub(crate) model: String,
    /// Cluster size in GPUs.
    pub(crate) gpus: usize,
    /// System measured.
    pub(crate) system: System,
    /// Tokens/s, `None` when the system OOMs at this scale.
    pub(crate) throughput: Option<f64>,
}

/// Figures 9/10/11: end-to-end RLHF throughput for every system across
/// the model ladder. `models`/`sizes` allow trimming for quick runs.
pub(crate) fn e2e_throughput(
    algo: AlgoKind,
    models: &[ModelConfig],
    max_gpus: usize,
) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for model in models {
        let ladder: Vec<usize> = gpu_ladder(model).into_iter().filter(|&n| n <= max_gpus).collect();
        for &gpus in &ladder {
            let pm = perf(gpus);
            let df = DataflowSpec::uniform(algo, model.clone(), RlhfWorkload::paper());
            for system in System::all() {
                let tp = estimate(system, &pm, &df, gpus).map(|e| e.throughput(&df));
                rows.push(ThroughputRow {
                    model: model.name.clone(),
                    gpus,
                    system,
                    throughput: tp,
                });
            }
        }
    }
    rows
}

/// Headline statistics derived from a throughput sweep (§8.2): average
/// and maximum speedup of HybridFlow over each baseline.
pub(crate) fn speedups(rows: &[ThroughputRow]) -> Vec<(System, f64, f64)> {
    let mut out = Vec::new();
    for baseline in [System::DeepSpeedChat, System::OpenRlhf, System::NemoAligner] {
        let mut ratios = Vec::new();
        for r in rows.iter().filter(|r| r.system == System::HybridFlow) {
            let hf = match r.throughput {
                Some(t) => t,
                None => continue,
            };
            if let Some(b) =
                rows.iter().find(|b| b.system == baseline && b.model == r.model && b.gpus == r.gpus)
            {
                if let Some(bt) = b.throughput {
                    ratios.push(hf / bt);
                }
            }
        }
        if ratios.is_empty() {
            continue;
        }
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().cloned().fold(0.0f64, f64::max);
        out.push((baseline, avg, max));
    }
    out
}

/// One placement measurement (Figures 12, 13).
#[derive(Debug, Clone)]
pub struct PlacementRow {
    /// Model label.
    pub(crate) model: String,
    /// Cluster size.
    pub(crate) gpus: usize,
    /// Placement label (`colocate` / `standalone` / `split` / `hybridflow`).
    pub(crate) placement: String,
    /// Tokens/s, `None` if infeasible.
    pub(crate) throughput: Option<f64>,
}

/// Figure 12: HybridFlow under the named placements vs the Algorithm 1
/// optimum, for one model across cluster sizes.
pub(crate) fn placement_comparison(df: &DataflowSpec, sizes: &[usize]) -> Vec<PlacementRow> {
    let mut rows = Vec::new();
    for &gpus in sizes {
        let mapper = Mapper::new(perf(gpus), df.clone(), gpus);
        let roles = df.roles();
        let named = [
            ("colocate", PlacementPlan::colocate(&roles)),
            ("standalone", PlacementPlan::standalone(&roles)),
            ("split", PlacementPlan::split(&roles)),
        ];
        for (label, plan) in named {
            let tp = mapper.evaluate_plan(&plan).map(|m| m.throughput(df));
            rows.push(PlacementRow {
                model: df.actor.name.clone(),
                gpus,
                placement: label.into(),
                throughput: tp,
            });
        }
        let best = mapper.search().map(|m| m.throughput(df));
        rows.push(PlacementRow {
            model: df.actor.name.clone(),
            gpus,
            placement: "hybridflow".into(),
            throughput: best,
        });
    }
    rows
}

/// One transition measurement (Figure 14).
#[derive(Debug, Clone)]
pub struct TransitionRow {
    /// Model name.
    pub(crate) model: String,
    /// Cluster size used for this model scale.
    pub(crate) gpus: usize,
    /// System.
    pub(crate) system: System,
    /// Transition time in seconds, `None` if the system OOMs.
    pub(crate) seconds: Option<f64>,
}

/// Figure 14: train↔generation transition time per system across model
/// scales (HybridFlow vs DS-Chat vs OpenRLHF; NeMo shares weights).
///
/// HybridFlow's entry uses a fixed canonical actor layout per model
/// (training `1-8-d`, generation `1-2`) so the column isolates the
/// *engine's* resharding cost rather than the mapper's per-scale layout
/// choices; the baselines reshard per their own engines.
pub(crate) fn transition_comparison(models: &[ModelConfig]) -> Vec<TransitionRow> {
    let mut rows = Vec::new();
    for model in models {
        let gpus = *gpu_ladder(model).first().expect("ladder non-empty");
        let pm = perf(gpus);
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model.clone(), RlhfWorkload::paper());
        for system in [System::DeepSpeedChat, System::OpenRlhf, System::HybridFlow] {
            let t = if system == System::HybridFlow {
                let spec = ParallelSpec::new(1, 8, gpus / 8);
                let grouping = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
                let devices: Vec<DeviceId> = (0..gpus).map(DeviceId).collect();
                Some(transition_time(
                    EngineMode::HybridFlow,
                    model,
                    &spec,
                    &grouping,
                    &devices,
                    &pm.cluster,
                    &pm.comm,
                ))
            } else {
                estimate(system, &pm, &df, gpus).map(|e| e.transition)
            };
            rows.push(TransitionRow { model: model.name.clone(), gpus, system, seconds: t });
        }
    }
    rows
}

/// One Figure 15 measurement.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Generation TP size swept.
    pub(crate) tg: usize,
    /// Transition seconds.
    pub(crate) transition: f64,
    /// Generation seconds.
    pub(crate) generation: f64,
    /// KV-cache waves needed.
    pub(crate) waves: usize,
}

/// Figure 15: transition + generation time on 16 GPUs with training
/// layout 1-8-2 and generation TP `t_g ∈ {1,2,4,8}` (`p_g = 1`,
/// `d_g = 8/t_g`), all models colocated, best-effort KV cache.
pub(crate) fn breakdown_16gpus(model: &ModelConfig) -> Vec<BreakdownRow> {
    let gpus = 16;
    let pm = perf(gpus);
    let w = RlhfWorkload::paper();
    let spec = ParallelSpec::new(1, 8, 2);
    let devices: Vec<DeviceId> = (0..gpus).map(DeviceId).collect();
    // All four PPO models colocated: their states squeeze the KV budget.
    let resident: f64 = {
        let trained = memory::train_state_bytes_per_gpu(model, &spec, TrainEngine::Megatron3D);
        let infer = memory::infer_param_bytes_per_gpu(model, spec.mp());
        2.0 * trained + 2.0 * infer
    };
    let mut rows = Vec::new();
    for tg in [1usize, 2, 4, 8] {
        let grouping = GenGrouping::new(spec, 1, tg, GroupingMethod::Strided);
        let replicas = grouping.gen_replicas_total();
        let kv_budget =
            (pm.usable_gpu_bytes() - resident - memory::gen_param_bytes_per_gpu(model, 1, tg)
                + memory::infer_param_bytes_per_gpu(model, spec.mp()))
            .max(1e9);
        let bd = pm.generation_time(
            model,
            1,
            tg,
            replicas,
            &devices,
            w.global_batch,
            w.prompt_len,
            w.response_len,
            kv_budget,
            true,
        );
        let trans = transition_time(
            EngineMode::HybridFlow,
            model,
            &spec,
            &grouping,
            &devices,
            &pm.cluster,
            &pm.comm,
        );
        rows.push(BreakdownRow { tg, transition: trans, generation: bd.total(), waves: bd.waves });
    }
    rows
}

/// One *measured* Figure 15 row: per-phase virtual seconds recorded by
/// telemetry while a functional tiny-model PPO iteration actually runs
/// on 16 simulated GPUs (training layout 1-8-2, generation TP `t_g`).
#[derive(Debug, Clone)]
pub struct MeasuredBreakdownRow {
    /// Generation TP size swept.
    pub(crate) tg: usize,
    /// Slowest rank's train→generation all-gather (virtual seconds).
    pub(crate) transition: f64,
    /// Generation-phase virtual seconds (includes the transition).
    pub(crate) generation: f64,
    /// Experience-preparation virtual seconds.
    pub(crate) preparation: f64,
    /// Training-phase virtual seconds.
    pub(crate) training: f64,
    /// Transition bytes received per GPU (measured by the byte counter).
    pub(crate) transition_bytes_per_gpu: u64,
}

/// Figure 15, measured: runs one functional PPO iteration per `t_g` with
/// telemetry enabled and reads the phase/transition breakdown off the
/// recorded spans. The tiny model makes absolute times incomparable to
/// the analytic llama rows, but the t_g *trend* — transition volume
/// shrinking as t_g approaches the training TP size — is the real
/// runtime's, not a closed form.
pub(crate) fn measured_breakdown_16gpus(tgs: &[usize]) -> Vec<MeasuredBreakdownRow> {
    use hf_core::Controller;
    use hf_rlhf::env::make_prompts;
    use hf_rlhf::{ppo_iteration, RlhfConfig, RlhfSystem};
    use hf_simcluster::CommCostModel;
    use hf_telemetry::Telemetry;

    let gpus = 16;
    let spec = ParallelSpec::new(1, 8, 2);
    let mut rows = Vec::new();
    for &tg in tgs {
        let telemetry = Telemetry::enabled();
        let ctrl = Controller::with_telemetry(
            ClusterSpec::a100_with_gpus(gpus),
            CommCostModel::default(),
            telemetry.clone(),
        );
        let cfg = RlhfConfig::tiny();
        let placement = colocated_ppo(spec, tg);
        let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).expect("build system");
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
        ppo_iteration(&sys, &ctrl, &prompts).expect("warmup iteration");
        telemetry.clear();
        ppo_iteration(&sys, &ctrl, &prompts).expect("measured iteration");

        let transition = telemetry
            .spans()
            .iter()
            .filter(|s| s.name == "transition.to_generation")
            .map(|s| s.duration())
            .fold(0.0, f64::max);
        let phase = |name: &str| {
            telemetry.digest(&format!("phase.{name}.seconds")).map(|d| d.sum).unwrap_or(0.0)
        };
        rows.push(MeasuredBreakdownRow {
            tg,
            transition,
            generation: phase("generation"),
            preparation: phase("experience_preparation"),
            training: phase("training"),
            transition_bytes_per_gpu: telemetry.counter("transition.to_generation.recv_bytes")
                / gpus as u64,
        });
    }
    rows
}

/// The Figure 16 scale ladder: model size and cluster size grow together.
pub(crate) fn mapping_ladder() -> [(ModelConfig, usize); 4] {
    [
        (ModelConfig::llama_7b(), 16),
        (ModelConfig::llama_13b(), 32),
        (ModelConfig::llama_34b(), 64),
        (ModelConfig::llama_70b(), 128),
    ]
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Engine label.
    pub(crate) engine: &'static str,
    /// Closed-form metrics (fractions of model size `M = 1`).
    pub(crate) metrics: TransitionMetrics,
}

/// Table 2: transition overheads for the three engine designs, with
/// `M = 1` so entries read as fractions of the model size.
pub(crate) fn table2(spec: &ParallelSpec, pg: usize, tg: usize) -> Vec<Table2Row> {
    [
        ("DS-Chat", EngineMode::DsChat),
        ("HybridFlow-V", EngineMode::HybridFlowV),
        ("HybridFlow", EngineMode::HybridFlow),
    ]
    .into_iter()
    .map(|(label, mode)| Table2Row {
        engine: label,
        metrics: transition_metrics(mode, 1.0, spec, pg, tg),
    })
    .collect()
}

/// Figure 13 setting: 13B actor/reference with 70B critic/reward.
pub(crate) fn large_critic_comparison(sizes: &[usize]) -> Vec<PlacementRow> {
    let df = DataflowSpec::large_critic(RlhfWorkload::paper());
    let mut rows = placement_comparison(&df, sizes);
    for r in rows.iter_mut() {
        r.model = "13B actor + 70B critic".into();
    }
    rows
}

/// Strong-scaling efficiency over a throughput sweep (§8.2: 66.8%).
pub(crate) fn scaling_efficiency(rows: &[ThroughputRow]) -> Option<f64> {
    let mut effs = Vec::new();
    let models: Vec<String> = {
        let mut m: Vec<String> = rows.iter().map(|r| r.model.clone()).collect();
        m.sort();
        m.dedup();
        m
    };
    for model in models {
        let mut hf: Vec<(usize, f64)> = rows
            .iter()
            .filter(|r| r.system == System::HybridFlow && r.model == model)
            .filter_map(|r| r.throughput.map(|t| (r.gpus, t)))
            .collect();
        hf.sort_by_key(|&(g, _)| g);
        if hf.len() < 2 {
            continue;
        }
        let (g0, t0) = hf[0];
        let (g1, t1) = hf[hf.len() - 1];
        effs.push((t1 / t0) / (g1 as f64 / g0 as f64));
    }
    if effs.is_empty() {
        None
    } else {
        Some(effs.iter().sum::<f64>() / effs.len() as f64)
    }
}

/// Table 1-style stage timeline per system.
pub(crate) fn stage_breakdown(df: &DataflowSpec, gpus: usize) -> Vec<(System, Option<Estimate>)> {
    let pm = perf(gpus);
    System::all().into_iter().map(|s| (s, estimate(s, &pm, df, gpus))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_sweep_shapes_hold_on_trimmed_grid() {
        let rows = e2e_throughput(AlgoKind::Ppo, &[ModelConfig::llama_7b()], 16);
        // HybridFlow present and fastest at every feasible point.
        for gpus in [8usize, 16] {
            let get = |s: System| {
                rows.iter().find(|r| r.gpus == gpus && r.system == s).and_then(|r| r.throughput)
            };
            let hf = get(System::HybridFlow).expect("hybridflow feasible");
            for b in [System::DeepSpeedChat, System::OpenRlhf, System::NemoAligner] {
                if let Some(bt) = get(b) {
                    assert!(hf > bt, "{b:?} at {gpus} GPUs: {bt} >= {hf}");
                }
            }
        }
    }

    #[test]
    fn speedups_are_reported_per_baseline() {
        let rows = e2e_throughput(AlgoKind::Ppo, &[ModelConfig::llama_7b()], 16);
        let sp = speedups(&rows);
        assert_eq!(sp.len(), 3);
        for (_, avg, max) in sp {
            assert!(avg > 1.0 && max >= avg);
        }
    }

    #[test]
    fn fig15_best_tg_is_interior_for_7b() {
        let rows = breakdown_16gpus(&ModelConfig::llama_7b());
        let best = rows
            .iter()
            .min_by(|a, b| (a.transition + a.generation).total_cmp(&(b.transition + b.generation)))
            .unwrap();
        assert!(best.tg == 2 || best.tg == 4, "best t_g = {}", best.tg);
        let t8 = rows.iter().find(|r| r.tg == 8).unwrap();
        assert!(t8.generation > best.generation);
    }

    #[test]
    fn fig15_13b_prefers_larger_tg_than_7b() {
        // §8.4: t_g = 2 best for 7B, t_g = 4 best for 13B.
        let best_of = |m: &ModelConfig| {
            breakdown_16gpus(m)
                .into_iter()
                .min_by(|a, b| {
                    (a.transition + a.generation).total_cmp(&(b.transition + b.generation))
                })
                .unwrap()
                .tg
        };
        assert!(best_of(&ModelConfig::llama_13b()) >= best_of(&ModelConfig::llama_7b()));
    }

    #[test]
    fn table2_matches_closed_forms() {
        let rows = table2(&ParallelSpec::new(1, 8, 2), 1, 2);
        assert!((rows[0].metrics.comm_volume - 15.0 / 16.0).abs() < 1e-9);
        assert!((rows[1].metrics.comm_volume - 7.0 / 8.0).abs() < 1e-9);
        assert!((rows[2].metrics.comm_volume - 6.0 / 16.0).abs() < 1e-9);
        assert_eq!(rows[2].metrics.redundancy, 0.0);
    }

    #[test]
    fn transition_rows_order_correctly() {
        let rows = transition_comparison(&[ModelConfig::llama_7b()]);
        let of = |s: System| rows.iter().find(|r| r.system == s).unwrap().seconds.unwrap();
        assert!(of(System::HybridFlow) < of(System::DeepSpeedChat));
        assert!(of(System::HybridFlow) < of(System::OpenRlhf));
    }

    #[test]
    fn placement_rows_include_all_variants() {
        let df =
            DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
        let rows = placement_comparison(&df, &[16]);
        assert_eq!(rows.len(), 4);
        let hf = rows.iter().find(|r| r.placement == "hybridflow").unwrap();
        for r in &rows {
            if let (Some(a), Some(b)) = (hf.throughput, r.throughput) {
                assert!(a >= b - 1e-9, "auto must match or beat {}", r.placement);
            }
        }
    }
}
