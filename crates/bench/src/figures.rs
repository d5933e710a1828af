//! The paper's figures and tables (§8) as registry entries: each one
//! runs the row computation in [`crate::experiments`] and lays the rows
//! out as typed tables. Closed-form or analytic, except the measured
//! Figure 15 (the functional runtime's virtual clock) and Figure 16 (the
//! host clock).

use std::time::Instant;

use hf_baselines::{estimate, System};
use hf_hybridengine::{transition_time, EngineMode};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper};
use hf_modelspec::{ModelConfig, PerfModel, RlhfWorkload};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, GpuSpec};

use crate::experiments::{self, PlacementRow, ThroughputRow};
use crate::table::{col, label, ratio, Cell, Report, Table};

const BASELINES: [System; 3] = [System::DeepSpeedChat, System::OpenRlhf, System::NemoAligner];

/// The `(model, gpus)` points of a sweep, sorted and distinct.
fn points<'a>(keys: impl Iterator<Item = (&'a String, usize)>) -> Vec<(String, usize)> {
    let mut keys: Vec<(String, usize)> = keys.map(|(m, g)| (m.clone(), g)).collect();
    keys.sort();
    keys.dedup();
    keys
}

fn throughput_table(title: &str, rows: &[ThroughputRow]) -> Table {
    let mut table = Table::new(
        title,
        vec![
            label("model"),
            label("gpus"),
            col("DS-Chat", "tokens/s", 0),
            col("OpenRLHF", "tokens/s", 0),
            col("NeMo", "tokens/s", 0),
            col("HybridFlow", "tokens/s", 0),
            col("speedup", "x", 2),
        ],
    );
    for (model, gpus) in points(rows.iter().map(|r| (&r.model, r.gpus))) {
        let get = |s: System| {
            rows.iter()
                .find(|r| r.model == model && r.gpus == gpus && r.system == s)
                .and_then(|r| r.throughput)
        };
        let hf = get(System::HybridFlow);
        let best_base = BASELINES.into_iter().filter_map(get).reduce(f64::max);
        let [ds, open, nemo]: [Cell; 3] = BASELINES.map(|s| get(s).into());
        let speedup = ratio(hf, best_base);
        table.push(vec![model.into(), gpus.into(), ds, open, nemo, hf.into(), speedup]);
    }
    table
}

/// Figures 9/10/11: the throughput sweep plus the derived speedups.
fn throughput_figure(algo: AlgoKind, title: &str) -> Report {
    let rows = experiments::e2e_throughput(algo, &ModelConfig::paper_sizes(), 128);
    let mut speedups = Table::new(
        "HybridFlow speedup over each baseline",
        vec![label("baseline"), col("avg", "x", 2), col("max", "x", 2)],
    );
    for (base, avg, max) in experiments::speedups(&rows) {
        speedups.push(vec![base.label().into(), avg.into(), max.into()]);
    }
    let mut notes = vec!["(OOM = configuration does not fit; paper §8.2 workload)".to_string()];
    if let Some(eff) = experiments::scaling_efficiency(&rows) {
        notes.push(format!("strong-scaling efficiency: {:.1}%", eff * 100.0));
    }
    Report::new(vec![throughput_table(title, &rows), speedups], notes)
}

/// Figure 9: PPO throughput across model sizes and cluster scales.
pub(crate) fn fig9_ppo(_fast: bool) -> Report {
    throughput_figure(AlgoKind::Ppo, "Figure 9: PPO throughput")
}

/// Figure 10: ReMax throughput (no critic; NeMo-Aligner unsupported).
pub(crate) fn fig10_remax(_fast: bool) -> Report {
    throughput_figure(AlgoKind::ReMax, "Figure 10: ReMax throughput")
}

/// Figure 11: Safe-RLHF throughput (extra cost model + pre-train loss).
pub(crate) fn fig11_safe_rlhf(_fast: bool) -> Report {
    throughput_figure(AlgoKind::SafeRlhf, "Figure 11: Safe-RLHF throughput")
}

/// §8.2 headline numbers: speedups over each baseline and strong-scaling
/// efficiency, across all three algorithms.
pub(crate) fn headline_speedups(_fast: bool) -> Report {
    let mut speedups = Table::new(
        "§8.2 headline: HybridFlow speedup over each baseline",
        vec![label("algorithm"), label("baseline"), col("avg", "x", 2), col("max", "x", 2)],
    );
    let mut scaling = Table::new(
        "strong-scaling efficiency",
        vec![label("algorithm"), col("efficiency", "%", 1)],
    );
    let mut averages = Vec::new();
    for (algo, name) in
        [(AlgoKind::Ppo, "PPO"), (AlgoKind::ReMax, "ReMax"), (AlgoKind::SafeRlhf, "Safe-RLHF")]
    {
        let rows = experiments::e2e_throughput(algo, &ModelConfig::paper_sizes(), 128);
        for (base, avg, max) in experiments::speedups(&rows) {
            speedups.push(vec![name.into(), base.label().into(), avg.into(), max.into()]);
            averages.push(avg);
        }
        if let Some(eff) = experiments::scaling_efficiency(&rows) {
            scaling.push(vec![name.into(), (eff * 100.0).into()]);
        }
    }
    let lo = averages.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = averages.iter().copied().fold(0.0, f64::max);
    let note = format!(
        "overall average-speedup range: {lo:.2}x – {hi:.2}x (paper: 1.53x–20.57x point range)"
    );
    Report::new(vec![speedups, scaling], vec![note])
}

fn placement_figure(title: &str, rows: &[PlacementRow]) -> Report {
    const NAMED: [&str; 3] = ["colocate", "standalone", "split"];
    let mut table = Table::new(
        title,
        vec![
            label("model"),
            label("gpus"),
            col("colocate", "tokens/s", 0),
            col("standalone", "tokens/s", 0),
            col("split", "tokens/s", 0),
            col("hybridflow", "tokens/s", 0),
            label("best"),
        ],
    );
    for (model, gpus) in points(rows.iter().map(|r| (&r.model, r.gpus))) {
        let get = |p: &str| {
            rows.iter()
                .find(|r| r.model == model && r.gpus == gpus && r.placement == p)
                .and_then(|r| r.throughput)
        };
        let best = NAMED
            .into_iter()
            .filter_map(|l| get(l).map(|x| (l, x)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("-", |(l, _)| l);
        let [colocate, standalone, split]: [Cell; 3] = NAMED.map(|l| get(l).into());
        table.push(vec![
            model.as_str().into(),
            gpus.into(),
            colocate,
            standalone,
            split,
            get("hybridflow").into(),
            best.into(),
        ]);
    }
    Report::new(vec![table], Vec::new())
}

/// Figure 12: throughput under colocate / standalone / split / the
/// Algorithm 1 optimum, 13B & 34B, 16–128 GPUs.
pub(crate) fn fig12_placement(_fast: bool) -> Report {
    let mut rows = Vec::new();
    for (model, sizes) in [
        (ModelConfig::llama_13b(), vec![16usize, 32, 64, 96, 128]),
        (ModelConfig::llama_34b(), vec![32usize, 64, 96, 128]),
    ] {
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model, RlhfWorkload::paper());
        rows.extend(experiments::placement_comparison(&df, &sizes));
    }
    placement_figure("Figure 12: throughput under different placements", &rows)
}

/// Figure 13: placements with a 13B actor/reference and 70B
/// critic/reward, 32–128 GPUs.
pub(crate) fn fig13_large_critic(_fast: bool) -> Report {
    let rows = experiments::large_critic_comparison(&[32, 64, 96, 128]);
    placement_figure("Figure 13: 13B actor + 70B critic/reward placements", &rows)
}

/// Figure 14: train↔generation transition time across model scales and
/// systems.
pub(crate) fn fig14_transition(_fast: bool) -> Report {
    let rows = experiments::transition_comparison(&ModelConfig::paper_sizes());
    let mut table = Table::new(
        "Figure 14: transition time between training and generation",
        vec![
            label("model"),
            label("gpus"),
            col("DS-Chat", "s", 2),
            col("OpenRLHF", "s", 2),
            col("HybridFlow", "s", 2),
            col("reduction", "%", 1),
        ],
    );
    let mut models: Vec<(&String, usize)> = rows.iter().map(|r| (&r.model, r.gpus)).collect();
    models.dedup();
    for (model, gpus) in models {
        let get = |s: System| {
            rows.iter().find(|r| r.model == *model && r.system == s).and_then(|r| r.seconds)
        };
        let (ds, open, hf) =
            (get(System::DeepSpeedChat), get(System::OpenRlhf), get(System::HybridFlow));
        let reduction = match (hf, [ds, open].into_iter().flatten().reduce(f64::max)) {
            (Some(h), Some(worst)) => Cell::Num((1.0 - h / worst) * 100.0),
            _ => "-".into(),
        };
        table.push(vec![
            model.as_str().into(),
            gpus.into(),
            ds.into(),
            open.into(),
            hf.into(),
            reduction,
        ]);
    }
    Report::new(vec![table], Vec::new())
}

/// Figure 15: transition + generation time vs generation TP size on 16
/// GPUs (training layout 1-8-2, `p_g = 1`, `d_g = 8/t_g`).
pub(crate) fn fig15_breakdown(_fast: bool) -> Report {
    let tables = [ModelConfig::llama_7b(), ModelConfig::llama_13b()]
        .iter()
        .map(|model| {
            let rows = experiments::breakdown_16gpus(model);
            let total = |r: &experiments::BreakdownRow| r.transition + r.generation;
            let best =
                rows.iter().min_by(|a, b| total(a).total_cmp(&total(b))).map(|r| r.tg).unwrap();
            let mut table = Table::new(
                format!("Figure 15: {} on 16 GPUs, train 1-8-2", model.name),
                vec![
                    label("t_g"),
                    label("best"),
                    col("transition", "s", 2),
                    col("generation", "s", 2),
                    col("total", "s", 2),
                    label("KV waves"),
                ],
            );
            for r in &rows {
                table.push(vec![
                    r.tg.into(),
                    if r.tg == best { "*" } else { "" }.into(),
                    r.transition.into(),
                    r.generation.into(),
                    total(r).into(),
                    r.waves.into(),
                ]);
            }
            table
        })
        .collect();
    let note = "(* best t_g; paper: t_g=2 best for 7B, t_g=4 for 13B, t_g=8 worst)";
    Report::new(tables, vec![note.into()])
}

/// Figure 15, measured: the same sweep on a functional tiny-model PPO
/// iteration, read off the runtime's telemetry spans.
pub(crate) fn fig15_breakdown_measured(_fast: bool) -> Report {
    let mut table = Table::new(
        "Figure 15, measured: functional tiny-model PPO iteration (16 GPUs, train 1-8-2)",
        vec![
            label("t_g"),
            col("transition", "ms", 4),
            col("generation", "ms", 4),
            col("preparation", "ms", 4),
            col("training", "ms", 4),
            label("bytes/GPU"),
        ],
    );
    for r in experiments::measured_breakdown_16gpus(&[1, 2, 4, 8]) {
        table.push(vec![
            r.tg.into(),
            (r.transition * 1e3).into(),
            (r.generation * 1e3).into(),
            (r.preparation * 1e3).into(),
            (r.training * 1e3).into(),
            r.transition_bytes_per_gpu.into(),
        ]);
    }
    let notes = [
        "(virtual time from the real runtime; tiny model, so compare trends, not scale)",
        "(transition bytes/GPU fall as t_g grows toward the training TP size,",
        " vanishing at t_g = 8 where micro-DP groups are singletons — Table 2)",
    ];
    Report::new(vec![table], notes.map(String::from).to_vec())
}

/// Figure 16: device-mapping algorithm runtime over the scale ladder
/// (one cold search per point, host clock).
pub(crate) fn fig16_mapping_runtime(_fast: bool) -> Report {
    let mut table = Table::new(
        "Figure 16: auto-mapping algorithm runtime",
        vec![
            label("model"),
            label("gpus"),
            col("runtime", "us", 1),
            label("(plan,alloc) evals"),
            label("pruned"),
            col("cache hit rate", "%", 1),
        ],
    );
    for (model, gpus) in experiments::mapping_ladder() {
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model.clone(), RlhfWorkload::paper());
        let mapper = Mapper::new(experiments::perf(gpus), df, gpus);
        let t0 = Instant::now();
        let best = mapper.search();
        let seconds = t0.elapsed().as_secs_f64();
        assert!(best.is_some(), "{} on {gpus} GPUs must map", model.name);
        let stats = mapper.stats();
        table.push(vec![
            model.name.into(),
            gpus.into(),
            (seconds * 1e6).into(),
            stats.evaluations.into(),
            stats.pruned.into(),
            (stats.cache_hit_rate() * 100.0).into(),
        ]);
    }
    Report::new(vec![table], vec!["(paper: linear growth, ≤ half an hour with caching)".into()])
}

/// Table 1: qualitative framework comparison plus an estimated stage
/// timeline of one PPO iteration per system.
pub(crate) fn table1_comparison(_fast: bool) -> Report {
    let mut facts = Table::new(
        "Table 1: RLHF framework comparison",
        vec![label("system"), label("parallelism"), label("actor weights"), label("placement")],
    );
    for row in [
        ["DeepSpeed-Chat", "ZeRO train / TP gen", "full-cluster reshard", "colocate all"],
        ["OpenRLHF", "ZeRO train / TP gen", "two weight copies + sync", "standalone"],
        ["NeMo-Aligner", "3D train = 3D gen", "shared weights (no KV cache)", "split"],
        ["HybridFlow", "3D/ZeRO/FSDP train, 3D gen", "zero-redundancy reshard", "any placement"],
    ] {
        facts.push(row.map(Cell::from).to_vec());
    }
    let mut timeline = Table::new(
        "estimated one-iteration stage timeline (7B models, 16 GPUs)",
        vec![
            label("system"),
            col("total", "s", 1),
            col("gen", "s", 1),
            col("prep", "s", 1),
            col("train", "s", 1),
        ],
    );
    let df = DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::llama_7b(), RlhfWorkload::paper());
    for (sys, est) in experiments::stage_breakdown(&df, 16) {
        let stage = |f: fn(&hf_baselines::Estimate) -> f64| Cell::from(est.as_ref().map(f));
        timeline.push(vec![
            sys.label().into(),
            stage(|e| e.total()),
            stage(|e| e.generation),
            stage(|e| e.preparation),
            stage(|e| e.training),
        ]);
    }
    Report::new(vec![facts, timeline], Vec::new())
}

/// Table 2: transition overhead between training and generation for the
/// three actor-engine designs, as fractions of the model size M.
pub(crate) fn table2_transition(_fast: bool) -> Report {
    let tables = [
        (ParallelSpec::new(1, 8, 2), 1usize, 2usize),
        (ParallelSpec::new(2, 4, 4), 1, 2),
        (ParallelSpec::new(4, 8, 4), 2, 2),
    ]
    .into_iter()
    .map(|(spec, pg, tg)| {
        let mut table = Table::new(
            format!("Table 2: transition overhead, training {spec}, generation {pg}-{tg}"),
            vec![
                label("engine"),
                col("comm volume", "M", 4),
                col("peak memory", "M", 4),
                col("redundancy", "M", 4),
            ],
        );
        for r in experiments::table2(&spec, pg, tg) {
            let m = r.metrics;
            table.push(vec![
                r.engine.into(),
                m.comm_volume.into(),
                m.peak_memory.into(),
                m.redundancy.into(),
            ]);
        }
        table
    })
    .collect();
    Report::new(tables, Vec::new())
}

/// What-if hardware study (beyond the paper; the §6 note that the
/// mapping algorithm extends to other devices by swapping the
/// simulator's GPU spec): predicted HybridFlow PPO throughput on
/// A100-40G vs A100-80G vs H100 clusters.
pub(crate) fn whatif_hardware(_fast: bool) -> Report {
    let a100_40g =
        |gpus| ClusterSpec { gpu: GpuSpec::a100_40g(), ..ClusterSpec::a100_with_gpus(gpus) };
    let mut table = Table::new(
        "What-if: HybridFlow PPO throughput across GPU generations",
        vec![
            label("model"),
            label("gpus"),
            col("A100-40G", "tokens/s", 0),
            col("A100-80G", "tokens/s", 0),
            col("H100", "tokens/s", 0),
            col("H100 vs 80G", "x", 2),
        ],
    );
    for (model, gpus) in [
        (ModelConfig::llama_7b(), 16usize),
        (ModelConfig::llama_13b(), 32),
        (ModelConfig::llama_70b(), 64),
    ] {
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model.clone(), RlhfWorkload::paper());
        let tp_of = |cluster: ClusterSpec| {
            estimate(System::HybridFlow, &PerfModel::new(cluster), &df, gpus)
                .map(|e| e.throughput(&df))
        };
        let a40 = tp_of(a100_40g(gpus));
        let a80 = tp_of(ClusterSpec::a100_with_gpus(gpus));
        let h100 = tp_of(ClusterSpec::h100_with_gpus(gpus));
        table.push(vec![
            model.name.into(),
            gpus.into(),
            a40.into(),
            a80.into(),
            h100.into(),
            ratio(h100, a80),
        ]);
    }
    let notes = [
        "(expected: 40G forces larger model-parallel sizes or OOMs outright;",
        " H100's 3.2x FLOPs and 1.7x HBM bandwidth lift throughput 2-3x)",
    ];
    Report::new(vec![table], notes.map(String::from).to_vec())
}

/// The two design ablations DESIGN.md argues from: strided vs vanilla
/// generation grouping (§5.3) as the 13B transition time each implies,
/// and per-call vs per-operator controller dispatch (§2.2) as the
/// modelled dispatch budget of one PPO iteration.
pub(crate) fn ablations(_fast: bool) -> Report {
    let model = ModelConfig::llama_13b();
    let spec = ParallelSpec::new(1, 8, 2);
    let cluster = ClusterSpec::a100_with_gpus(16);
    let cost = CommCostModel::default();
    let devices: Vec<DeviceId> = (0..16).map(DeviceId).collect();
    let gen = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
    let mut grouping = Table::new(
        "ablation: generation grouping, 13B transition (16 GPUs, train 1-8-2, gen 1-2)",
        vec![label("grouping"), col("transition", "s", 3)],
    );
    // Vanilla pays (tp−1)/tp·M, strided (tp−t_g p_g)/(t_g p_g tp)·M.
    for (name, mode) in [("vanilla", EngineMode::HybridFlowV), ("strided", EngineMode::HybridFlow)]
    {
        let t = transition_time(mode, &model, &spec, &gen, &devices, &cluster, &cost);
        grouping.push(vec![name.into(), t.into()]);
    }

    // A controller dispatching per *operator* pays the RPC latency per
    // operator; HybridFlow pays it per model method call.
    let rpc = cost.rpc_dispatch_time();
    let (calls, ops_per_layer, passes) = (6usize, 64usize, 3usize);
    let operators = ops_per_layer * ModelConfig::llama_7b().layers * passes;
    let mut dispatch = Table::new(
        "ablation: controller dispatch budget per PPO iteration (7B)",
        vec![label("dispatch per"), label("dispatches"), col("budget", "s", 4)],
    );
    dispatch.push(vec!["model method call".into(), calls.into(), (rpc * calls as f64).into()]);
    dispatch.push(vec!["operator".into(), operators.into(), (rpc * operators as f64).into()]);
    Report::new(vec![grouping, dispatch], Vec::new())
}
