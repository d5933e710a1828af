//! The `pipeline_overlap` bench: end-to-end iteration latency of the
//! one-step-off-policy pipelined PPO driver against the synchronous
//! barrier driver, on split placements (each model on its own device
//! pool) across a fig9-style scale sweep.
//!
//! Split placements are where pipelining pays: with disjoint pools, the
//! critic/reference/reward forwards of a freshly landed generation chunk
//! and the update micro-batches of the previous iteration genuinely run
//! concurrently with the actor's generation, instead of queueing behind
//! it on shared devices. The report records, per configuration, the
//! barrier per-iteration latency, the pipelined latency at staleness 0
//! and 1, the speedups, and the measured overlap fraction — everything
//! is virtual-clock exact, so the JSON is byte-stable across runs.

use hf_core::{Controller, WorkerLayout};
use hf_insight::Json;
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    ppo_iteration, ModelPlacement, PipelineConfig, PipelinedPpo, Placement, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, ResourcePool};

use crate::table::{col, label, mode, Report, Table};

/// One swept configuration: four equal pools (actor, critic, reference,
/// reward), each running `spec` with generation TP `tg` on the actor.
#[derive(Debug, Clone)]
pub struct OverlapConfig {
    /// Stable name, used as the JSON key and table row label.
    pub name: String,
    /// Devices per model pool (total GPUs = 4x this).
    pub per_model: usize,
    /// Per-model layout, in `ParallelSpec::new` argument order
    /// (pipeline, tensor, data).
    pub spec: (usize, usize, usize),
    /// Generation TP size on the actor.
    pub tg: usize,
    /// Prompt rows per iteration.
    pub rows: usize,
    /// Generation chunks per iteration in the pipelined modes.
    pub gen_chunks: usize,
    /// Iterations per mode (every mode trains exactly this many batches).
    pub iterations: usize,
}

/// The sweep. `fast` is the CI smoke shape (8 GPUs, 2 per model);
/// full adds the 16-GPU row and a second generation-TP point.
pub fn sweep(fast: bool) -> Vec<OverlapConfig> {
    let mut configs = vec![OverlapConfig {
        name: "split_8gpu_p1t1d2_tg1".into(),
        per_model: 2,
        spec: (1, 1, 2),
        tg: 1,
        rows: 8,
        gen_chunks: 2,
        iterations: 4,
    }];
    if !fast {
        configs.push(OverlapConfig {
            name: "split_8gpu_p1t2d1_tg2".into(),
            per_model: 2,
            spec: (1, 2, 1),
            tg: 2,
            rows: 8,
            gen_chunks: 2,
            iterations: 4,
        });
        configs.push(OverlapConfig {
            name: "split_16gpu_p1t2d2_tg2".into(),
            per_model: 4,
            spec: (1, 2, 2),
            tg: 2,
            rows: 16,
            gen_chunks: 4,
            iterations: 4,
        });
    }
    configs
}

fn build(cfg: &OverlapConfig) -> (Controller, RlhfSystem, RlhfConfig) {
    let rc = RlhfConfig::tiny();
    let n = cfg.per_model;
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4 * n));
    let (p, t, d) = cfg.spec;
    let spec = ParallelSpec::new(p, t, d);
    let gen = GenGrouping::new(spec, 1, cfg.tg, GroupingMethod::Strided);
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
    (ctrl, sys, rc)
}

/// Barrier baseline: the synchronous driver, per-iteration latency.
fn run_barrier(cfg: &OverlapConfig) -> f64 {
    let (ctrl, sys, rc) = build(cfg);
    let t0 = ctrl.clock();
    for iter in 0..cfg.iterations as u64 {
        let prompts =
            make_prompts(cfg.rows, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, iter);
        ppo_iteration(&sys, &ctrl, &prompts).expect("barrier iteration");
    }
    let total = ctrl.clock() - t0;
    ctrl.shutdown().expect("shutdown");
    total / cfg.iterations as f64
}

/// Pipelined run at the given staleness; trains exactly
/// `cfg.iterations` batches (flush drains the in-flight tail) and
/// returns `(per-iteration latency, final cumulative overlap fraction)`.
fn run_pipelined(cfg: &OverlapConfig, staleness: u32) -> (f64, f64) {
    let (ctrl, sys, rc) = build(cfg);
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness, gen_chunks: cfg.gen_chunks });
    let t0 = ctrl.clock();
    let mut last_frac = 0.0;
    for iter in 0..cfg.iterations as u64 {
        let prompts =
            make_prompts(cfg.rows, rc.prompt_len, rc.response_len, rc.lm.vocab as u32, iter);
        if let Some(stats) = driver.step(&sys, &ctrl, &prompts).expect("pipelined step") {
            last_frac = stats.overlap_fraction;
        }
    }
    for stats in driver.flush(&sys, &ctrl).expect("pipeline flush") {
        last_frac = stats.overlap_fraction;
    }
    let total = ctrl.clock() - t0;
    ctrl.shutdown().expect("shutdown");
    (total / cfg.iterations as f64, last_frac)
}

/// One configuration under all three drivers.
pub struct OverlapRow {
    /// The configuration.
    pub cfg: OverlapConfig,
    /// Barrier driver: virtual seconds per iteration.
    pub barrier_s: f64,
    /// Pipelined at staleness 0 and 1: `(seconds per iteration, final
    /// cumulative overlap fraction)`.
    pub staleness: [(f64, f64); 2],
}

impl OverlapRow {
    fn json(&self) -> Json {
        let cfg = &self.cfg;
        let (p, t, d) = cfg.spec;
        let staleness = |(s, frac): (f64, f64)| {
            Json::obj(vec![
                ("iteration_s", Json::Num(s)),
                ("speedup", Json::Num(self.barrier_s / s)),
                ("overlap_fraction", Json::Num(frac)),
            ])
        };
        Json::obj(vec![
            ("name", Json::Str(cfg.name.clone())),
            ("gpus", Json::Int(4 * cfg.per_model as i64)),
            ("layout", Json::Str(format!("p{p}-t{t}-d{d}"))),
            ("gen_tp", Json::Int(cfg.tg as i64)),
            ("rows", Json::Int(cfg.rows as i64)),
            ("gen_chunks", Json::Int(cfg.gen_chunks as i64)),
            ("iterations", Json::Int(cfg.iterations as i64)),
            ("barrier_iteration_s", Json::Num(self.barrier_s)),
            ("staleness0", staleness(self.staleness[0])),
            ("staleness1", staleness(self.staleness[1])),
        ])
    }
}

/// Runs one configuration across all three modes.
pub fn run_config(cfg: &OverlapConfig) -> OverlapRow {
    OverlapRow {
        cfg: cfg.clone(),
        barrier_s: run_barrier(cfg),
        staleness: [run_pipelined(cfg, 0), run_pipelined(cfg, 1)],
    }
}

/// The `pipeline_overlap` experiment: per-iteration latency of the
/// barrier driver and of the pipelined driver at staleness 0 and 1, the
/// speedups, and the overlap the staleness-1 run measured.
pub fn pipeline_overlap(fast: bool) -> Report {
    let rows: Vec<OverlapRow> = sweep(fast).iter().map(run_config).collect();
    let mut table = Table::new(
        format!("pipeline overlap ({})", mode(fast)),
        vec![
            label("config"),
            col("barrier", "ms", 3),
            col("s=0", "ms", 3),
            col("s=1", "ms", 3),
            col("s=0", "x", 2),
            col("s=1", "x", 2),
            col("overlap", "frac", 3),
        ],
    );
    for row in &rows {
        let [(s0, _), (s1, frac)] = row.staleness;
        table.push(vec![
            row.cfg.name.as_str().into(),
            (row.barrier_s * 1e3).into(),
            (s0 * 1e3).into(),
            (s1 * 1e3).into(),
            (row.barrier_s / s0).into(),
            (row.barrier_s / s1).into(),
            frac.into(),
        ]);
    }
    let json = Json::obj(vec![
        ("schema", Json::Str("hf-bench.pipeline_overlap/v1".into())),
        ("mode", Json::Str(mode(fast).into())),
        ("configs", Json::Arr(rows.iter().map(OverlapRow::json).collect())),
    ]);
    Report { json: Some(json), ..Report::new(vec![table], Vec::new()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_insight::{flatten_json, Leaf};

    fn leaf_num(flat: &std::collections::BTreeMap<String, Leaf>, key: &str) -> f64 {
        match flat.get(key) {
            Some(Leaf::Num(v)) => *v,
            other => panic!("missing numeric leaf {key}: {other:?}"),
        }
    }

    /// The PR's acceptance bar: on at least one fig9-style split
    /// configuration, one-step-off-policy pipelining beats the barrier
    /// driver by >= 1.2x end-to-end, and staleness 0 never loses to the
    /// barrier (same schedule bits, strictly more overlap).
    #[test]
    fn staleness1_beats_barrier_by_at_least_1_2x_somewhere() {
        let doc = pipeline_overlap(true).json("pipeline_overlap", true).render();
        let flat = flatten_json(&doc).expect("report parses");
        let n = sweep(true).len();
        let mut best = 0.0f64;
        for i in 0..n {
            let s1 = leaf_num(&flat, &format!("configs[{i}].staleness1.speedup"));
            let s0 = leaf_num(&flat, &format!("configs[{i}].staleness0.speedup"));
            assert!(
                s0 >= 0.999,
                "staleness 0 must not regress the barrier driver (config {i}: {s0})"
            );
            best = best.max(s1);
        }
        assert!(best >= 1.2, "expected >= 1.2x pipelined speedup on some config, best {best}");
    }
}
