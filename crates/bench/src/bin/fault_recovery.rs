//! Fault-recovery cost: for a sweep of checkpoint intervals, run the
//! same 4-iteration PPO job twice — fault-free, and with a seeded kill
//! of an actor rank mid-run — and report the checkpoint overhead, the
//! virtual mean-time-to-recover (respawn in the same layout on the live
//! controller + sharded restore), and the rolled-back work the interval
//! choice forfeits. Every faulted run must end **bit-identical** to its
//! fault-free twin (parameters, both Adam moments, optimizer step, RNG
//! round); the binary asserts it.
//!
//! `--fast` shrinks the batch for CI smoke runs; `--json` additionally
//! writes `BENCH_fault_recovery.json`.

use std::sync::Arc;

use hf_bench::{fmt, report};
use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::{remap_recoverable, FixedPlacement, Placement, RemapConfig, RemapReport, RlhfConfig};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

const ITERATIONS: usize = 4;
const INTERVALS: [usize; 3] = [1, 2, 4];

fn placement() -> Placement {
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(ResourcePool::contiguous(0, 4), WorkerLayout::with_gen(gen), true, false)
}

fn fresh_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hf-bench-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

fn run(
    store: &CheckpointStore,
    every: usize,
    batch: usize,
    fault: Option<Arc<FaultInjector>>,
) -> RemapReport {
    let (cluster, cost) = (ClusterSpec::a100_with_gpus(4), CommCostModel::default());
    let ctrl = match fault {
        Some(f) => Controller::with_faults(cluster, cost, Telemetry::enabled(), f),
        None => Controller::new(cluster),
    };
    let cfg = RemapConfig {
        iterations: ITERATIONS,
        checkpoint_every: every,
        batch,
        ..Default::default()
    };
    let mut planner = FixedPlacement(placement());
    remap_recoverable(&ctrl, store, &cfg, &placement(), RlhfConfig::tiny(), &mut planner)
        .expect("recoverable run must complete")
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let batch = if fast { 4 } else { 8 };

    println!("== fault recovery: checkpoint interval vs overhead, MTTR, and rollback ==");
    println!(
        "{ITERATIONS}-iteration PPO on 4 GPUs (p1 t2 d2, critic colocated), batch {batch}; \
         kill: actor rank 2 on `update_actor` call 3"
    );

    let headers = [
        "interval",
        "ckpts",
        "base ms",
        "fault ms",
        "overhead %",
        "mttr ms",
        "lost ms",
        "identical",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();

    for every in INTERVALS {
        let base_store = fresh_store(&format!("base-{every}"));
        let base = run(&base_store, every, batch, None);
        assert_eq!(base.stats.failures, 0, "baseline must be fault-free");

        let injector = FaultInjector::new(FaultPlan::new().kill_rank(
            "actor",
            2,
            FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
        ));
        let fault_store = fresh_store(&format!("fault-{every}"));
        let faulted = run(&fault_store, every, batch, Some(injector.clone()));
        assert_eq!(injector.fired_count(), 1, "the planned kill must fire: {:?}", injector.log());
        assert!(faulted.stats.recoveries >= 1, "faulted run must recover");

        let final_step = ITERATIONS as u64;
        let baseline_state = base_store.load_group(final_step, "actor").unwrap();
        let recovered_state = fault_store.load_group(final_step, "actor").unwrap();
        let identical = baseline_state == recovered_state;
        assert!(identical, "interval {every}: recovered run diverged from the fault-free run");

        let ckpts = ITERATIONS.div_ceil(every) + 1; // boundary saves + the initial step-0 save
        let overhead = (faulted.virtual_time_s - base.virtual_time_s) / base.virtual_time_s * 100.0;
        rows.push(vec![
            format!("{every}"),
            format!("{ckpts}"),
            format!("{:.3}", base.virtual_time_s * 1e3),
            format!("{:.3}", faulted.virtual_time_s * 1e3),
            format!("{overhead:.1}"),
            format!("{:.3}", faulted.stats.mean_mttr_s() * 1e3),
            format!("{:.3}", faulted.stats.virtual_time_lost * 1e3),
            format!("{identical}"),
        ]);
    }

    print!("{}", fmt::table(&headers, &rows));
    println!("every faulted run restored to a state bit-identical to its fault-free twin");
    report::maybe_write_json("fault recovery", &headers, &rows);
}
