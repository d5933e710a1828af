//! Elastic re-mapping cost: MTTR-vs-world curves. For a sweep of
//! cluster sizes, run the same 4-iteration PPO job with a seeded kill
//! of an actor rank mid-run and let the elastic loop re-place the job
//! onto the survivors (`hf_rlhf::remap_recoverable`): re-run the
//! device-mapping search, reshard the last committed checkpoint live
//! through the restore broadcast, continue on the shrunken world. The
//! table reports what the re-map cost — blackout (detection to training
//! resumed), the reshard leg of it, bytes broadcast, and the rolled-back
//! virtual work.
//!
//! Every figure is virtual-time deterministic: mapping-search *wall*
//! seconds are deliberately excluded (they never touch the virtual
//! clock), so `--json` output is byte-identical across reruns — CI
//! asserts exactly that.
//!
//! `--fast` shrinks the batch and the sweep for CI smoke runs; `--json`
//! additionally writes `BENCH_remap.json`.

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::{remap_recoverable, MapperPlanner, Placement, RemapConfig, RemapReport, RlhfConfig};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;

const ITERATIONS: usize = 4;

fn fresh_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hf-bench-remap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

fn initial_placement(world: usize) -> Placement {
    let (t, d) = if world.is_multiple_of(2) { (2, world / 2) } else { (1, world) };
    let spec = ParallelSpec::new(1, t, d);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(
        ResourcePool::contiguous(0, world),
        WorkerLayout::with_gen(gen),
        true,
        false,
    )
}

fn run_world(world: usize, batch: usize) -> RemapReport {
    let injector = FaultInjector::new(FaultPlan::new().kill_rank(
        "actor",
        1,
        FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
    ));
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(world),
        CommCostModel::default(),
        Telemetry::enabled(),
        injector.clone(),
    );
    let cfg = RemapConfig {
        iterations: ITERATIONS,
        checkpoint_every: 1,
        batch,
        allowed: Some((0..world).map(DeviceId).collect()),
        ..Default::default()
    };
    let store = fresh_store(&format!("w{world}"));
    let mut planner = MapperPlanner::toy(world);
    let report = remap_recoverable(
        &ctrl,
        &store,
        &cfg,
        &initial_placement(world),
        RlhfConfig::tiny(),
        &mut planner,
    )
    .expect("elastic run must complete");
    assert_eq!(injector.fired_count(), 1, "the planned kill must fire: {:?}", injector.log());
    assert_eq!(report.history.len(), ITERATIONS, "every iteration must complete");
    let _ = ctrl.shutdown();
    report
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let batch = if fast { 4 } else { 8 };
    let worlds: &[usize] = if fast { &[4, 6] } else { &[4, 6, 8, 12] };

    println!("== elastic re-mapping: MTTR vs world size ==");
    println!(
        "{ITERATIONS}-iteration PPO, batch {batch}; kill: actor rank 1 on `update_actor` call 3; \
         the run re-maps onto the survivors and continues live (no restart, no full replay)"
    );

    let headers = [
        "world",
        "after",
        "layout",
        "blackout ms",
        "reshard ms",
        "reshard KiB",
        "mttr ms",
        "lost ms",
        "remaps",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &world in worlds {
        let report = run_world(world, batch);
        let ev = report.remaps.first().expect("the kill must trigger a re-map");
        rows.push(vec![
            format!("{}", ev.world_before),
            format!("{}", ev.world_after),
            format!("p{}t{}d{}", ev.spec.p, ev.spec.t, ev.spec.d),
            format!("{:.3}", ev.blackout_s * 1e3),
            format!("{:.3}", ev.reshard_s * 1e3),
            format!("{:.1}", ev.reshard_bytes as f64 / 1024.0),
            format!("{:.3}", report.stats.mean_mttr_s() * 1e3),
            format!("{:.3}", report.stats.virtual_time_lost * 1e3),
            format!("{}", report.remaps.len()),
        ]);
    }

    print!("{}", hf_bench::fmt::table(&headers, &rows));
    println!("blackout = detection to training resumed; every figure is virtual-time (bit-stable)");
    hf_bench::report::maybe_write_json("remap", &headers, &rows);
}
