//! Recovery cost on the live controller: same-layout fault recovery
//! across checkpoint intervals, and elastic re-mapping onto the
//! survivors across world sizes. Every figure is virtual time —
//! mapping-search *wall* seconds never touch the virtual clock and are
//! left out — so both reports are byte-identical across reruns.

use std::sync::Arc;

use hf_core::Controller;
use hf_parallel::ParallelSpec;
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::{
    remap_recoverable, FixedPlacement, MapperPlanner, Placement, RemapConfig, RemapPlanner,
    RemapReport, RlhfConfig,
};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId};
use hf_telemetry::Telemetry;

use crate::experiments::colocated_ppo;
use crate::registry::ScratchDir;
use crate::table::{col, label, Report, Table};

const ITERATIONS: usize = 4;

/// Tensor-parallel pairs where the world is even, pure DP otherwise.
fn colocated(world: usize) -> Placement {
    let (t, d) = if world.is_multiple_of(2) { (2, world / 2) } else { (1, world) };
    colocated_ppo(ParallelSpec::new(1, t, d), 1)
}

/// The kill both experiments inject: `rank` of the actor group dies on
/// its third `update_actor` dispatch.
fn kill_actor(rank: usize) -> Arc<FaultInjector> {
    FaultInjector::new(FaultPlan::new().kill_rank(
        "actor",
        rank,
        FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
    ))
}

/// One recoverable [`ITERATIONS`]-iteration PPO run on `world` GPUs.
fn run(
    store: &CheckpointStore,
    world: usize,
    cfg: RemapConfig,
    fault: Option<Arc<FaultInjector>>,
    planner: &mut dyn RemapPlanner,
) -> RemapReport {
    let (cluster, cost) = (ClusterSpec::a100_with_gpus(world), CommCostModel::default());
    let ctrl = match &fault {
        Some(f) => Controller::with_faults(cluster, cost, Telemetry::enabled(), f.clone()),
        None => Controller::new(cluster),
    };
    let cfg = RemapConfig { iterations: ITERATIONS, ..cfg };
    let report =
        remap_recoverable(&ctrl, store, &cfg, &colocated(world), RlhfConfig::tiny(), planner)
            .expect("recoverable run must complete");
    if let Some(f) = fault {
        assert_eq!(f.fired_count(), 1, "the injected kill must fire: {:?}", f.log());
    }
    assert_eq!(report.history.len(), ITERATIONS, "every iteration must complete");
    let _ = ctrl.shutdown();
    report
}

/// For a sweep of checkpoint intervals, the same PPO job twice —
/// fault-free, and with a seeded kill of an actor rank mid-run — and
/// what the interval costs: checkpoint overhead, virtual
/// mean-time-to-recover (respawn in the same layout + sharded restore)
/// and rolled-back work. Every faulted run must end bit-identical to its
/// fault-free twin (parameters, both Adam moments, optimizer step, RNG
/// round).
pub fn fault_recovery(fast: bool) -> Report {
    let batch = if fast { 4 } else { 8 };
    let mut table = Table::new(
        "fault recovery: checkpoint interval vs overhead, MTTR, and rollback",
        vec![
            label("interval"),
            label("ckpts"),
            col("base", "ms", 3),
            col("fault", "ms", 3),
            col("overhead", "%", 1),
            col("mttr", "ms", 3),
            col("lost", "ms", 3),
            label("identical"),
        ],
    );
    for every in [1usize, 2, 4] {
        let cfg = RemapConfig { checkpoint_every: every, batch, ..Default::default() };
        let mut planner = FixedPlacement(colocated(4));
        let base_dir = ScratchDir::new(&format!("fault-base-{every}"));
        let base_store = CheckpointStore::new(base_dir.path()).expect("checkpoint store");
        let base = run(&base_store, 4, cfg.clone(), None, &mut planner);
        assert_eq!(base.stats.failures, 0, "baseline must be fault-free");

        let fault_dir = ScratchDir::new(&format!("fault-fault-{every}"));
        let fault_store = CheckpointStore::new(fault_dir.path()).expect("checkpoint store");
        let faulted = run(&fault_store, 4, cfg, Some(kill_actor(2)), &mut planner);
        assert!(faulted.stats.recoveries >= 1, "faulted run must recover");

        let final_state = |s: &CheckpointStore| s.load_group(ITERATIONS as u64, "actor").unwrap();
        let identical = final_state(&base_store) == final_state(&fault_store);
        assert!(identical, "interval {every}: recovered run diverged from the fault-free run");

        let overhead = (faulted.virtual_time_s - base.virtual_time_s) / base.virtual_time_s;
        table.push(vec![
            every.into(),
            // Boundary saves + the initial step-0 save.
            (ITERATIONS.div_ceil(every) + 1).into(),
            (base.virtual_time_s * 1e3).into(),
            (faulted.virtual_time_s * 1e3).into(),
            (overhead * 100.0).into(),
            (faulted.stats.mean_mttr_s() * 1e3).into(),
            (faulted.stats.virtual_time_lost * 1e3).into(),
            identical.to_string().into(),
        ]);
    }
    let notes = vec![
        format!(
            "{ITERATIONS}-iteration PPO on 4 GPUs (p1 t2 d2, critic colocated), batch {batch}; \
             kill: actor rank 2 on `update_actor` call 3"
        ),
        "every faulted run restored to a state bit-identical to its fault-free twin".into(),
    ];
    Report::new(vec![table], notes)
}

/// MTTR-vs-world curves: for a sweep of cluster sizes, the same PPO job
/// with a seeded kill of an actor rank mid-run, re-placed onto the
/// survivors by the elastic loop (re-run the mapping search, reshard the
/// last committed checkpoint live through the restore broadcast,
/// continue on the shrunken world). Reports what the re-map cost:
/// blackout (detection to training resumed), its reshard leg, bytes
/// broadcast, and the rolled-back virtual work.
pub fn remap(fast: bool) -> Report {
    let batch = if fast { 4 } else { 8 };
    let worlds: &[usize] = if fast { &[4, 6] } else { &[4, 6, 8, 12] };
    let mut table = Table::new(
        "elastic re-mapping: MTTR vs world size",
        vec![
            label("world"),
            label("after"),
            label("layout"),
            col("blackout", "ms", 3),
            col("reshard", "ms", 3),
            col("reshard", "KiB", 1),
            col("mttr", "ms", 3),
            col("lost", "ms", 3),
            label("remaps"),
        ],
    );
    for &world in worlds {
        let cfg = RemapConfig {
            batch,
            allowed: Some((0..world).map(DeviceId).collect()),
            ..Default::default()
        };
        let dir = ScratchDir::new(&format!("remap-w{world}"));
        let store = CheckpointStore::new(dir.path()).expect("checkpoint store");
        let mut planner = MapperPlanner::toy(world);
        let report = run(&store, world, cfg, Some(kill_actor(1)), &mut planner);
        let ev = report.remaps.first().expect("the kill must trigger a re-map");
        table.push(vec![
            ev.world_before.into(),
            ev.world_after.into(),
            format!("p{}t{}d{}", ev.spec.p, ev.spec.t, ev.spec.d).into(),
            (ev.blackout_s * 1e3).into(),
            (ev.reshard_s * 1e3).into(),
            (ev.reshard_bytes as f64 / 1024.0).into(),
            (report.stats.mean_mttr_s() * 1e3).into(),
            (report.stats.virtual_time_lost * 1e3).into(),
            report.remaps.len().into(),
        ]);
    }
    let notes = vec![
        format!(
            "{ITERATIONS}-iteration PPO, batch {batch}; kill: actor rank 1 on `update_actor` \
             call 3; the run re-maps onto the survivors and continues live"
        ),
        "blackout = detection to training resumed; every figure is virtual time".into(),
    ];
    Report::new(vec![table], notes)
}
