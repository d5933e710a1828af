//! Elastic re-mapping tier-1 scenarios: lose a rank mid-PPO, re-map
//! onto the survivors, continue — and prove the continuation is
//! *exact*: post-remap weights, Adam moments, and the generation RNG
//! round are bit-identical to a fresh run launched in the re-mapped
//! layout from the same committed checkpoint.

mod common;

use common::{controller_4gpu, fresh_store, placement_4gpu, with_watchdog};
use hf_core::{Controller, CoreError, Result, WorkerLayout};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper, Role};
use hf_modelspec::{ModelConfig, PerfModel, RlhfWorkload};
use hf_parallel::{GenGrouping, GroupingMethod};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::{
    bridge_spec, remap_recoverable, restore_system_checkpoint, save_system_checkpoint, Algorithm,
    FixedPlacement, MapperPlanner, PipelineConfig, Placement, RemapConfig, RemapDriver,
    RemapPlanner, RemapReport, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;

fn remap_cfg(driver: RemapDriver) -> RemapConfig {
    RemapConfig {
        iterations: 4,
        checkpoint_every: 1,
        batch: 8,
        driver,
        allowed: Some((0..4).map(DeviceId).collect()),
        ..Default::default()
    }
}

/// Runs the elastic loop with actor rank 1 killed on its 3rd
/// `update_actor` dispatch (mid-iteration 2, after step 1 committed).
fn run_killed(store: &CheckpointStore, driver: RemapDriver) -> RemapReport {
    run_killed_with(store, driver, Telemetry::enabled())
}

/// [`run_killed`] on a controller with `telemetry`.
fn run_killed_with(
    store: &CheckpointStore,
    driver: RemapDriver,
    telemetry: Telemetry,
) -> RemapReport {
    let plan = FaultPlan::new().kill_rank(
        "actor",
        1,
        FaultTrigger::OnCall { method: "update_actor".into(), nth: 3 },
    );
    let injector = FaultInjector::new(plan);
    let (cluster, cost) = (ClusterSpec::a100_with_gpus(4), CommCostModel::default());
    let ctrl = Controller::with_faults(cluster, cost, telemetry, injector.clone());
    let cfg = remap_cfg(driver);
    let mut planner = MapperPlanner::toy(4);
    let report = remap_recoverable(
        &ctrl,
        store,
        &cfg,
        &placement_4gpu(true, false),
        RlhfConfig::tiny(),
        &mut planner,
    )
    .expect("elastic run completes after the re-map");
    assert_eq!(injector.fired_count(), 1, "the kill must fire");
    report
}

#[test]
fn kill_then_remap_continues_on_survivors() {
    with_watchdog(300, || {
        let store = fresh_store("remap-continue");
        let report = run_killed(&store, RemapDriver::Barrier);

        assert_eq!(report.history.len(), 4, "all iterations complete");
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.remaps.len(), 1, "{:?}", report.log);
        let ev = &report.remaps[0];
        assert_eq!(ev.world_before, 4);
        assert_eq!(ev.world_after, 3, "device 1 died; survivors are 0,2,3");
        assert_eq!(ev.resumed_step, 1, "step 1 was committed before the kill");
        assert!(ev.reshard_s > 0.0, "the restore broadcast consumes virtual time");
        assert!(ev.reshard_bytes > 0, "the restore broadcast moves bytes");
        assert!(ev.blackout_s >= ev.reshard_s);
        assert_eq!(report.final_world, 3);
        // The run ends with a committed, loadable checkpoint at step 4
        // written from the *re-mapped* layout.
        let final_actor = store.load_group(4, "actor").unwrap();
        assert!(final_actor.opt_t > 0);
    });
}

/// The restore counts the bytes it dispatched itself: a controller with
/// telemetry off reports the bytes one with telemetry on does.
#[test]
fn reshard_bytes_do_not_depend_on_telemetry() {
    with_watchdog(300, || {
        let [on, off] = [Telemetry::enabled(), Telemetry::disabled()].map(|telemetry| {
            let report =
                run_killed_with(&fresh_store("remap-bytes"), RemapDriver::Barrier, telemetry);
            report.remaps[0].reshard_bytes
        });
        assert!(on > 0, "the restore broadcast moves bytes");
        assert_eq!(off, on);
    });
}

/// The tentpole determinism contract: the live-remapped continuation is
/// bit-identical to a fresh system launched in the re-mapped layout on
/// a fresh controller, restoring the same committed checkpoint and
/// replaying the same iterations.
#[test]
fn remap_continuation_matches_fresh_launch_in_new_layout() {
    with_watchdog(300, || {
        let store = fresh_store("remap-bits-live");
        let report = run_killed(&store, RemapDriver::Barrier);
        let ev = &report.remaps[0];
        let live_actor = store.load_group(4, "actor").unwrap();
        let live_critic = store.load_group(4, "critic").unwrap();

        // Fresh controller, no faults, placed directly in the re-mapped
        // layout over the same survivor devices.
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let gen = GenGrouping::new(ev.spec, 1, 1, GroupingMethod::Strided);
        let survivors: Vec<DeviceId> = [0usize, 2, 3].into_iter().map(DeviceId).collect();
        let placement = Placement::colocated(
            ResourcePool::new(survivors),
            WorkerLayout::with_gen(gen),
            true,
            false,
        );
        let sys = RlhfSystem::build(&ctrl, &placement, RlhfConfig::tiny()).unwrap();
        restore_system_checkpoint(&store, &sys, ev.resumed_step).unwrap();

        // Replay iterations 1..4 exactly as the barrier driver does,
        // committing to a second store.
        let fresh = fresh_store("remap-bits-fresh");
        let cfg = remap_cfg(RemapDriver::Barrier);
        for i in ev.resumed_step..4 {
            Algorithm::Ppo.iteration(&sys, &ctrl, cfg.batch, cfg.data_seed, i).unwrap();
            save_system_checkpoint(&fresh, &sys, &ctrl, i + 1).unwrap();
        }
        let fresh_actor = fresh.load_group(4, "actor").unwrap();
        let fresh_critic = fresh.load_group(4, "critic").unwrap();
        assert_eq!(
            live_actor, fresh_actor,
            "post-remap actor params/Adam/RNG must match a fresh launch bit-for-bit"
        );
        assert_eq!(live_critic, fresh_critic, "critic state must match bit-for-bit");
    });
}

/// The pipelined window driver at staleness 0 keeps the same bits as
/// the barrier driver across a mid-run re-map (every window flushes at
/// its checkpoint boundary, so committed steps have pinned staleness).
#[test]
fn pipelined_remap_driver_matches_barrier_bits() {
    with_watchdog(300, || {
        let store_b = fresh_store("remap-drv-barrier");
        let report_b = run_killed(&store_b, RemapDriver::Barrier);

        let store_p = fresh_store("remap-drv-pipelined");
        let pcfg = PipelineConfig { staleness: 0, gen_chunks: 2 };
        let report_p = run_killed(&store_p, RemapDriver::Pipelined(pcfg));

        assert_eq!(report_p.history.len(), 4);
        assert_eq!(report_p.remaps.len(), 1, "{:?}", report_p.log);
        assert_eq!(report_b.remaps[0].spec, report_p.remaps[0].spec);
        assert_eq!(
            store_b.load_group(4, "actor").unwrap(),
            store_p.load_group(4, "actor").unwrap(),
            "staleness-0 pipelined windows must commit the barrier driver's bits"
        );
    });
}

/// Runs the loop with the pipelined driver under `algorithm`, on the
/// colocated placement with same-layout recovery.
fn run_pipelined(tag: &str, algorithm: Algorithm, pcfg: PipelineConfig) -> Result<RemapReport> {
    let store = fresh_store(tag);
    let ctrl = controller_4gpu(None);
    let cfg = RemapConfig { algorithm, ..remap_cfg(RemapDriver::Pipelined(pcfg)) };
    let placement = placement_4gpu(true, algorithm == Algorithm::SafeRlhf);
    let mut planner = FixedPlacement(placement.clone());
    remap_recoverable(&ctrl, &store, &cfg, &placement, RlhfConfig::tiny(), &mut planner)
}

/// The pipelined driver is PPO's: under any other algorithm the loop
/// refuses to start instead of running PPO iterations in its name.
#[test]
fn pipelined_driver_refuses_algorithms_other_than_ppo() {
    with_watchdog(300, || {
        for algorithm in [Algorithm::ReMax, Algorithm::SafeRlhf, Algorithm::Grpo] {
            let pcfg = PipelineConfig::default();
            let got = run_pipelined("remap-pipe-algo", algorithm, pcfg).map(|r| r.history);
            assert!(matches!(got, Err(CoreError::Config(_))), "{algorithm:?}: {got:?}");
        }
    });
}

/// A staleness the pipelined driver cannot keep is a `Config` error, not
/// a panic out of the loop.
#[test]
fn pipelined_driver_refuses_staleness_above_one() {
    with_watchdog(300, || {
        let pcfg = PipelineConfig { staleness: 2, gen_chunks: 2 };
        let got = run_pipelined("remap-pipe-stale", Algorithm::Ppo, pcfg).map(|r| r.history);
        assert!(matches!(got, Err(CoreError::Config(_))), "{got:?}");
    });
}

/// So is a prompt batch split into no generation requests.
#[test]
fn pipelined_driver_refuses_zero_generation_chunks() {
    with_watchdog(300, || {
        let pcfg = PipelineConfig { staleness: 1, gen_chunks: 0 };
        let got = run_pipelined("remap-pipe-chunks", Algorithm::Ppo, pcfg).map(|r| r.history);
        assert!(matches!(got, Err(CoreError::Config(_))), "{got:?}");
    });
}

/// The planner runs the pruned search; the layout it picks for every
/// survivor count is the one the exhaustive reference search would pick,
/// so dropping the reference from the recovery path moved no layout.
#[test]
fn planner_layouts_match_the_exhaustive_reference_search() {
    let total = 12;
    let rlhf = RlhfConfig::tiny();
    let mut planner = MapperPlanner::toy(total);
    let perf = PerfModel::new(ClusterSpec::a100_with_gpus(total));
    let df = DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::tiny(), RlhfWorkload::paper());
    let mut reference = Mapper::new(perf, df, total);
    for world in 1..=total {
        let survivors: Vec<DeviceId> = (0..world).map(DeviceId).collect();
        let placed = planner.plan(&survivors, &rlhf, Algorithm::Ppo).expect("every world maps");
        reference.resize_world(world);
        let found = reference.search_sequential().expect("every world maps");
        let expected = bridge_spec(found.strategies[&Role::Actor].spec, &rlhf.lm, world);
        assert_eq!(placed.placement.actor.layout.spec, expected, "world {world}");
    }
}
