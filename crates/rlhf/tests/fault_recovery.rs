//! End-to-end fault recovery: a seeded [`FaultPlan`] kills an actor rank
//! mid-PPO; the collective abort surfaces `PeerFailed` on every
//! surviving rank (no deadlock — a watchdog enforces it), the outer loop
//! respawns the system in the same layout on the live controller and
//! restores the latest committed sharded checkpoint, and the run
//! finishes with final actor parameters **bit-identical** to a
//! fault-free run — the determinism claim that makes every failure
//! scenario a reproducible test case.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{controller_4gpu, fresh_store, placement_4gpu, with_watchdog};
use hf_core::{Controller, CoreError, ExecFault, ExecSite, FaultHook};
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    ppo_iteration, remap_recoverable, FixedPlacement, RemapConfig, RemapReport, RlhfConfig,
    RlhfSystem, MAX_RECOVERIES,
};
use hf_simcluster::{ClusterSpec, CommCostModel};
use hf_telemetry::Telemetry;

/// Three checkpointed PPO iterations under `plan`, recovering in place.
fn run(store: &CheckpointStore, plan: Option<FaultPlan>) -> (RemapReport, u64) {
    let injector = plan.map(FaultInjector::new);
    let ctrl = controller_4gpu(injector.clone());
    let cfg = RemapConfig { iterations: 3, checkpoint_every: 1, batch: 8, ..Default::default() };
    let placement = placement_4gpu(true, false);
    let mut planner = FixedPlacement(placement.clone());
    let report =
        remap_recoverable(&ctrl, store, &cfg, &placement, RlhfConfig::tiny(), &mut planner)
            .expect("the run completes");
    (report, injector.map_or(0, |i| i.fired_count()))
}

fn kill(group: &str, rank: usize, method: &str, nth: u64) -> FaultPlan {
    FaultPlan::new().kill_rank(group, rank, FaultTrigger::OnCall { method: method.into(), nth })
}

#[test]
fn killed_rank_recovers_to_a_bit_identical_run() {
    with_watchdog(120, || {
        // Fault-free baseline: the final committed checkpoint is the
        // ground-truth end state.
        let baseline_store = fresh_store("recovery-baseline");
        let (report, _) = run(&baseline_store, None);
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.stats.failures, 0);
        let baseline = baseline_store.load_group(3, "actor").unwrap();

        // Faulted run: kill actor rank 2 on its 3rd `update_actor`
        // dispatch — mid-iteration 2, after step-1 committed. The kill
        // is one-shot, so it does not re-fire on the respawned group.
        let faulted_store = fresh_store("recovery-faulted");
        let (report, fired) = run(&faulted_store, Some(kill("actor", 2, "update_actor", 3)));

        assert_eq!(fired, 1, "the injected kill must fire");
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 3, "all iterations complete after recovery");
        assert!(!report.log.is_empty());
        assert!(report.stats.mean_mttr_s() > 0.0, "respawn+restore costs virtual time");

        let recovered = faulted_store.load_group(3, "actor").unwrap();
        assert_eq!(
            baseline, recovered,
            "recovered run must be bit-identical to the fault-free run \
             (params, Adam moments, step count, RNG round)"
        );
    });
}

#[test]
fn killed_critic_rank_recovers_too() {
    with_watchdog(120, || {
        let store = fresh_store("recovery-critic");
        let (report, fired) = run(&store, Some(kill("critic", 1, "update_critic", 2)));
        assert_eq!(fired, 1);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 3);
        // Both trainable models were checkpointed and restored.
        assert!(store.load_group(3, "actor").is_ok());
        assert!(store.load_group(3, "critic").is_ok());
    });
}

/// `compute_ref_log_prob` runs no timed collective; its one rendezvous is
/// the row swap between model-parallel peers. A peer killed there must
/// release its partner (`PeerFailed`, not a hang), and the loop recovers
/// as from any other loss.
#[test]
fn killed_reference_peer_releases_its_row_sharing_partner() {
    with_watchdog(120, || {
        let baseline_store = fresh_store("ref-kill-baseline");
        run(&baseline_store, None);

        let plan = kill("reference", 1, "compute_ref_log_prob", 2);
        let injector = FaultInjector::new(plan.clone());
        let ctrl = controller_4gpu(Some(injector));
        let cfg = RlhfConfig::tiny();
        let sys = RlhfSystem::build(&ctrl, &placement_4gpu(true, false), cfg.clone()).unwrap();
        let prompts = |i| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);
        ppo_iteration(&sys, &ctrl, &prompts(0)).expect("the first iteration is fault-free");
        let err = ppo_iteration(&sys, &ctrl, &prompts(1)).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanicked(_)), "root cause is the kill: {err:?}");
        assert_eq!(ctrl.lost_ranks().len(), 1, "the partner's abort is not a second loss");
        assert_eq!(
            ctrl.telemetry().counter("resilience.peer_failures"),
            1,
            "the killed rank's tensor-parallel partner must unwind with PeerFailed"
        );

        let store = fresh_store("ref-kill");
        let (report, fired) = run(&store, Some(plan));
        assert_eq!(fired, 1);
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 3);
        assert_eq!(
            baseline_store.load_group(3, "actor").unwrap(),
            store.load_group(3, "actor").unwrap(),
            "recovered run must be bit-identical to the fault-free run"
        );
    });
}

/// `update_actor` sums its rows' gradients in one rendezvous of the
/// tensor-parallel pair, ahead of the DP all-reduce. A peer killed on
/// that call never brings its rows: its partner must leave the fold with
/// `PeerFailed`, and so must the other replica at the all-reduce the
/// dead pair never joins.
#[test]
fn killed_actor_peer_releases_its_partner_from_the_gradient_fold() {
    with_watchdog(120, || {
        let baseline_store = fresh_store("fold-kill-baseline");
        run(&baseline_store, None);

        // Two updates an iteration: the third is the second iteration's.
        let plan = kill("actor", 1, "update_actor", 3);
        let injector = FaultInjector::new(plan.clone());
        let ctrl = controller_4gpu(Some(injector));
        let cfg = RlhfConfig::tiny();
        let sys = RlhfSystem::build(&ctrl, &placement_4gpu(true, false), cfg.clone()).unwrap();
        let prompts = |i| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);
        ppo_iteration(&sys, &ctrl, &prompts(0)).expect("the first iteration is fault-free");
        let err = ppo_iteration(&sys, &ctrl, &prompts(1)).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanicked(_)), "root cause is the kill: {err:?}");
        assert_eq!(ctrl.lost_ranks().len(), 1, "the aborts of the other three are not losses");
        assert_eq!(
            ctrl.telemetry().counter("resilience.peer_failures"),
            3,
            "rank 0 leaves the fold, ranks 2 and 3 the all-reduce, each with PeerFailed"
        );

        let store = fresh_store("fold-kill");
        let (report, fired) = run(&store, Some(plan));
        assert_eq!(fired, 1);
        assert_eq!(report.stats.failures, 1);
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 3);
        assert_eq!(
            baseline_store.load_group(3, "actor").unwrap(),
            store.load_group(3, "actor").unwrap(),
            "recovered run must be bit-identical to the fault-free run"
        );
    });
}

/// A compound fault: the recovery from the first kill is itself hit — a
/// second rank dies inside the restore broadcast (`load_checkpoint`, the
/// respawned actor's first). That is one more failure for the loop to
/// recover from, not the end of the run.
#[test]
fn rank_lost_during_the_restore_broadcast_is_recovered_too() {
    with_watchdog(120, || {
        let baseline_store = fresh_store("restore-kill-baseline");
        run(&baseline_store, None);

        let plan = kill("actor", 2, "update_actor", 3).kill_rank(
            "actor",
            1,
            FaultTrigger::OnCall { method: "load_checkpoint".into(), nth: 1 },
        );
        let store = fresh_store("restore-kill");
        let (report, fired) = run(&store, Some(plan));

        assert_eq!(fired, 2, "both kills must fire");
        assert_eq!(report.stats.failures, 2);
        assert_eq!(report.stats.recoveries, 2);
        assert_eq!(report.remaps.len(), 1, "only the second re-place completed");
        assert_eq!(report.history.len(), 3);
        assert_eq!(
            baseline_store.load_group(3, "actor").unwrap(),
            store.load_group(3, "actor").unwrap(),
            "a fault inside the recovery must not change the committed bits"
        );
    });
}

/// Kills actor rank 0 on every `update_actor` it is dispatched, counting
/// the kills: no window can commit.
struct KillEveryUpdate(AtomicU64);

impl FaultHook for KillEveryUpdate {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        if (site.group, site.rank, site.method) != ("actor", 0, "update_actor") {
            return ExecFault::none();
        }
        self.0.fetch_add(1, Ordering::SeqCst);
        ExecFault { kill: Some("lost in every window".into()), ..ExecFault::none() }
    }
}

/// A rank lost in every window: the loop recovers [`MAX_RECOVERIES`]
/// times, and the next failure ends the run with `CoreError::Worker`.
#[test]
fn a_rank_lost_in_every_window_ends_the_run_after_max_recoveries() {
    with_watchdog(120, || {
        let hook = Arc::new(KillEveryUpdate(AtomicU64::new(0)));
        let (cluster, cost) = (ClusterSpec::a100_with_gpus(4), CommCostModel::default());
        let ctrl = Controller::with_faults(cluster, cost, Telemetry::enabled(), hook.clone());
        let cfg = RemapConfig { iterations: 3, ..Default::default() };
        let placement = placement_4gpu(true, false);
        let mut planner = FixedPlacement(placement.clone());
        let store = fresh_store("recovery-gives-up");
        let err =
            remap_recoverable(&ctrl, &store, &cfg, &placement, RlhfConfig::tiny(), &mut planner)
                .unwrap_err();
        let gave_up = format!("gave up after {MAX_RECOVERIES} recoveries: ");
        assert!(matches!(&err, CoreError::Worker(why) if why.starts_with(&gave_up)), "{err:?}");
        let kills = hook.0.load(Ordering::SeqCst);
        assert_eq!(kills, u64::from(MAX_RECOVERIES) + 1, "one kill a window, the fifth is fatal");
    });
}
