//! The CI fault matrix: a small set of *pinned* seeds, each derived into
//! a deterministic kill scenario by [`FaultPlan::seeded_kill`]. Every
//! seed must end in one of exactly two outcomes — the fault never
//! triggers (its method/rank pairing is never dispatched) and the run is
//! clean, or it triggers and the run recovers and completes. Nothing may
//! hang: a watchdog bounds every scenario.

mod common;

use std::sync::Arc;

use common::{controller_4gpu, fresh_store, placement_4gpu, with_watchdog};
use hf_core::Controller;
use hf_resilience::{CheckpointStore, FaultInjector, FaultPlan};
use hf_rlhf::{remap_recoverable, Algorithm, FixedPlacement, RemapConfig, RemapReport, RlhfConfig};

/// The pinned CI seeds. Changing these changes which scenarios CI
/// replays — treat as part of the test contract. Derived scenarios:
///
/// * 2  — kill actor rank 1 on `generate_sequences` call 1 (mid-first
///   iteration: rollback to the initial checkpoint).
/// * 6  — kill critic rank 2 on `update_critic` call 4 (last update of
///   the run: nearly all work already committed).
/// * 31 — kill actor rank 1 on `save_shard` call 1 (during the *initial*
///   step-0 checkpoint: recovery rebuilds from seeds, nothing committed
///   yet).
const MATRIX_SEEDS: [u64; 3] = [2, 6, 31];

/// Two checkpointed iterations on the 4-GPU placement, recovering in
/// the same layout.
fn run(
    store: &CheckpointStore,
    algorithm: Algorithm,
    rlhf: RlhfConfig,
    injector: Option<Arc<FaultInjector>>,
) -> hf_core::Result<RemapReport> {
    run_on(&controller_4gpu(injector), store, algorithm, rlhf)
}

fn run_on(
    ctrl: &Controller,
    store: &CheckpointStore,
    algorithm: Algorithm,
    rlhf: RlhfConfig,
) -> hf_core::Result<RemapReport> {
    let cfg = RemapConfig {
        algorithm,
        iterations: 2,
        checkpoint_every: 1,
        batch: 8,
        ..Default::default()
    };
    let placement = placement_4gpu(algorithm == Algorithm::Ppo, false);
    let mut planner = FixedPlacement(placement.clone());
    remap_recoverable(ctrl, store, &cfg, &placement, rlhf, &mut planner)
}

fn run_seed(seed: u64) {
    let plan = FaultPlan::seeded_kill(
        seed,
        &[("actor", 4), ("critic", 4)],
        &["update_actor", "update_critic", "generate_sequences", "save_shard"],
        4,
    );
    let injector = FaultInjector::new(plan.clone());
    let store = fresh_store(&format!("matrix-{seed}"));
    let report = run(&store, Algorithm::Ppo, RlhfConfig::tiny(), Some(injector.clone()))
        .unwrap_or_else(|e| panic!("seed {seed} ({plan:?}) did not complete: {e}"));

    assert_eq!(report.history.len(), 2, "seed {seed}: all iterations must complete");
    if injector.fired_count() > 0 {
        assert!(
            report.stats.recoveries >= 1,
            "seed {seed}: fault fired ({:?}) but no recovery was recorded",
            injector.log()
        );
    } else {
        assert_eq!(report.stats.failures, 0, "seed {seed}: clean run must see no failures");
    }
    // The end state is always a committed, hash-verified checkpoint.
    let step = store.latest_step().expect("final checkpoint committed");
    store.load_group(step, "actor").unwrap();
}

#[test]
fn fault_matrix_seed_2() {
    with_watchdog(150, || run_seed(MATRIX_SEEDS[0]));
}

#[test]
fn fault_matrix_seed_6() {
    with_watchdog(150, || run_seed(MATRIX_SEEDS[1]));
}

#[test]
fn fault_matrix_seed_31() {
    with_watchdog(150, || run_seed(MATRIX_SEEDS[2]));
}

/// Lost-work accounting, pinned: a kill landing *inside* the checkpoint
/// write (the `save_shard` collective of the step-1 save, after
/// iteration 1 trained) must charge only the discarded training work —
/// read back from the step-0 COMMIT marker timestamp — as
/// `virtual_time_lost`; the interrupted write window is accounted
/// separately as `checkpoint_window_lost_s`. The pre-fix accounting
/// charged the whole interval since the last commit, window included.
#[test]
fn checkpoint_window_fault_is_not_charged_as_lost_work() {
    use hf_resilience::FaultTrigger;
    with_watchdog(150, || {
        // Actor `save_shard` dispatch 2 on rank 1 = the step-1 save
        // (dispatch 1 is the initial step-0 checkpoint).
        let plan = FaultPlan::new().kill_rank(
            "actor",
            1,
            FaultTrigger::OnCall { method: "save_shard".into(), nth: 2 },
        );
        let injector = FaultInjector::new(plan);
        let store = fresh_store("matrix-ckpt-window");
        let report = run(&store, Algorithm::Ppo, RlhfConfig::tiny(), Some(injector.clone()))
            .expect("run completes after recovery");

        assert_eq!(injector.fired_count(), 1, "the step-1 save kill must fire");
        assert_eq!(report.stats.recoveries, 1);
        assert_eq!(report.history.len(), 2);
        // Iteration 1's work was genuinely discarded (rolled back to the
        // step-0 checkpoint) — and *only* that work: the replayed
        // iteration is deterministic in virtual time, so the lost figure
        // must equal the replay's duration, excluding the interrupted
        // write window entirely.
        let iter1 = report.history[0].virtual_seconds;
        assert!(
            (report.stats.virtual_time_lost - iter1).abs() < 1e-9,
            "lost work {} must equal iteration 1's duration {iter1} exactly",
            report.stats.virtual_time_lost
        );
        assert!(
            report.stats.checkpoint_window_lost_s > 0.0,
            "the interrupted save collective consumed virtual time"
        );
    });
}

/// A PPO run with `group`'s rank 1 killed on its `nth` call of `method`
/// against the fault-free run: the kill fires once, exactly one rank is
/// lost — whatever was queued behind or on the failed call cascades, and
/// a cascade is not a loss (DESIGN.md §11) — and the recovered run ends
/// on the fault-free run's bits.
fn one_kill_is_one_loss(tag: &str, group: &str, method: &str, nth: u64) {
    use hf_resilience::FaultTrigger;
    let final_state = |store: &CheckpointStore| {
        (store.load_group(2, "actor").unwrap(), store.load_group(2, "critic").unwrap())
    };
    let clean_store = fresh_store(&format!("matrix-{tag}-clean"));
    let clean = run(&clean_store, Algorithm::Ppo, RlhfConfig::tiny(), None).unwrap();
    assert_eq!(clean.stats.failures, 0);

    let trigger = FaultTrigger::OnCall { method: method.into(), nth };
    let injector = FaultInjector::new(FaultPlan::new().kill_rank(group, 1, trigger));
    let ctrl = controller_4gpu(Some(injector.clone()));
    let store = fresh_store(&format!("matrix-{tag}-faulted"));
    let report = run_on(&ctrl, &store, Algorithm::Ppo, RlhfConfig::tiny())
        .expect("run completes after recovery");

    assert_eq!(injector.fired_count(), 1);
    let lost = ctrl.lost_ranks();
    assert_eq!(lost.len(), 1, "what failed with or behind the killed call is not a loss: {lost:?}");
    assert_eq!((lost[0].group.as_str(), lost[0].rank), (group, 1));
    assert_eq!(report.stats.recoveries, 1);
    assert_eq!(report.history.len(), 2);
    assert_eq!(final_state(&store), final_state(&clean_store), "recovered vs fault-free");
}

/// The barrier driver queues every micro-batch's updates before it waits
/// any (`stage::dispatch_train`), so a kill on the *first* micro-batch's
/// `update_actor` finds the second's already in the mailboxes behind it.
/// Those fail fast on the dead rank and abort on its peers as
/// `PeerFailed`, while the second `update_critic` still runs on a critic
/// the restore then overwrites.
#[test]
fn kill_on_the_first_update_with_the_second_queued_is_one_loss() {
    assert_eq!(RlhfConfig::tiny().updates, 2, "a second micro-batch must exist");
    with_watchdog(150, || one_kill_is_one_loss("queued", "actor", "update_actor", 1));
}

/// The preparation passes are issued on generation's future, so a kill
/// on `generate_sequences` finds them queued on every pool: each answers
/// `input failed` before it runs, as a peer's failure.
#[test]
fn kill_on_generation_with_preparation_queued_on_its_future_is_one_loss() {
    with_watchdog(150, || one_kill_is_one_loss("gen-future", "actor", "generate_sequences", 2));
}

/// A pass issued on a future is killed like any other once its input
/// arrived: the kill is the one loss, its model-parallel peers cascade.
#[test]
fn kill_on_a_pass_issued_on_a_future_is_one_loss() {
    with_watchdog(150, || one_kill_is_one_loss("on-future", "critic", "compute_values", 2));
}

/// A killed pipeline stage must not wedge the next one. Actor 2-2-1 with
/// tensor-parallel inference: rank 0 (stage 0) is killed on its first
/// `compute_log_prob`, while rank 2 (stage 1) waits for its activations
/// on the pipeline communicator. The kill poisons that communicator, so
/// the wait aborts like a collective's: the iteration fails on the kill,
/// the kill is the one loss, and every device thread still joins.
#[test]
fn a_killed_pipeline_stage_does_not_wedge_the_next_stage() {
    use hf_core::{CallPolicy, WorkerLayout};
    use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
    use hf_resilience::FaultTrigger;
    use hf_rlhf::{env::make_prompts, ppo_iteration, Placement, RlhfSystem};
    use hf_simcluster::ResourcePool;
    with_watchdog(60, || {
        let mut cfg = RlhfConfig::tiny();
        cfg.hyper.tp_inference = true;
        cfg.recompute_logp = true;
        let trigger = FaultTrigger::OnCall { method: "compute_log_prob".into(), nth: 1 };
        let injector = FaultInjector::new(FaultPlan::new().kill_rank("actor", 0, trigger));
        let ctrl = controller_4gpu(Some(injector));
        let deadline = Some(std::time::Duration::from_secs(5));
        ctrl.set_policy(CallPolicy { deadline, ..CallPolicy::default() });
        let gen = GenGrouping::new(ParallelSpec::new(2, 2, 1), 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::contiguous(0, 4);
        let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
        let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);

        let err = ppo_iteration(&sys, &ctrl, &prompts).unwrap_err();
        assert!(err.to_string().contains("kill actor rank 0"), "{err}");
        let lost = ctrl.lost_ranks();
        assert_eq!(lost.len(), 1, "the next stage's abort is not a loss: {lost:?}");
        assert_eq!((lost[0].group.as_str(), lost[0].rank), ("actor", 0));
        drop(sys);
        ctrl.shutdown().expect("every device thread joins");
    });
}

/// The pinned reward-evaluation scenario (its own seed and target list,
/// so the three historical scenarios above keep deriving identically):
/// a kill lands on a `RewardEvaluatorWorker` rank *during* sandbox-pool
/// reward evaluation under GRPO. Recovery must reach the same final
/// actor bits as a fault-free run — the pool holds no cross-batch
/// state, so a replayed evaluation reproduces every cost draw, timeout,
/// and score bit-for-bit.
const REWARD_EVAL_SEED: u64 = 7;

fn run_grpo_verifier(
    tag: &str,
    injector: Option<Arc<FaultInjector>>,
) -> (RemapReport, hf_resilience::AssembledState) {
    let store = fresh_store(&format!("matrix-reward-{tag}"));
    let report = run(&store, Algorithm::Grpo, RlhfConfig::tiny_verifier(), injector)
        .unwrap_or_else(|e| panic!("reward-eval scenario ({tag}) did not complete: {e}"));
    let final_actor = store.load_group(2, "actor").unwrap();
    (report, final_actor)
}

#[test]
fn fault_matrix_kill_during_reward_evaluation_recovers_bit_identically() {
    with_watchdog(150, || {
        let (clean_report, clean_actor) = run_grpo_verifier("clean", None);
        assert_eq!(clean_report.stats.failures, 0);

        // `compute_reward` dispatches once per rank per iteration, so
        // `max_nth = 2` guarantees the derived call index is reached
        // within the 2-iteration run — the kill always fires.
        let plan =
            FaultPlan::seeded_kill(REWARD_EVAL_SEED, &[("reward", 4)], &["compute_reward"], 2);
        let injector = FaultInjector::new(plan.clone());
        let (report, recovered_actor) = run_grpo_verifier("faulted", Some(injector.clone()));

        assert!(
            injector.fired_count() >= 1,
            "the reward-evaluation kill must fire ({plan:?}): {:?}",
            injector.log()
        );
        assert!(
            report.stats.recoveries >= 1,
            "a kill mid reward evaluation must be recovered, not absorbed"
        );
        assert_eq!(report.history.len(), 2, "all iterations complete after recovery");
        assert_eq!(
            clean_actor, recovered_actor,
            "replayed verifier-pool evaluation must reproduce the clean run's bits"
        );
    });
}
