//! Fault-tolerance tests (paper §9): consistent checkpoints via the
//! single controller, checksum detection of silent data corruption, and
//! exact recovery — a restored system reproduces the original learning
//! trajectory bit-for-bit (parameters *and* RNG state are saved).

use std::path::PathBuf;

use hf_core::{Controller, CoreError, Protocol, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{collect_state, AssembledState, CheckpointStore};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    ppo_iteration, restore_checkpoint, restore_system_checkpoint, save_checkpoint,
    save_system_checkpoint, Placement, RlhfConfig, RlhfSystem, SystemCheckpoint,
};
use hf_simcluster::{ClusterSpec, ResourcePool};

fn system() -> (Controller, RlhfSystem, RlhfConfig) {
    system_with(true)
}

/// The 1-2-2 system on 4 colocated GPUs, with or without a critic.
fn system_with(critic: bool) -> (Controller, RlhfSystem, RlhfConfig) {
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        critic,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys, cfg)
}

#[test]
fn recovery_reproduces_the_exact_trajectory() {
    let (ctrl, sys, cfg) = system();
    let prompts =
        |i: u64| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);

    // Warm up, checkpoint, then record two more iterations.
    for i in 0..2 {
        ppo_iteration(&sys, &ctrl, &prompts(i)).unwrap();
    }
    let ckpt = save_checkpoint(&sys).unwrap();
    let original: Vec<f32> =
        (2..4).map(|i| ppo_iteration(&sys, &ctrl, &prompts(i)).unwrap().mean_score).collect();

    // "Failure": restore and replay — must match exactly.
    restore_checkpoint(&sys, &ckpt).unwrap();
    let replayed: Vec<f32> =
        (2..4).map(|i| ppo_iteration(&sys, &ctrl, &prompts(i)).unwrap().mean_score).collect();
    assert_eq!(original, replayed, "recovery must be exact");
}

#[test]
fn checksum_detects_silent_corruption() {
    let (_ctrl, sys, _cfg) = system();
    let mut ckpt = save_checkpoint(&sys).unwrap();
    // Flip one weight without updating the checksum.
    let (params, w) = {
        let (p, w) = ckpt.actor.f32("params").unwrap();
        (p.to_vec(), w)
    };
    let mut corrupted = params;
    corrupted[17] += 1.0;
    ckpt.actor.insert_f32("params", corrupted, w);
    let err = restore_checkpoint(&sys, &ckpt);
    assert!(err.is_err(), "corruption must be detected");
    let msg = format!("{}", err.unwrap_err());
    assert!(msg.contains("checksum mismatch"), "{msg}");
}

#[test]
fn checkpoint_includes_critic_when_present() {
    let (_ctrl, sys, cfg) = system();
    let ckpt = save_checkpoint(&sys).unwrap();
    let n = cfg.lm.param_count();
    let critic = ckpt.critic.as_ref().expect("the critic is saved");
    for (part, group) in [(&ckpt.actor, &sys.actor), (critic, sys.critic.as_ref().unwrap())] {
        let decoded = AssembledState::from_load_input(part, n).unwrap();
        assert_eq!(decoded, collect_state(group).unwrap(), "{}", group.name());
    }
}

#[test]
fn an_interrupted_system_save_is_refused_whole() {
    // Step 2's actor shards landed and its critic save did not, so the
    // step never committed: restoring it must fail before either group is
    // touched — not restore the actor and then fail on the critic.
    let (ctrl, sys, cfg) = system();
    let prompts =
        |i: u64| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, i);
    let dir = std::env::temp_dir().join(format!("hf-interrupted-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    save_system_checkpoint(&store, &sys, &ctrl, 1).unwrap();
    ppo_iteration(&sys, &ctrl, &prompts(0)).unwrap();
    store.save_group(&sys.actor, 2).unwrap();
    ppo_iteration(&sys, &ctrl, &prompts(1)).unwrap();

    let live = collect_state(&sys.actor).unwrap();
    let err = restore_system_checkpoint(&store, &sys, 2).unwrap_err();
    assert!(matches!(&err, CoreError::Data(m) if m.contains("not committed")), "{err:?}");
    assert_eq!(collect_state(&sys.actor).unwrap(), live, "the actor was left alone");
    restore_system_checkpoint(&store, &sys, 1).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every trainable group's state, to show a refused restore touched
/// none of them.
fn states(sys: &RlhfSystem) -> Vec<AssembledState> {
    let groups = [Some(&sys.actor), sys.critic.as_ref()].into_iter().flatten();
    groups.map(|g| collect_state(g).unwrap()).collect()
}

/// A system trained one iteration past its committed step 1, the store
/// that holds that step, and the store's directory. The step holds the
/// critic only `with_critic`.
fn trained_past_step_one(
    tag: &str,
    with_critic: bool,
) -> (Controller, RlhfSystem, CheckpointStore, PathBuf) {
    let (ctrl, sys, cfg) = system();
    let dir = std::env::temp_dir().join(format!("hf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir).unwrap();
    if with_critic {
        save_system_checkpoint(&store, &sys, &ctrl, 1).unwrap();
    } else {
        store.save_group(&sys.actor, 1).unwrap();
        store.commit_at(1, &["actor"], ctrl.clock()).unwrap();
    }
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    ppo_iteration(&sys, &ctrl, &prompts).unwrap();
    (ctrl, sys, store, dir)
}

#[test]
fn a_corrupt_critic_shard_is_refused_before_the_actor_is_restored() {
    let (_ctrl, sys, store, dir) = trained_past_step_one("corrupt-critic", true);
    let shard = dir.join("step-000001").join("critic-rank-000.bin");
    let mut bytes = std::fs::read(&shard).unwrap();
    bytes[40] ^= 0x01;
    std::fs::write(&shard, bytes).unwrap();

    let live = states(&sys);
    let err = restore_system_checkpoint(&store, &sys, 1).unwrap_err();
    let want = "shard critic-rank-000.bin content hash mismatch (corrupt checkpoint)";
    assert!(matches!(&err, CoreError::Data(m) if m == want), "{err:?}");
    assert!(states(&sys) == live, "neither group was touched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_step_committed_without_the_critic_is_refused_whole() {
    let (_ctrl, sys, store, dir) = trained_past_step_one("actor-only-step", false);
    let live = states(&sys);
    let err = restore_system_checkpoint(&store, &sys, 1).unwrap_err();
    assert!(
        matches!(&err, CoreError::Data(m) if m.contains("committed without group critic")),
        "{err:?}"
    );
    assert!(states(&sys) == live, "neither group was touched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_of_other_groups_is_refused_before_anything_is_sent() {
    let (ctrl, sys, cfg) = system();
    let full = save_checkpoint(&sys).unwrap();
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    ppo_iteration(&sys, &ctrl, &prompts).unwrap();
    let live = states(&sys);
    let actor_only = SystemCheckpoint { critic: None, ..full.clone() };
    let err = restore_checkpoint(&sys, &actor_only).unwrap_err();
    assert!(
        matches!(&err, CoreError::Data(m) if m.contains("lacks a critic the system has")),
        "{err:?}"
    );
    assert!(states(&sys) == live, "neither group was touched");

    // A critic the system lacks is refused the same way.
    let (_ctrl, no_critic, _cfg) = system_with(false);
    let live = states(&no_critic);
    let err = restore_checkpoint(&no_critic, &full).unwrap_err();
    assert!(
        matches!(&err, CoreError::Data(m) if m.contains("has a critic the system lacks")),
        "{err:?}"
    );
    assert!(states(&no_critic) == live, "the actor was left alone");
}

#[test]
fn worker_failure_is_isolated_and_recoverable() {
    // A bad method call errors without poisoning the runtime; the system
    // keeps training afterwards.
    let (ctrl, sys, cfg) = system();
    let bad =
        sys.actor.call_sync("no_such_method", &hf_core::DataProto::empty(), Protocol::OneToAll);
    assert!(bad.is_err());
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    assert!(ppo_iteration(&sys, &ctrl, &prompts).is_ok());
}
