//! Fault-tolerance tests (paper §9): consistent checkpoints via the
//! single controller, checksum detection of silent data corruption, and
//! exact recovery — a restored system reproduces the original learning
//! trajectory bit-for-bit (parameters *and* RNG state are saved).

use hf_core::{Controller, CoreError, Protocol, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{collect_state, AssembledState, CheckpointStore};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    ppo_iteration, restore_checkpoint, restore_system_checkpoint, save_checkpoint,
    save_system_checkpoint, Placement, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, ResourcePool};

fn system() -> (Controller, RlhfSystem, RlhfConfig) {
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        true,
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
