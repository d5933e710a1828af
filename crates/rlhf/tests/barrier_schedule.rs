//! The barrier driver issues every call the moment its input exists
//! (`stage::run_stages`): read back from the controller's timeline, and
//! — for the one call that both left `invoke_sync` and kept its
//! transient retry, `compute_log_prob` — driven through a dropped RPC.

mod common;

use std::sync::Arc;

use common::controller_4gpu;
use hf_core::{CallPolicy, Controller, CoreError, DataProto, Protocol, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{grpo_iteration, ppo_iteration_captured, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::ResourcePool;

/// Every model colocated on four GPUs, pure data parallelism.
fn system(
    cfg: &RlhfConfig,
    critic: bool,
    fault: Option<Arc<FaultInjector>>,
) -> (Controller, RlhfSystem) {
    let ctrl = controller_4gpu(fault);
    let gen = GenGrouping::new(ParallelSpec::new(1, 1, 4), 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        critic,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys)
}

fn prompts(cfg: &RlhfConfig, seed: u64) -> DataProto {
    make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, seed)
}

/// How many calls of `methods` left at each distinct virtual dispatch
/// instant, in timeline order.
fn calls_per_dispatch_instant(ctrl: &Controller, methods: &[&str]) -> Vec<usize> {
    let mut instants: Vec<(u64, usize)> = Vec::new();
    for e in ctrl.timeline().iter().filter(|e| methods.contains(&e.method.as_str())) {
        match instants.iter_mut().find(|(t, _)| *t == e.dispatched.to_bits()) {
            Some((_, n)) => *n += 1,
            None => instants.push((e.dispatched.to_bits(), 1)),
        }
    }
    instants.into_iter().map(|(_, n)| n).collect()
}

#[test]
fn calls_that_read_one_reply_leave_at_one_instant() {
    let mut cfg = RlhfConfig::tiny();
    cfg.recompute_logp = true;
    let (ctrl, sys) = system(&cfg, true, None);
    ppo_iteration_captured(&sys, &ctrl, &prompts(&cfg, 0)).unwrap();

    // The generation reply feeds four passes: none waits for another.
    let readers = ["compute_log_prob", "compute_values", "compute_ref_log_prob", "compute_reward"];
    assert_eq!(calls_per_dispatch_instant(&ctrl, &readers), [4]);
    // The finished batch feeds every micro-batch's two updates.
    let updates = ["update_critic", "update_actor"];
    assert_eq!(calls_per_dispatch_instant(&ctrl, &updates), [2 * cfg.updates]);
    // Generation, preparation, training: three controller dependencies.
    let all = [&["generate_sequences"][..], &readers, &updates].concat();
    assert_eq!(calls_per_dispatch_instant(&ctrl, &all), [1, 4, 2 * cfg.updates]);
}

#[test]
fn actor_only_updates_stay_one_after_another() {
    // A retried `update_actor` must not land behind its successor, so
    // GRPO's updates keep `invoke_sync`: one dispatch per micro-batch.
    let cfg = RlhfConfig::tiny();
    assert_eq!(cfg.updates, 2);
    let (ctrl, sys) = system(&cfg, false, None);
    grpo_iteration(&sys, &ctrl, &prompts(&cfg, 0)).unwrap();
    assert_eq!(calls_per_dispatch_instant(&ctrl, &["update_actor"]), [1, 1]);
}

/// Weights and Adam moments of both trained models, as bits.
fn weights(sys: &RlhfSystem) -> Vec<u32> {
    let mut bits = Vec::new();
    for group in [&sys.actor, sys.critic.as_ref().unwrap()] {
        let ck =
            group.call_sync("save_checkpoint", &DataProto::empty(), Protocol::OneToOne).unwrap();
        for col in ["params", "opt_m", "opt_v"] {
            bits.extend(ck.f32(col).unwrap().0.iter().map(|x| x.to_bits()));
        }
    }
    bits
}

/// Two PPO iterations with `recompute_logp`; rank 2's first
/// `compute_log_prob` RPC is dropped when `drop_first` is set.
fn run_with_retries(
    max_retries: u32,
    drop_first: bool,
) -> hf_core::Result<(Vec<DataProto>, Vec<u32>, u64, f64)> {
    let mut cfg = RlhfConfig::tiny();
    cfg.recompute_logp = true;
    let trigger = FaultTrigger::OnCall { method: "compute_log_prob".into(), nth: 1 };
    let injector =
        drop_first.then(|| FaultInjector::new(FaultPlan::new().drop_rpc("actor", 2, 1, trigger)));
    let (ctrl, sys) = system(&cfg, true, injector);
    ctrl.set_policy(CallPolicy { max_retries, ..CallPolicy::default() });
    let mut batches = Vec::new();
    for i in 0..2 {
        batches.push(ppo_iteration_captured(&sys, &ctrl, &prompts(&cfg, i))?.1);
    }
    let retries = ctrl.telemetry().counter("resilience.retries");
    Ok((batches, weights(&sys), retries, ctrl.clock()))
}

#[test]
fn compute_log_prob_keeps_its_transient_retry_as_a_future() {
    let (clean_batches, clean_weights, retries, clean_clock) = run_with_retries(1, false).unwrap();
    assert_eq!(retries, 0);

    // The retry re-dispatches behind the preparation passes already
    // queued; a forward pass computes the same bits there.
    let (batches, weights, retries, clock) = run_with_retries(1, true).unwrap();
    assert_eq!(retries, 1, "one dropped RPC, one retry");
    assert_eq!(batches, clean_batches, "experience batches vs the fault-free run");
    assert_eq!(weights, clean_weights, "actor / critic weights and Adam moments");
    assert!(clock > clean_clock + CallPolicy::default().backoff_s, "the backoff is charged");

    // The same policy, not a second one: no retries allowed, none made.
    let err = run_with_retries(0, true).unwrap_err();
    assert!(matches!(err, CoreError::Transient(_)), "{err:?}");
}
