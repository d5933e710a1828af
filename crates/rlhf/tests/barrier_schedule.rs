//! The barrier driver issues every call the moment its input exists, as
//! a batch or as a future (`stage::run_stages`): read back from the
//! controller's timeline, and — for the two calls that left `invoke_sync`
//! and kept their transient retry, `generate_sequences` and
//! `compute_log_prob` — driven through a dropped RPC; and the verifier
//! pool's pass, on its own host clock, driven through a late reference.

mod common;

use std::sync::Arc;

use common::controller_4gpu;
use hf_core::{CallPolicy, Controller, CoreError, DataProto, TimelineEntry, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{collect_state, decode_shards, FaultInjector, FaultPlan, FaultTrigger};
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
fn calls_that_read_one_reply_leave_with_the_call_that_produces_it() {
    let mut cfg = RlhfConfig::tiny();
    cfg.recompute_logp = true;
    let (ctrl, sys) = system(&cfg, true, None);
    ppo_iteration_captured(&sys, &ctrl, &prompts(&cfg, 0)).unwrap();

    // The generation reply feeds four passes: they leave with generation,
    // on its future.
    let readers = ["compute_log_prob", "compute_values", "compute_ref_log_prob", "compute_reward"];
    let with_generation = [&["generate_sequences"][..], &readers].concat();
    assert_eq!(calls_per_dispatch_instant(&ctrl, &with_generation), [5]);
    // The finished batch feeds every micro-batch's two updates.
    let updates = ["update_critic", "update_actor"];
    assert_eq!(calls_per_dispatch_instant(&ctrl, &updates), [2 * cfg.updates]);
    // Prompts → generation, advantages → training: the two inputs the
    // controller makes, two dispatch instants an iteration.
    let all = [&with_generation[..], &updates].concat();
    assert_eq!(calls_per_dispatch_instant(&ctrl, &all), [5, 2 * cfg.updates]);
    // A reader could start when generation finished, not when its RPC
    // arrived.
    let timeline = ctrl.timeline();
    let generation = timeline.iter().find(|e| e.method == "generate_sequences").unwrap();
    for e in timeline.iter().filter(|e| readers.contains(&e.method.as_str())) {
        assert_eq!(e.dispatched, generation.dispatched, "{}", e.method);
        assert_eq!(e.started, generation.completed, "{}", e.method);
    }
    assert_eq!(generation.started, generation.dispatched);
}

#[test]
fn actor_only_updates_stay_one_after_another() {
    // A retried `update_actor` must not land behind its successor, so
    // GRPO's updates keep `invoke_sync`: one dispatch per micro-batch —
    // after generation and the two passes issued on its future.
    let cfg = RlhfConfig::tiny();
    assert_eq!(cfg.updates, 2);
    let (ctrl, sys) = system(&cfg, false, None);
    grpo_iteration(&sys, &ctrl, &prompts(&cfg, 0)).unwrap();
    let all = ["generate_sequences", "compute_ref_log_prob", "compute_reward", "update_actor"];
    assert_eq!(calls_per_dispatch_instant(&ctrl, &all), [3, 1, 1]);
}

/// What one GRPO iteration against the verifier pool leaves behind.
struct GrpoRun {
    /// The batch's statistics as bits, virtual time left out.
    stats: Vec<u32>,
    weights: Vec<u32>,
    reference: TimelineEntry,
    reward: TimelineEntry,
}

/// One GRPO iteration, with rank 1's `compute_ref_log_prob` delivered
/// `delay_s` late when it is non-zero.
fn grpo_with_a_late_reference(delay_s: f64) -> GrpoRun {
    let cfg = RlhfConfig::tiny_verifier();
    let injector = (delay_s > 0.0).then(|| {
        let trigger = FaultTrigger::OnCall { method: "compute_ref_log_prob".into(), nth: 1 };
        FaultInjector::new(FaultPlan::new().delay_rpc("reference", 1, delay_s, trigger))
    });
    let (ctrl, sys) = system(&cfg, false, injector);
    let s = grpo_iteration(&sys, &ctrl, &prompts(&cfg, 0)).unwrap();
    let stats = [s.mean_score, s.mean_cost, s.actor_loss, s.entropy, s.critic_loss, s.ptx_loss];
    let entry = |method: &str| ctrl.timeline().into_iter().find(|e| e.method == method).unwrap();
    GrpoRun {
        stats: stats.iter().map(|v| v.to_bits()).collect(),
        weights: weights(&sys),
        reference: entry("compute_ref_log_prob"),
        reward: entry("compute_reward"),
    }
}

/// The verifier pool runs on its node's host CPUs, so a reference pass
/// held up on one GPU does not hold up the reward scored beside it.
#[test]
fn a_late_reference_pass_does_not_delay_the_verifier() {
    let clean = grpo_with_a_late_reference(0.0);
    let late = grpo_with_a_late_reference(5e-3);
    assert!(late.reference.completed > clean.reference.completed, "the delay fired");
    assert_eq!(late.reward.started.to_bits(), clean.reward.started.to_bits());
    assert_eq!(
        late.reward.completed.to_bits(),
        clean.reward.completed.to_bits(),
        "compute_reward completed at {} µs, {} µs without the late reference",
        late.reward.completed * 1e6,
        clean.reward.completed * 1e6
    );
    assert_eq!(late.stats, clean.stats, "scores or losses differ");
    assert!(late.weights == clean.weights, "actor weights or Adam moments differ");
}

/// Weights and Adam moments of every trained model, as bits.
fn weights(sys: &RlhfSystem) -> Vec<u32> {
    let mut bits = Vec::new();
    for group in std::iter::once(&sys.actor).chain(&sys.critic) {
        let st = collect_state(group).unwrap();
        for v in [&st.params, &st.opt_m, &st.opt_v] {
            bits.extend(v.iter().map(|x| x.to_bits()));
        }
    }
    bits
}

/// Every actor rank's sampler round, read off its `save_shard` reply.
fn gen_rounds(sys: &RlhfSystem) -> Vec<u64> {
    let shards = sys.actor.invoke_sync("save_shard", &DataProto::empty()).unwrap();
    decode_shards(&shards).unwrap().iter().map(|s| s.head.gen_round).collect()
}

struct Run {
    batches: Vec<DataProto>,
    weights: Vec<u32>,
    retries: u64,
    clock: f64,
    gen_rounds: Vec<u64>,
}

/// Two PPO iterations; rank 2's first RPC of `drop` is dropped when one
/// is named.
fn run_with_retries(
    max_retries: u32,
    drop: Option<&str>,
    recompute_logp: bool,
) -> hf_core::Result<Run> {
    let mut cfg = RlhfConfig::tiny();
    cfg.recompute_logp = recompute_logp;
    let injector = drop.map(|method| {
        let trigger = FaultTrigger::OnCall { method: method.into(), nth: 1 };
        FaultInjector::new(FaultPlan::new().drop_rpc("actor", 2, 1, trigger))
    });
    let (ctrl, sys) = system(&cfg, true, injector);
    ctrl.set_policy(CallPolicy { max_retries, ..CallPolicy::default() });
    let mut batches = Vec::new();
    for i in 0..2 {
        batches.push(ppo_iteration_captured(&sys, &ctrl, &prompts(&cfg, i))?.1);
    }
    let retries = ctrl.telemetry().counter("resilience.retries");
    let clock = ctrl.clock();
    Ok(Run { batches, weights: weights(&sys), retries, clock, gen_rounds: gen_rounds(&sys) })
}

/// A run with one dropped RPC of `method` against the fault-free run:
/// one retry, the backoff charged, and nothing else to tell them apart.
fn assert_retry_is_invisible(method: &str, recompute_logp: bool) {
    let clean = run_with_retries(1, None, recompute_logp).unwrap();
    assert_eq!(clean.retries, 0);

    let run = run_with_retries(1, Some(method), recompute_logp).unwrap();
    assert_eq!(run.retries, 1, "one dropped RPC, one retry");
    assert!(run.batches == clean.batches, "experience batches differ from the fault-free run");
    assert!(run.weights == clean.weights, "actor / critic weights or Adam moments differ");
    assert!(run.clock > clean.clock + CallPolicy::default().backoff_s, "the backoff is charged");
    assert_eq!(run.gen_rounds, clean.gen_rounds, "sampler rounds vs the fault-free run");
    assert!(run.gen_rounds.iter().all(|r| *r == run.gen_rounds[0]), "{:?}", run.gen_rounds);

    // The same policy, not a second one: no retries allowed, none made.
    let err = run_with_retries(0, Some(method), recompute_logp).map(|_| ()).unwrap_err();
    assert!(matches!(err, CoreError::Transient(_)), "{err:?}");
}

/// The retry re-dispatches behind the preparation passes already queued;
/// a forward pass computes the same bits there.
#[test]
fn compute_log_prob_keeps_its_transient_retry_as_a_future() {
    assert_retry_is_invisible("compute_log_prob", true);
}

/// The ranks that ran the failed attempt spent a sampler round, the
/// dropped rank did not: the retried pass must sample the round of the
/// attempt it replaces on every rank, and what was issued on the failed
/// future is issued again with it.
#[test]
fn a_retried_generation_is_the_fault_free_generation() {
    assert_retry_is_invisible("generate_sequences", false);
    assert_retry_is_invisible("generate_sequences", true);
}
