//! The pipelined driver's determinism contract (tier 1):
//!
//! * `staleness = 0` is **bit-identical to the synchronous driver** —
//!   same responses, same behaviour log-probs, same advantages, same
//!   final actor/critic weights and Adam moments, byte for byte.
//! * `staleness = 1` is **bit-identical across executions** — the
//!   static dispatch/wait schedule means wall-clock jitter (thread
//!   interleaving, `try_ready` readiness order) never reaches the
//!   numerics or the virtual clocks.
//!
//! Comparisons use bit patterns (`f32::to_bits`), not `==`, so `-0.0`
//! vs `+0.0` or NaN-payload drift would fail loudly.

use hf_core::{Controller, CoreError, DataProto, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    ppo_iteration, ppo_iteration_captured, restore_checkpoint, save_checkpoint, IterStats,
    PipelineConfig, PipelinedPpo, Placement, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

const ITERS: u64 = 3;
const ROWS: usize = 8;

/// Colocated 4-GPU system: actor 1-2-2 with a strided HybridEngine
/// generation grouping, so the pipelined transition path (overlap entry
/// + chunk skip) is actually exercised.
fn build_system() -> (Controller, RlhfSystem, RlhfConfig) {
    build_on(Controller::new(ClusterSpec::a100_with_gpus(4)))
}

/// [`build_system`] on `ctrl`.
fn build_on(ctrl: Controller) -> (Controller, RlhfSystem, RlhfConfig) {
    let cfg = RlhfConfig::tiny();
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys, cfg)
}

fn prompts_for(cfg: &RlhfConfig, iter: u64) -> DataProto {
    make_prompts(ROWS, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter)
}

/// Bit-pattern fingerprint of everything the schedule must not perturb
/// in an experience batch.
fn batch_bits(batch: &DataProto) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    let (resp, _) = batch.tokens("responses").unwrap();
    out.extend_from_slice(resp);
    for col in ["logp_old", "values", "ref_logp", "scores", "advantages", "returns"] {
        let (v, _) = batch.f32(col).unwrap();
        out.extend(v.iter().map(|f| f.to_bits()));
    }
    out
}

/// Bit-pattern fingerprint of the trained state: actor + critic params
/// and Adam moments.
fn checkpoint_bits(sys: &RlhfSystem) -> Vec<u32> {
    let ckpt = save_checkpoint(sys).unwrap();
    let mut out = Vec::new();
    for part in [Some(&ckpt.actor), ckpt.critic.as_ref()] {
        let part = part.expect("PPO checkpoint has actor and critic");
        for col in ["params", "opt_m", "opt_v"] {
            let (v, _) = part.f32(col).unwrap();
            out.extend(v.iter().map(|f| f.to_bits()));
        }
    }
    out
}

#[test]
fn pipelined_staleness0_is_bit_identical_to_sync() {
    // Synchronous reference.
    let (ctrl_a, sys_a, cfg) = build_system();
    let mut sync_batches = Vec::new();
    let mut sync_stats: Vec<IterStats> = Vec::new();
    for iter in 0..ITERS {
        let (stats, batch) =
            ppo_iteration_captured(&sys_a, &ctrl_a, &prompts_for(&cfg, iter)).unwrap();
        sync_batches.push((batch_bits(&batch), batch.meta));
        sync_stats.push(stats);
    }
    let sync_ckpt = checkpoint_bits(&sys_a);
    let _ = ctrl_a.shutdown();

    // Pipelined, staleness 0, generation split in two chunks.
    let (ctrl_b, sys_b, _) = build_system();
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness: 0, gen_chunks: 2 });
    for iter in 0..ITERS {
        let (stats, batch) = driver
            .step_captured(&sys_b, &ctrl_b, &prompts_for(&cfg, iter))
            .unwrap()
            .expect("staleness 0 trains in-step");
        let (sync_bits, sync_meta) = &sync_batches[iter as usize];
        assert_eq!(
            &batch_bits(&batch),
            sync_bits,
            "iteration {iter}: pipelined staleness-0 batch diverged from sync"
        );
        assert_eq!(&batch.meta, sync_meta, "iteration {iter}: no wire key reaches the batch");
        let s = &sync_stats[iter as usize];
        assert_eq!(stats.mean_score.to_bits(), s.mean_score.to_bits(), "iter {iter} mean_score");
        assert_eq!(stats.actor_loss.to_bits(), s.actor_loss.to_bits(), "iter {iter} actor_loss");
        assert_eq!(stats.critic_loss.to_bits(), s.critic_loss.to_bits(), "iter {iter} critic_loss");
        assert_eq!(stats.entropy.to_bits(), s.entropy.to_bits(), "iter {iter} entropy");
        assert_eq!(stats.staleness, 0);
    }
    assert!(driver.flush(&sys_b, &ctrl_b).unwrap().is_empty(), "staleness 0 leaves nothing queued");
    assert_eq!(
        checkpoint_bits(&sys_b),
        sync_ckpt,
        "pipelined staleness-0 weights/Adam moments diverged from sync"
    );
    let _ = ctrl_b.shutdown();
}

/// A config the driver cannot run is turned down by its first step, as
/// the re-mapping loop turns it down, before anything is dispatched.
#[test]
fn an_unsupported_pipeline_config_is_a_config_error() {
    let (ctrl, sys, cfg) = build_system();
    for pcfg in [
        PipelineConfig { staleness: 2, gen_chunks: 2 },
        PipelineConfig { staleness: 1, gen_chunks: 0 },
    ] {
        let got = PipelinedPpo::new(pcfg).step(&sys, &ctrl, &prompts_for(&cfg, 0));
        assert!(matches!(got, Err(CoreError::Config(_))), "{pcfg:?}: {got:?}");
    }
    assert!(ctrl.timeline().is_empty(), "a turned-down step dispatches nothing");
    let _ = ctrl.shutdown();
}

/// One full staleness-1 pipelined run, the controller's timeline
/// cleared before step `clear_before` if given; returns everything
/// observable.
fn run_staleness1(clear_before: Option<u64>) -> (Vec<IterStats>, Vec<Vec<u32>>, Vec<u32>) {
    let (ctrl, sys, cfg) = build_system();
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: 2 });
    let mut stats = Vec::new();
    let mut batches = Vec::new();
    for iter in 0..ITERS + 1 {
        if clear_before == Some(iter) {
            ctrl.clear_timeline();
        }
        if let Some((s, b)) = driver.step_captured(&sys, &ctrl, &prompts_for(&cfg, iter)).unwrap() {
            batches.push(batch_bits(&b));
            stats.push(s);
        }
    }
    stats.extend(driver.flush(&sys, &ctrl).unwrap());
    let ckpt = checkpoint_bits(&sys);
    let _ = ctrl.shutdown();
    (stats, batches, ckpt)
}

/// One short GRPO run against the `RewardSource::Verifier` sandbox
/// pool; returns stat bits + final actor checkpoint bits.
fn run_grpo_verifier() -> (Vec<u32>, Vec<u32>) {
    let cfg = RlhfConfig::tiny_verifier();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), false, false);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    let mut stat_bits = Vec::new();
    for iter in 0..ITERS {
        let prompts =
            make_prompts(ROWS, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = hf_rlhf::grpo_iteration(&sys, &ctrl, &prompts).unwrap();
        stat_bits.push(stats.mean_score.to_bits());
        stat_bits.push(stats.actor_loss.to_bits());
        stat_bits.push(stats.entropy.to_bits());
    }
    let ckpt = save_checkpoint(&sys).unwrap();
    let (params, _) = ckpt.actor.f32("params").unwrap();
    let bits = params.iter().map(|f| f.to_bits()).collect();
    let _ = ctrl.shutdown();
    (stat_bits, bits)
}

#[test]
fn grpo_verifier_pool_is_bit_identical_across_executions() {
    // The verifier pool's virtual-time sandbox (seeded cost draws,
    // timeouts, straggler cancellation, retries) sits on the reward
    // path; pinned seeds must still pin every trained bit.
    let (stats_a, ckpt_a) = run_grpo_verifier();
    let (stats_b, ckpt_b) = run_grpo_verifier();
    assert_eq!(stats_a, stats_b, "GRPO+verifier stats diverged between runs");
    assert_eq!(ckpt_a, ckpt_b, "GRPO+verifier final actor weights diverged between runs");
}

#[test]
fn pipelined_staleness1_is_bit_identical_across_executions() {
    let (stats_a, batches_a, ckpt_a) = run_staleness1(None);
    let (stats_b, batches_b, ckpt_b) = run_staleness1(None);
    // Every trained batch fed the same bits in both executions.
    assert_eq!(batches_a, batches_b, "staleness-1 experience batches diverged between runs");
    // Stats carry virtual-time and overlap measurements as f64 — full
    // equality pins the virtual timing itself as deterministic.
    assert_eq!(stats_a, stats_b, "staleness-1 iteration stats diverged between runs");
    assert_eq!(ckpt_a, ckpt_b, "staleness-1 final weights diverged between runs");
    // The pipeline actually ran one step off-policy and trained every
    // generated batch exactly once.
    assert_eq!(stats_a.len() as u64, ITERS + 1, "flush must drain the in-flight iterations");
    assert!(stats_a.iter().all(|s| s.staleness == 1));
}

#[test]
fn clearing_the_timeline_between_steps_changes_nothing() {
    // The driver reads the controller's timeline from an absolute
    // position, so a clear between steps neither panics nor drops a
    // later step's intervals from the measured overlap.
    let (stats_a, batches_a, ckpt_a) = run_staleness1(None);
    let (stats_b, batches_b, ckpt_b) = run_staleness1(Some(ITERS));
    assert_eq!(batches_b, batches_a, "a timeline clear changed an experience batch");
    assert_eq!(stats_b, stats_a, "a timeline clear changed the stats (overlap_fraction included)");
    assert_eq!(ckpt_b, ckpt_a, "a timeline clear changed the final weights");
}

/// A checkpoint restored onto a live system whose actor the filling step
/// left in generation mode: the next step's first chunk reshards again,
/// and the step samples from the restored weights, as a fresh system
/// that restored the same checkpoint does.
#[test]
fn a_restored_actor_reshards_again_and_samples_the_restored_weights() {
    // Weights two PPO iterations moved away from the initial ones.
    let (ctrl_ckpt, sys_ckpt, cfg) = build_system();
    for iter in 0..2 {
        ppo_iteration(&sys_ckpt, &ctrl_ckpt, &prompts_for(&cfg, iter)).unwrap();
    }
    let ckpt = save_checkpoint(&sys_ckpt).unwrap();
    let _ = ctrl_ckpt.shutdown();

    let pcfg = PipelineConfig { staleness: 1, gen_chunks: 2 };
    let telemetry = Telemetry::enabled();
    let cluster = ClusterSpec::a100_with_gpus(4);
    let (ctrl, sys, _) =
        build_on(Controller::with_telemetry(cluster, CommCostModel::default(), telemetry));
    let resharded = || ctrl.telemetry().counter("transition.to_generation.recv_bytes");
    let mut driver = PipelinedPpo::new(pcfg);
    // The filling step trains nothing: the actor stays in generation mode.
    assert!(driver.step(&sys, &ctrl, &prompts_for(&cfg, 10)).unwrap().is_none());
    let one_step = resharded();
    assert!(one_step > 0, "the filling step's first chunk reshards");
    restore_checkpoint(&sys, &ckpt).unwrap();
    assert_eq!(resharded(), one_step, "a restore reshards nothing");
    assert!(driver.step(&sys, &ctrl, &prompts_for(&cfg, 11)).unwrap().is_none());
    assert_eq!(resharded(), 2 * one_step, "the step after a restore reshards its first chunk");
    // Steps emit the batch generated two steps before: this is step 11's.
    driver.step(&sys, &ctrl, &prompts_for(&cfg, 12)).unwrap();
    let (_, restored) = driver.step_captured(&sys, &ctrl, &prompts_for(&cfg, 13)).unwrap().unwrap();
    let _ = ctrl.shutdown();

    let (ctrl, sys, _) = build_system();
    restore_checkpoint(&sys, &ckpt).unwrap();
    let mut driver = PipelinedPpo::new(pcfg);
    driver.step(&sys, &ctrl, &prompts_for(&cfg, 11)).unwrap();
    driver.step(&sys, &ctrl, &prompts_for(&cfg, 12)).unwrap();
    let (_, fresh) = driver.step_captured(&sys, &ctrl, &prompts_for(&cfg, 13)).unwrap().unwrap();
    let _ = ctrl.shutdown();

    assert_eq!(restored.tokens("responses").unwrap(), fresh.tokens("responses").unwrap());
    let bits = |b: &DataProto| -> Vec<u32> {
        b.f32("logp_old").unwrap().0.iter().map(|f| f.to_bits()).collect()
    };
    assert_eq!(bits(&restored), bits(&fresh), "the restored weights' log-probs");
}
