//! The outer training loop without faults: multi-iteration runs of
//! every algorithm, the stats history, and the errors that must *not*
//! be treated as recoverable.

mod common;

use common::{controller_4gpu, fresh_store, placement_4gpu};
use hf_core::CoreError;
use hf_rlhf::{remap_recoverable, Algorithm, FixedPlacement, RemapConfig, RemapReport, RlhfConfig};

fn run(tag: &str, cfg: &RemapConfig, critic: bool, cost: bool) -> hf_core::Result<RemapReport> {
    run_with(tag, cfg, RlhfConfig::tiny(), critic, cost)
}

fn run_with(
    tag: &str,
    cfg: &RemapConfig,
    rlhf: RlhfConfig,
    critic: bool,
    cost: bool,
) -> hf_core::Result<RemapReport> {
    let ctrl = controller_4gpu(None);
    let placement = placement_4gpu(critic, cost);
    let mut planner = FixedPlacement(placement.clone());
    let report = remap_recoverable(&ctrl, &fresh_store(tag), cfg, &placement, rlhf, &mut planner);
    assert_eq!(ctrl.telemetry().counter("remap.events"), 0, "nothing failed, nothing re-placed");
    assert!(ctrl.lost_ranks().is_empty(), "a configuration error costs no rank");
    report
}

#[test]
fn ppo_improves_reward_over_fifteen_iterations() {
    let cfg = RemapConfig {
        iterations: 15,
        batch: 16,
        checkpoint_every: 5,
        data_seed: 1,
        ..Default::default()
    };
    let history = run("loop-ppo", &cfg, true, false).unwrap().history;
    assert_eq!(history.len(), 15);
    let early = history[0].mean_score;
    let late = history[12..].iter().map(|s| s.mean_score).sum::<f32>() / 3.0;
    assert!(late > early, "training must improve reward: {early} -> {late}");
}

#[test]
fn every_algorithm_runs() {
    for algorithm in [Algorithm::Ppo, Algorithm::ReMax, Algorithm::SafeRlhf, Algorithm::Grpo] {
        let needs_critic = matches!(algorithm, Algorithm::Ppo | Algorithm::SafeRlhf);
        let needs_cost = matches!(algorithm, Algorithm::SafeRlhf);
        let cfg = RemapConfig { algorithm, iterations: 2, ..Default::default() };
        let report = run(&format!("loop-{algorithm:?}"), &cfg, needs_critic, needs_cost)
            .unwrap_or_else(|e| panic!("{algorithm:?}: {e}"));
        assert_eq!(report.history.len(), 2);
        assert!(report.history.iter().all(|s| s.mean_score.is_finite()));
    }
}

#[test]
fn ppo_without_a_critic_is_an_application_error_and_is_not_retried() {
    // Respawning cannot conjure a critic: the error surfaces as itself
    // (not as "gave up after N recoveries") and nothing is re-placed —
    // `run` asserts the latter.
    let cfg = RemapConfig { algorithm: Algorithm::Ppo, ..Default::default() };
    let err = run("loop-no-critic", &cfg, false, false).unwrap_err();
    assert!(matches!(err, CoreError::Config(_)), "{err:?}");
    // A critic-free algorithm on the same placement works.
    let cfg = RemapConfig { algorithm: Algorithm::ReMax, iterations: 1, ..Default::default() };
    assert!(run("loop-remax", &cfg, false, false).is_ok());
}

#[test]
fn zero_checkpoint_interval_is_a_config_error() {
    let cfg = RemapConfig { checkpoint_every: 0, ..Default::default() };
    let err = run("loop-every-0", &cfg, true, false).unwrap_err();
    assert!(matches!(err, CoreError::Config(_)), "{err:?}");
}

/// A zero in any count of `RlhfConfig` is turned down when the system
/// is built — before it can panic the controller in `DataProto::chunk`
/// (`updates`), underflow `pw - 1` inside a rank thread (`prompt_len`),
/// or divide a loss by zero rows and train on NaN (`response_len`).
#[test]
fn a_zero_count_in_the_rlhf_config_is_a_config_error() {
    type Edit = fn(&mut RlhfConfig);
    let zeros: [(&str, Edit); 8] = [
        ("updates", |c| c.updates = 0),
        ("prompt_len", |c| c.prompt_len = 0),
        ("response_len", |c| c.response_len = 0),
        ("grpo_group", |c| c.grpo_group = 0),
        ("lm.vocab", |c| c.lm.vocab = 0),
        ("lm.hidden", |c| c.lm.hidden = 0),
        ("lm.ffn", |c| c.lm.ffn = 0),
        ("lm.layers", |c| c.lm.layers = 0),
    ];
    for (name, zero) in zeros {
        let mut rlhf = RlhfConfig::tiny();
        zero(&mut rlhf);
        let cfg = RemapConfig { iterations: 1, ..Default::default() };
        let err = run_with(&format!("loop-zero-{name}"), &cfg, rlhf, true, false).unwrap_err();
        assert!(matches!(&err, CoreError::Config(why) if why.contains(name)), "{name}: {err:?}");
    }
}
