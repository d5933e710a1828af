//! Property: reward scoring is **layout-invariant** — the same batch
//! scored by the same reward definition produces bit-identical `scores`
//! under every `(p, t, d)` worker layout, and under a system built with
//! a ZeRO-3 actor vs a replicated one. Holds for both reward sources:
//! the rule-based [`RewardWorker`] and the sandbox-pool
//! [`RewardEvaluatorWorker`] (whose task seeds derive from *global*
//! rows, never from rank or chunk shape).

use hf_core::{Controller, DataProto, Protocol, Worker, WorkerLayout};
use hf_nn::LmConfig;
use hf_parallel::ParallelSpec;
use hf_rewards::{PoolConfig, VerifierKind, VerifierSpec};
use hf_rlhf::workers::{RewardKind, RewardWorker};
use hf_rlhf::{Placement, RewardEvaluatorWorker, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, ResourcePool};
use proptest::prelude::*;

const VOCAB: u32 = 16;

/// Every 4-GPU `(p, t, d)` layout (LmConfig::tiny has 4 layers, so all
/// pipeline degrees divide).
const LAYOUTS: [(usize, usize, usize); 5] = [(1, 1, 4), (1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 4, 1)];

fn batch(prompts: &[u32], responses: &[u32], pw: usize, rw: usize) -> DataProto {
    let rows = prompts.len() / pw;
    let mut b = DataProto::with_rows(rows);
    b.insert_tokens("prompts", prompts.to_vec(), pw);
    b.insert_tokens("responses", responses.to_vec(), rw);
    b
}

/// Scores `data` with a fresh reward group at `spec`, returning the
/// column's bit patterns.
fn score_bits(
    spec: ParallelSpec,
    data: &DataProto,
    make: impl Fn() -> Box<dyn Worker> + Send + Sync + 'static,
) -> Vec<u32> {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let pool = ResourcePool::contiguous(0, spec.world());
    let group =
        ctrl.spawn_group("reward", &pool, WorkerLayout::train_only(spec), |_r| make()).unwrap();
    group.register("compute_reward", Protocol::ThreeD);
    let out = group.invoke_sync("compute_reward", data).unwrap();
    let (scores, _) = out.f32("scores").unwrap();
    scores.iter().map(|f| f.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rule_based_scoring_is_layout_invariant(
        rows in 1usize..=8,
        pw in 2usize..=6,
        rw in 1usize..=6,
        seed in any::<u32>(),
        good in proptest::collection::vec(0u32..VOCAB, 1..6),
    ) {
        let toks = |n: usize, salt: u32| -> Vec<u32> {
            (0..n).map(|i| (seed.wrapping_mul(2654435761).wrapping_add(salt + i as u32 * 97)) % VOCAB).collect()
        };
        let data = batch(&toks(rows * pw, 1), &toks(rows * rw, 2), pw, rw);
        let reference: Vec<Vec<u32>> = LAYOUTS
            .iter()
            .map(|&(p, t, d)| {
                let g = good.clone();
                score_bits(ParallelSpec::new(p, t, d), &data, move || {
                    Box::new(RewardWorker::new(
                        LmConfig::tiny(),
                        RewardKind::RuleBased { good_tokens: g.clone() },
                    ))
                })
            })
            .collect();
        prop_assert_eq!(reference[0].len(), rows);
        for bits in &reference[1..] {
            prop_assert_eq!(&reference[0], bits, "rule-based scores must not depend on (p,t,d)");
        }
    }

    #[test]
    fn verifier_pool_scoring_is_layout_invariant(
        rows in 1usize..=8,
        pw in 2usize..=6,
        rw in 1usize..=6,
        seed in any::<u32>(),
    ) {
        let toks = |n: usize, salt: u32| -> Vec<u32> {
            (0..n).map(|i| (seed.wrapping_mul(2654435761).wrapping_add(salt + i as u32 * 97)) % VOCAB).collect()
        };
        let data = batch(&toks(rows * pw, 1), &toks(rows * rw, 2), pw, rw);
        let spec = VerifierSpec { kind: VerifierKind::AnswerExtraction, vocab: VOCAB };
        let reference: Vec<Vec<u32>> = LAYOUTS
            .iter()
            .map(|&(p, t, d)| {
                score_bits(ParallelSpec::new(p, t, d), &data, move || {
                    Box::new(RewardEvaluatorWorker::new(spec, PoolConfig::new(4, 0x5eed)))
                })
            })
            .collect();
        prop_assert_eq!(reference[0].len(), rows);
        for bits in &reference[1..] {
            prop_assert_eq!(&reference[0], bits, "verifier scores must not depend on (p,t,d)");
        }
    }
}

/// ZeRO-3 vs replicated actor sharding must not perturb reward scoring:
/// the reward group's inputs come off the same generation bits, and its
/// outputs must match byte for byte. (One deterministic iteration each;
/// not a proptest because a full system build is comparatively heavy.)
#[test]
fn reward_scores_match_between_zero_and_replicated_builds() {
    use hf_rlhf::env::make_prompts;
    use hf_rlhf::ppo_iteration_captured;

    let run = |zero: bool| -> Vec<u32> {
        let cfg = RlhfConfig::tiny();
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let spec = ParallelSpec::new(1, 1, 4); // ZeRO needs pure DP
        let pool = ResourcePool::contiguous(0, 4);
        let placement = Placement::colocated(pool, WorkerLayout::train_only(spec), true, false);
        let sys = if zero {
            RlhfSystem::build_zero(&ctrl, &placement, cfg.clone()).unwrap()
        } else {
            RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap()
        };
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
        let (_, captured) = ppo_iteration_captured(&sys, &ctrl, &prompts).unwrap();
        let (scores, _) = captured.f32("scores").unwrap();
        scores.iter().map(|f| f.to_bits()).collect()
    };
    assert_eq!(run(false), run(true), "scores must not depend on actor sharding");
}
