//! Model-parallel peers split their chunk's rows (`workers::mp_rows`)
//! instead of each computing all of them. Per-row results are pure
//! functions of replicated weights and the shared chunk, so nothing may
//! move: a 1-2-2 system must stay bit-identical to a 1-1-4 one (no
//! model-parallel group to split across) and to digests recorded at the
//! commit before the split, when every rank still ran every row. Later
//! changes to *how* a pass runs are held to the same digests: what the
//! workers compute stays put; only a clock may move, and says why.

use hf_core::{Controller, DataProto, WorkerGroup, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::collect_state;
use hf_rlhf::env::{make_pretrain, make_prompts};
use hf_rlhf::{
    ppo_iteration_captured, remax_iteration, safe_rlhf_iteration, IterStats, Placement, RlhfConfig,
    RlhfSystem,
};
use hf_simcluster::{ClusterSpec, ResourcePool};

/// FNV-1a over 32-bit words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    fn f32s(&mut self, v: &[f32]) {
        v.iter().for_each(|x| self.word(x.to_bits()));
    }
    fn f64(&mut self, x: f64) {
        self.word(x.to_bits() as u32);
        self.word((x.to_bits() >> 32) as u32);
    }
    /// The statistics the workers' replies determine.
    fn losses(&mut self, s: &IterStats) {
        self.f32s(&[s.mean_score, s.mean_cost, s.actor_loss, s.entropy, s.critic_loss, s.ptx_loss]);
    }
    fn stats(&mut self, s: &IterStats) {
        self.losses(s);
        self.f64(s.virtual_seconds);
    }
}

fn system(spec: ParallelSpec, cfg: &RlhfConfig, cost: bool) -> (Controller, RlhfSystem) {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        true,
        cost,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys)
}

/// Weights and both Adam moments of a trained model, assembled from its
/// `save_shard` replies: each model-parallel slice from its owner.
fn model_state(group: &WorkerGroup) -> Digest {
    let st = collect_state(group).unwrap();
    let mut d = Digest::new();
    for v in [&st.params, &st.opt_m, &st.opt_v] {
        d.f32s(v);
    }
    d
}

/// Every column of the experience batch: the workers' replies.
fn replies(d: &mut Digest, batch: &DataProto) {
    let mut names = batch.column_names();
    names.sort_unstable();
    for name in names {
        match batch.f32(name) {
            Ok((v, _)) => d.f32s(v),
            Err(_) => batch.tokens(name).unwrap().0.iter().for_each(|&t| d.word(t)),
        }
    }
}

struct PpoRun {
    actor: Digest,
    critic: Digest,
    replies: Digest,
    /// The statistics without their virtual seconds.
    losses: Digest,
    stats: Digest,
    clock: f64,
}

fn ppo_run(spec: ParallelSpec, tp_inference: bool) -> PpoRun {
    let mut cfg = RlhfConfig::tiny();
    cfg.hyper.tp_inference = tp_inference;
    cfg.recompute_logp = tp_inference;
    let (ctrl, sys) = system(spec, &cfg, false);
    let (mut replied, mut losses, mut stats) = (Digest::new(), Digest::new(), Digest::new());
    for iter in 0..3 {
        let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let (s, batch) = ppo_iteration_captured(&sys, &ctrl, &prompts).unwrap();
        replies(&mut replied, &batch);
        losses.losses(&s);
        stats.stats(&s);
    }
    PpoRun {
        actor: model_state(&sys.actor),
        critic: model_state(sys.critic.as_ref().unwrap()),
        replies: replied,
        losses,
        stats,
        clock: ctrl.clock(),
    }
}

#[test]
fn split_rows_leave_ppo_bit_identical_across_layouts_and_to_the_parent() {
    let split = ppo_run(ParallelSpec::new(1, 2, 2), false);
    let flat = ppo_run(ParallelSpec::new(1, 1, 4), false);
    assert_eq!(split.actor, flat.actor, "actor weights / Adam moments, 1-2-2 vs 1-1-4");
    assert_eq!(split.critic, flat.critic, "critic weights / Adam moments, 1-2-2 vs 1-1-4");
    assert_eq!(split.replies, flat.replies, "experience batches, 1-2-2 vs 1-1-4");

    // Recorded at the parent commit (every rank ran every row).
    assert_eq!(split.actor, Digest(PARENT_PPO.0), "actor vs parent");
    assert_eq!(split.critic, Digest(PARENT_PPO.1), "critic vs parent");
    assert_eq!(split.replies, Digest(PARENT_PPO.2), "replies vs parent");
    assert_eq!(split.losses, Digest(PARENT_PPO.3), "iteration losses vs parent");
    assert_eq!(split.stats, Digest(READINESS_PPO.0), "iteration stats");
    assert_eq!(split.clock.to_bits(), READINESS_PPO.1, "controller clock");
}

#[test]
fn tp_inference_passes_keep_their_own_sharding_beside_split_rows() {
    // `compute_log_prob` and `compute_values` run as real tensor-parallel
    // shards here (one stage pass per chunk, its all-reduces before the
    // rows' charges); the update, reference and reward passes around them
    // split rows.
    let run = ppo_run(ParallelSpec::new(1, 2, 2), true);
    assert_eq!(run.actor, Digest(PARENT_PPO_TP.0), "actor vs parent");
    assert_eq!(run.critic, Digest(PARENT_PPO_TP.1), "critic vs parent");
    assert_eq!(run.replies, Digest(PARENT_PPO_TP.2), "replies vs parent");
    assert_eq!(run.losses, Digest(PARENT_PPO_TP.3), "iteration losses vs parent");
    assert_eq!(run.stats, Digest(READINESS_PPO_TP.0), "iteration stats");
    assert_eq!(run.clock.to_bits(), READINESS_PPO_TP.1, "controller clock");
}

#[test]
fn split_ptx_and_cost_rows_leave_safe_rlhf_bit_identical_to_the_parent() {
    // Safe-RLHF adds the paths PPO does not reach: `compute_loss`, the
    // ptx rows of `actor_grads`, `compute_cost`.
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = system(ParallelSpec::new(1, 2, 2), &cfg, true);
    let (mut losses, mut stats) = (Digest::new(), Digest::new());
    for iter in 0..3 {
        let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let pretrain =
            make_pretrain(16, cfg.prompt_len + cfg.response_len, cfg.lm.vocab as u32, iter);
        let s = safe_rlhf_iteration(&sys, &ctrl, &prompts, &pretrain).unwrap();
        losses.losses(&s);
        stats.stats(&s);
    }
    let got = (model_state(&sys.actor).0, model_state(sys.critic.as_ref().unwrap()).0, losses.0);
    assert_eq!(got, PARENT_SAFE_RLHF);
    assert_eq!((stats.0, ctrl.clock().to_bits()), READINESS_SAFE_RLHF);
}

#[test]
fn remax_without_its_baseline_pass_log_probs_is_bit_identical_to_the_parent() {
    // ReMax reads only the `scores` of its greedy baseline pass, so the
    // driver tells `generate_sequences` to leave that pass's `logp_old`
    // out: weights and losses may not move.
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let gen = GenGrouping::new(ParallelSpec::new(1, 2, 2), 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        false,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    let mut losses = Digest::new();
    for iter in 0..3 {
        let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        losses.losses(&remax_iteration(&sys, &ctrl, &prompts).unwrap());
    }
    assert_eq!((model_state(&sys.actor).0, losses.0), PARENT_REMAX);
}

/// (actor, critic, replies, losses), recorded at the parent commits.
const PARENT_PPO: (u64, u64, u64, u64) =
    (0xa622bb804b76453b, 0xe64875d0862b6c47, 0xa20f9a24a44615f7, 0x290f794dcf72df52);
/// (actor, critic, replies, losses), recorded at the parent commits.
const PARENT_PPO_TP: (u64, u64, u64, u64) =
    (0x94dceec6d767bf67, 0x84190585dee6d03e, 0x0c97afa75b745a7a, 0x0ef3280e98c9d897);
/// (actor, critic, losses), recorded at the parent commits.
const PARENT_SAFE_RLHF: (u64, u64, u64) =
    (0xb8704cfa144fd03a, 0x8c1ce179b5c66bcd, 0x0aa9798aa2f11af2);
/// (actor, losses).
const PARENT_REMAX: (u64, u64) = (0x500c27f40ac39aba, 0x946f46637e1d44a6);

// (stats, controller clock bits): the two digests that contain virtual
// seconds, re-recorded when the preparation passes (and
// `compute_log_prob`) began to leave *with* generation, issued on its
// future: their 200 µs RPC overlaps generation instead of following its
// wait, so an iteration exposes one controller dispatch less — 3 × 200 µs
// over the three iterations of each run — and nothing a worker computes
// moves: the `actor` / `critic` / `replies` / `losses` digests above were
// recorded at the parents for this, and hold. ReMax's clock moves the same
// way (its digests hold no seconds). Before, with the clock of the three
// iterations before → after:
//   PPO        0x8ae1fab855d30ff6, 0x3f702d4ca44c229b (3.949 → 3.349 ms; itself
//              re-recorded from 0xa867e35a9e504e66, 0x3f72a271ea56c8e8, 4.549 ms,
//              when the barrier driver began to issue every update before the
//              first wait and `compute_log_prob` with the preparation passes)
//   PPO, TP    0xa73bffa3af3f4d85, 0x3f7270d1573c9a82 (4.502 → 3.902 ms; from
//              0xb12082a49a685905, 0x3f775b1cfe0d2eb6, 5.702 ms, at that same
//              change, and from 0x99ca1bfdbfddf2c0, 0x3f812ed7eee17fe3, 8.390 ms,
//              when a tensor-parallel pass began to cover its whole chunk)
//   Safe-RLHF  0x6c4f93da7ceb1003, 0x3f72a274ad2afbe9 (4.549 → 3.949 ms; from
//              0xa5904dc2d963709e, 0x3f751799f335a234, 5.149 ms)
const READINESS_PPO: (u64, u64) = (0x35deadd80fc8e6a0, 0x3f6b704ebc82f8a6);
const READINESS_PPO_TP: (u64, u64) = (0xc8c87b05348186ec, 0x3f6ff7582263e868);
const READINESS_SAFE_RLHF: (u64, u64) = (0x167dc04a2e64e150, 0x3f702d4f6720559d);
