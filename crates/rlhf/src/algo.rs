//! Single-controller RLHF algorithm drivers (paper §4.2, Figure 6).
//!
//! Each driver is a short sequence of worker-group calls — the "few
//! lines of code" the hybrid programming model promises. Preparation-
//! stage calls are issued as futures — on the *future* of the generation
//! call whose reply they read, so the reply goes rank to rank — and
//! models on disjoint pools compute concurrently (asynchronous dataflow
//! execution, §4.1); colocated models serialize automatically in
//! device-mailbox order.

use std::sync::atomic::{AtomicU64, Ordering};

use hf_core::{Controller, CoreError, DataProto, Protocol, Result, WorkerGroup, WorkerLayout};
use hf_nn::LmConfig;
use hf_resilience::collect_state;
use hf_rewards::{PoolConfig, VerifierKind, VerifierSpec};
use hf_simcluster::ResourcePool;

use crate::env::{make_pretrain, make_prompts};
use crate::stage::{run_stages, GrpoStages, PpoStages, RemaxStages, SafeRlhfStages};
use crate::verifier::RewardEvaluatorWorker;
use crate::workers::{
    ActorWorker, CriticWorker, ReferenceWorker, RewardKind, RewardWorker, WorkerHyper,
};

/// What backs the `compute_reward` method of the reward group.
#[derive(Debug, Clone)]
pub enum RewardSource {
    /// A reward *model* ([`RewardWorker`]): rule-based token scoring or
    /// a neural scalar head.
    Model,
    /// A programmatic verifier pool
    /// ([`RewardEvaluatorWorker`]): deterministic program
    /// rewards evaluated under sandbox budgets (RLVR).
    Verifier {
        /// The verifier task family and its vocabulary.
        spec: VerifierSpec,
        /// Sandbox pool sizing, budgets, and retry policy.
        pool: PoolConfig,
    },
}

/// Configuration of a functional RLHF system.
#[derive(Debug, Clone)]
pub struct RlhfConfig {
    /// LM architecture shared by all models.
    pub lm: LmConfig,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Response length in tokens.
    pub response_len: usize,
    /// PPO mini-batch updates per iteration.
    pub updates: usize,
    /// GAE discount.
    pub gamma: f32,
    /// GAE λ.
    pub lam: f32,
    /// KL-penalty coefficient against the reference policy.
    pub kl_coef: f32,
    /// Safe-RLHF Lagrange multiplier on the cost advantage.
    pub lambda_cost: f32,
    /// PPO-ptx pre-train loss coefficient (Safe-RLHF).
    pub(crate) ptx_coef: f32,
    /// Samples per prompt for GRPO.
    pub grpo_group: usize,
    /// Recompute response log-probs with a dedicated `compute_log_prob`
    /// forward pass after generation instead of trusting the generation
    /// engine's values (Table 4 marks this optional in PPO; real systems
    /// use it when training and generation precision differ). Here the
    /// engine's values are the forward's bits, so the recompute changes
    /// a number only under `hyper.tp_inference` on a model-parallel
    /// layout, where it reads the tensor-parallel pass's numerics
    /// (partials joined by all-reduce); otherwise it recomputes the same
    /// bits.
    pub recompute_logp: bool,
    /// Tokens the rule-based reward model favours.
    pub(crate) good_tokens: Vec<u32>,
    /// Tokens the rule-based cost model penalizes.
    pub(crate) bad_tokens: Vec<u32>,
    /// What serves `compute_reward`: a reward model or a verifier pool.
    pub reward_source: RewardSource,
    /// Worker hyper-parameters.
    pub hyper: WorkerHyper,
}

impl RlhfConfig {
    /// A laptop-scale default whose reward is genuinely learnable.
    pub fn tiny() -> Self {
        RlhfConfig {
            lm: LmConfig::tiny(),
            prompt_len: 6,
            response_len: 6,
            updates: 2,
            gamma: 1.0,
            lam: 0.95,
            kl_coef: 0.05,
            lambda_cost: 0.5,
            ptx_coef: 0.2,
            grpo_group: 4,
            recompute_logp: false,
            good_tokens: vec![3, 5, 7, 11],
            bad_tokens: vec![0, 1],
            reward_source: RewardSource::Model,
            hyper: WorkerHyper::default(),
        }
    }

    /// [`RlhfConfig::tiny`] re-tuned for GRPO over a *verifiable* reward
    /// (answer extraction: emit the prompt's final token). The small
    /// vocabulary, higher learning rate, and gentle entropy bonus make
    /// the verifier signal genuinely learnable in a few iterations —
    /// the same recipe the `reasoning_reward` example uses.
    pub fn tiny_verifier() -> Self {
        let mut cfg = Self::tiny();
        cfg.lm = LmConfig { vocab: 16, hidden: 32, ffn: 64, layers: 2 };
        cfg.grpo_group = 8;
        cfg.kl_coef = 0.01;
        cfg.hyper.lr = 8e-3;
        cfg.hyper.entropy_coef = 0.002;
        cfg.reward_source = RewardSource::Verifier {
            spec: VerifierSpec { kind: VerifierKind::AnswerExtraction, vocab: 16 },
            pool: PoolConfig::new(4, 0x5eed),
        };
        cfg
    }
}

impl RlhfConfig {
    /// Turns down a configuration no driver can run: every count below
    /// sizes a batch split, a token window or a weight matrix, and a
    /// zero there would otherwise surface as a panic on the controller
    /// (`updates`), a lost rank (`prompt_len`) or a NaN loss the run
    /// trains on (`response_len`).
    fn validate(&self) -> Result<()> {
        let LmConfig { vocab, hidden, ffn, layers } = self.lm;
        let counts = [
            ("updates", self.updates),
            ("prompt_len", self.prompt_len),
            ("response_len", self.response_len),
            ("grpo_group", self.grpo_group),
            ("lm.vocab", vocab),
            ("lm.hidden", hidden),
            ("lm.ffn", ffn),
            ("lm.layers", layers),
        ];
        match counts.iter().find(|(_, n)| *n == 0) {
            Some((name, _)) => Err(CoreError::Config(format!("RlhfConfig: {name} must be >= 1"))),
            None => Ok(()),
        }
    }
}

/// Where one model lives: its device pool and parallel layout.
#[derive(Debug, Clone)]
pub struct ModelPlacement {
    /// Devices allocated to the model.
    pub pool: ResourcePool,
    /// The model's parallel layout.
    pub layout: WorkerLayout,
}

/// Placement of every model in the dataflow.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The actor (generation layout included when using a HybridEngine).
    pub actor: ModelPlacement,
    /// The critic; `None` for ReMax / GRPO.
    pub critic: Option<ModelPlacement>,
    /// The frozen reference policy.
    pub reference: ModelPlacement,
    /// The reward model.
    pub reward: ModelPlacement,
    /// The Safe-RLHF cost model.
    pub cost: Option<ModelPlacement>,
}

impl Placement {
    /// Colocates every model on one pool with one layout (the
    /// DeepSpeed-Chat-style placement).
    pub fn colocated(pool: ResourcePool, layout: WorkerLayout, critic: bool, cost: bool) -> Self {
        let mp = ModelPlacement { pool, layout };
        Placement {
            actor: mp.clone(),
            critic: critic.then(|| mp.clone()),
            reference: mp.clone(),
            reward: mp.clone(),
            cost: cost.then(|| mp.clone()),
        }
    }
}

/// A spawned RLHF system: worker-group handles plus configuration.
pub struct RlhfSystem {
    /// Actor worker group.
    pub actor: WorkerGroup,
    /// Critic worker group (PPO / Safe-RLHF).
    pub critic: Option<WorkerGroup>,
    /// Reference policy worker group.
    pub reference: WorkerGroup,
    /// Reward model worker group.
    pub reward: WorkerGroup,
    /// Cost model worker group (Safe-RLHF).
    pub(crate) cost: Option<WorkerGroup>,
    /// Algorithm configuration.
    pub(crate) cfg: RlhfConfig,
    /// Logical generation passes either driver has stamped so far
    /// (`workers::GEN_PASS_META`).
    gen_passes: AtomicU64,
}

impl RlhfSystem {
    /// A fresh id for one logical generation pass (a pipelined step is
    /// one pass, however many chunks); a retry of the pass reuses it.
    pub(crate) fn next_gen_pass(&self) -> u64 {
        self.gen_passes.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Spawns every model of `placement` on `ctrl`.
    pub fn build(ctrl: &Controller, placement: &Placement, cfg: RlhfConfig) -> Result<RlhfSystem> {
        Self::build_inner(ctrl, placement, cfg, false)
    }

    /// Like [`RlhfSystem::build`] but with a ZeRO-3-sharded actor
    /// ([`ActorWorker::zero`]); the actor layout must be pure data-parallel.
    pub fn build_zero(
        ctrl: &Controller,
        placement: &Placement,
        cfg: RlhfConfig,
    ) -> Result<RlhfSystem> {
        Self::build_inner(ctrl, placement, cfg, true)
    }

    fn build_inner(
        ctrl: &Controller,
        placement: &Placement,
        cfg: RlhfConfig,
        zero_actor: bool,
    ) -> Result<RlhfSystem> {
        cfg.validate()?;
        let hyper = cfg.hyper.clone();
        let lm = cfg.lm;
        let actor_worker = if zero_actor { ActorWorker::zero } else { ActorWorker::new };
        let actor =
            ctrl.spawn_group("actor", &placement.actor.pool, placement.actor.layout, |_r| {
                Box::new(actor_worker(lm, hyper.clone()))
            })?;
        let critic = match &placement.critic {
            Some(p) => Some(ctrl.spawn_group("critic", &p.pool, p.layout, |_r| {
                Box::new(CriticWorker::new(lm, hyper.clone()))
            })?),
            None => None,
        };
        let reference = ctrl.spawn_group(
            "reference",
            &placement.reference.pool,
            placement.reference.layout,
            |_r| Box::new(ReferenceWorker::new(lm, hyper.clone())),
        )?;
        let reward = match &cfg.reward_source {
            RewardSource::Model => {
                let good = cfg.good_tokens.clone();
                ctrl.spawn_group("reward", &placement.reward.pool, placement.reward.layout, |_r| {
                    Box::new(RewardWorker::new(
                        lm,
                        RewardKind::RuleBased { good_tokens: good.clone() },
                    ))
                })?
            }
            RewardSource::Verifier { spec, pool } => {
                let (spec, pool) = (*spec, *pool);
                ctrl.spawn_group("reward", &placement.reward.pool, placement.reward.layout, |_r| {
                    Box::new(RewardEvaluatorWorker::new(spec, pool))
                })?
            }
        };
        let bad = cfg.bad_tokens.clone();
        let cost = match &placement.cost {
            Some(p) => Some(ctrl.spawn_group("cost", &p.pool, p.layout, |_r| {
                Box::new(RewardWorker::new(lm, RewardKind::RuleBased { good_tokens: bad.clone() }))
            })?),
            None => None,
        };
        let sys = RlhfSystem {
            actor,
            critic,
            reference,
            reward,
            cost,
            cfg,
            gen_passes: AtomicU64::new(0),
        };
        sys.register_methods();
        Ok(sys)
    }

    /// Registers every Table 4 method with its transfer protocol — the
    /// paper's `@register(transfer_mode=...)` pattern (Figure 5a). The
    /// drivers then `invoke` methods without naming protocols.
    fn register_methods(&self) {
        let gen_proto = self.gen_protocol();
        self.actor
            .register("generate_sequences", gen_proto)
            .register("compute_log_prob", Protocol::ThreeD)
            .register("compute_loss", Protocol::ThreeD)
            .register("update_actor", Protocol::ThreeD)
            .register("save_shard", Protocol::AllToAll)
            .register("load_checkpoint", Protocol::OneToAll);
        if let Some(c) = &self.critic {
            c.register("compute_values", Protocol::ThreeD)
                .register("update_critic", Protocol::ThreeD)
                .register("save_shard", Protocol::AllToAll)
                .register("load_checkpoint", Protocol::OneToAll);
        }
        self.reference.register("compute_ref_log_prob", Protocol::ThreeD);
        self.reward.register("compute_reward", Protocol::ThreeD);
        if let Some(c) = &self.cost {
            c.register("compute_cost", Protocol::ThreeD);
        }
    }

    /// The protocol generation uses: micro-DP dispatch when the actor has
    /// a HybridEngine generation grouping, plain 3D otherwise.
    pub(crate) fn gen_protocol(&self) -> Protocol {
        if self.actor.layout().gen.is_some() {
            Protocol::ThreeDAllMicroDp
        } else {
            Protocol::ThreeD
        }
    }
}

/// A consistent checkpoint of the trainable models' states (paper §9:
/// "saving of model states within each ParallelWorker Group ... to
/// ensure system-wide consistency"). Each field is a group's state as its
/// `load_checkpoint` input, under an FNV checksum: restoring a corrupted
/// checkpoint fails loudly.
#[derive(Debug, Clone)]
pub struct SystemCheckpoint {
    /// Actor state.
    pub actor: DataProto,
    /// Critic state (when a critic exists).
    pub critic: Option<DataProto>,
}

/// Saves a consistent checkpoint of actor (and critic) states in memory:
/// one `save_shard` call a group, assembled by [`collect_state`].
pub fn save_checkpoint(sys: &RlhfSystem) -> Result<SystemCheckpoint> {
    let state = |g| collect_state(g).map(|st| st.to_load_input());
    Ok(SystemCheckpoint {
        actor: state(&sys.actor)?,
        critic: sys.critic.as_ref().map(state).transpose()?,
    })
}

/// Restores a checkpoint onto every rank (`ONE_TO_ALL` broadcast), actor
/// then critic, verifying checksums on each; one whose groups are not the
/// system's is refused before anything is sent. Returns the bytes sent.
pub fn restore_checkpoint(sys: &RlhfSystem, ckpt: &SystemCheckpoint) -> Result<u64> {
    if sys.critic.is_some() != ckpt.critic.is_some() {
        let (what, whose) = if ckpt.critic.is_some() { ("has", "lacks") } else { ("lacks", "has") };
        return Err(CoreError::Data(format!("the checkpoint {what} a critic the system {whose}")));
    }
    let critic = sys.critic.iter().zip(&ckpt.critic);
    let mut bytes = 0;
    for (group, state) in [(&sys.actor, &ckpt.actor)].into_iter().chain(critic) {
        group.invoke_sync("load_checkpoint", state)?;
        bytes += (group.layout().world() * state.bytes()) as u64;
    }
    Ok(bytes)
}

/// Aggregate statistics of one RLHF iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStats {
    /// Mean reward-model score over the batch.
    pub mean_score: f32,
    /// Mean cost-model score (Safe-RLHF only).
    pub mean_cost: f32,
    /// Mean PPO surrogate loss.
    pub actor_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Mean critic loss (if a critic exists).
    pub critic_loss: f32,
    /// Mean pre-train loss (Safe-RLHF).
    pub ptx_loss: f32,
    /// Controller virtual time consumed by the iteration (seconds).
    pub virtual_seconds: f64,
    /// How many iterations behind the policy that generated this batch
    /// was when training consumed it: 0 for the synchronous drivers and
    /// pipelined staleness-0 mode, ≥1 for one-step-off-policy execution.
    pub staleness: u32,
    /// Measured fraction of the iteration's wall time during which at
    /// least two of generation / preparation / training ran concurrently
    /// (0 in the synchronous drivers, which are barrier sequences by
    /// construction).
    pub overlap_fraction: f64,
}

/// One PPO iteration (Figure 6, left column): generation → preparation
/// (critic, reference, reward in parallel) → advantage → `updates`
/// mini-batch updates of critic and actor.
pub fn ppo_iteration(
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
) -> Result<IterStats> {
    ppo_iteration_captured(sys, ctrl, prompts).map(|(stats, _)| stats)
}

/// [`ppo_iteration`] that also returns the experience batch (responses,
/// `logp_old`, values, scores, advantages) — the conformance oracle in
/// `hf-audit` fingerprints it to compare layouts byte for byte.
pub fn ppo_iteration_captured(
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
) -> Result<(IterStats, DataProto)> {
    run_stages(&PpoStages, sys, ctrl, prompts, None)
}

/// One Safe-RLHF iteration (Figure 6, with the cost model and the
/// auxiliary pre-train loss). `pretrain` must have the same row count as
/// `prompts`.
pub fn safe_rlhf_iteration(
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
    pretrain: &DataProto,
) -> Result<IterStats> {
    run_stages(&SafeRlhfStages, sys, ctrl, prompts, Some(pretrain)).map(|(stats, _)| stats)
}

/// One ReMax iteration (Figure 6, right annotations): an extra greedy
/// generation pass provides the variance-reduction baseline; the critic
/// is eliminated.
pub fn remax_iteration(
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
) -> Result<IterStats> {
    run_stages(&RemaxStages, sys, ctrl, prompts, None).map(|(stats, _)| stats)
}

/// One GRPO iteration (§9, \[70\]): `grpo_group` samples per prompt,
/// group-standardized advantages, no critic.
pub fn grpo_iteration(
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
) -> Result<IterStats> {
    run_stages(&GrpoStages, sys, ctrl, prompts, None).map(|(stats, _)| stats)
}

/// Which algorithm the outer loop drives each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// PPO (needs a critic).
    Ppo,
    /// ReMax (no critic, greedy baseline pass).
    ReMax,
    /// Safe-RLHF (critic + cost model + pre-train loss).
    SafeRlhf,
    /// GRPO (no critic, group sampling).
    Grpo,
}

/// The prompt batch of iteration `i` of a run: `batch` prompts drawn
/// with seed `data_seed + i`, so a replayed iteration sees identical
/// data.
pub(crate) fn iteration_prompts(
    cfg: &RlhfConfig,
    batch: usize,
    data_seed: u64,
    i: u64,
) -> DataProto {
    let seed = data_seed.wrapping_add(i);
    make_prompts(batch, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, seed)
}

impl Algorithm {
    /// Runs iteration `i` of a run of this algorithm on its seeded
    /// prompt batch (see `iteration_prompts`).
    pub fn iteration(
        self,
        sys: &RlhfSystem,
        ctrl: &Controller,
        batch: usize,
        data_seed: u64,
        i: u64,
    ) -> Result<IterStats> {
        let rc = &sys.cfg;
        let prompts = iteration_prompts(rc, batch, data_seed, i);
        match self {
            Algorithm::Ppo => ppo_iteration(sys, ctrl, &prompts),
            Algorithm::ReMax => remax_iteration(sys, ctrl, &prompts),
            Algorithm::Grpo => grpo_iteration(sys, ctrl, &prompts),
            Algorithm::SafeRlhf => {
                let pretrain = make_pretrain(
                    batch,
                    rc.prompt_len + rc.response_len,
                    rc.lm.vocab as u32,
                    data_seed.wrapping_add(i),
                );
                safe_rlhf_iteration(sys, ctrl, &prompts, &pretrain)
            }
        }
    }
}
