//! RLHF model classes and algorithm drivers (paper §4.2, Table 4).
//!
//! * [`advantage`] — the numerical estimators that run on the single
//!   controller with no model forward passes: KL-shaped token rewards,
//!   GAE, ReMax baseline-subtraction, GRPO group-relative advantages.
//! * [`workers`] — the model classes: [`workers::ActorWorker`]
//!   (`generate_sequences`, `compute_log_prob`, `compute_loss`,
//!   `update_actor`), [`workers::CriticWorker`] (`compute_values`,
//!   `update_critic`), [`workers::ReferenceWorker`]
//!   (`compute_ref_log_prob`), and [`workers::RewardWorker`]
//!   (`compute_reward` / `compute_cost`; rule-based or neural scoring —
//!   the cost model of Safe-RLHF reuses this class exactly as Figure 6
//!   does). Each runs as a real SPMD program on the `hf-core` runtime:
//!   DP chunks arrive through transfer protocols, gradients all-reduce
//!   over the virtual NCCL, Adam updates keep replicas in lock-step.
//! * [`algo`] — the single-controller algorithm scripts: PPO, ReMax,
//!   Safe-RLHF, and GRPO, each a few lines of worker-group calls
//!   mirroring Figure 6.
//! * [`pipeline`] — [`pipeline::PipelinedPpo`]: the one-step-off-policy
//!   pipelined driver. Generation chunks stream into preparation,
//!   training runs one iteration behind with bounded staleness, and the
//!   HybridEngine transition overlaps the previous train step's tail —
//!   all on a static dispatch/wait schedule, so `staleness = 0` is
//!   bit-identical to the synchronous driver and pinned `staleness = 1`
//!   is bit-identical across executions.
//! * [`verifier`] — [`verifier::RewardEvaluatorWorker`]: programmatic
//!   verifiable rewards (RLVR) answering `compute_reward` from the
//!   `hf-rewards` sandbox pool — deterministic virtual-time budgets,
//!   straggler cancellation, retry-on-timeout — so GRPO trains against
//!   program verifiers with no reward-model forward pass.
//! * [`env`](mod@env) — synthetic prompt / pretrain-batch generators and the
//!   rule-based reward (paper §9: reward models can be replaced by
//!   non-neural reward modules).
//! * [`remap`] — [`remap::remap_recoverable`]: the one outer loop —
//!   prompt stream, stats history, periodic `hf-resilience` sharded
//!   checkpoints, and on a lost rank (or a planned load shift) re-place
//!   → restore → continue on the live controller, bit-identically.
//!   [`remap::FixedPlacement`] recovers in the same layout,
//!   [`remap::MapperPlanner`] re-runs the mapping search over the
//!   survivors.
//! * [`zero`] — a functional ZeRO-3 actor (`ZeROWorker`, §4.1):
//!   parameters sharded across the DP group, gathered on demand,
//!   gradients reduce-scattered — numerically identical to the
//!   replicated path.

#![warn(missing_docs)]

pub mod advantage;
pub mod algo;
pub mod env;
pub mod pipeline;
pub mod remap;
mod stage;
pub mod verifier;
pub mod workers;
pub mod zero;

pub use advantage::{gae, grpo_advantages, remax_advantage, shape_token_rewards, whiten};
pub use algo::{
    grpo_iteration, ppo_iteration, ppo_iteration_captured, remax_iteration, restore_checkpoint,
    safe_rlhf_iteration, save_checkpoint, Algorithm, IterStats, ModelPlacement, Placement,
    RewardSource, RlhfConfig, RlhfSystem, SystemCheckpoint,
};
pub use pipeline::{PipelineConfig, PipelinedPpo};
pub use remap::{
    bridge_spec, remap_recoverable, restore_system_checkpoint, save_system_checkpoint,
    FixedPlacement, MapperPlanner, PlannedPlacement, PlannedRemap, RemapConfig, RemapDriver,
    RemapEvent, RemapPlanner, RemapReport,
};
pub use verifier::RewardEvaluatorWorker;
pub use workers::{
    ActorWorker, CriticWorker, ReferenceWorker, RewardKind, RewardWorker, WorkerHyper,
    GEN_PASS_META, GEN_ROUND_META, NO_LOGP_META, PIPELINE_META,
};
pub use zero::{ZeroActorWorker, ZeroParamStore};
