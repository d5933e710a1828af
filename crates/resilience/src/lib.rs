//! `hf-resilience`: fault injection, recovery bookkeeping, and sharded
//! checkpoint/restore for the hybrid runtime.
//!
//! The paper's artifact inherits fault tolerance from Ray's single
//! controller; this reproduction substitutes its own three-layer
//! resilience subsystem:
//!
//! * [`fault`] — deterministic fault injection: a seeded [`fault::FaultPlan`]
//!   (kill rank R at virtual time T or during method M's N-th call,
//!   drop or delay RPCs) compiled
//!   into a [`fault::FaultInjector`] that implements
//!   [`hf_core::FaultHook`], so every failure scenario is a reproducible
//!   test case.
//! * [`detect`] — recovery bookkeeping (MTTR, virtual time lost to
//!   rollback) exported through `resilience.*` telemetry. Which failures
//!   recovery handles is [`hf_core::CoreError`]'s to say.
//! * [`checkpoint`] — sharded, atomic checkpoint/restore and its codecs:
//!   each rank answers `save_shard` with its (p,t,d)- or ZeRO-aware shard
//!   of parameters, Adam moments and RNG round; shards are written
//!   tmp+rename with an FNV-1a content-hash manifest and a final
//!   `COMMIT` marker, and read back through the one
//!   [`hf_parallel::ReshardPlan`] that checks they tile the vector. A
//!   restore (`hf_rlhf::restore_system_checkpoint`) verifies every group
//!   before it broadcasts any into a freshly spawned worker group through
//!   `load_checkpoint`.
//!
//! The recoverable training outer loop that ties these together lives
//! in `hf-rlhf` (`remap_recoverable`), which checkpoints every N
//! iterations, detects a failure, respawns the worker groups on the
//! live controller (fresh communicators replace poisoned ones) in the
//! placement its planner returns, restores the latest committed
//! checkpoint, and replays — bit-identically, because prompt streams
//! are seeded by iteration and worker state restores exactly.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod detect;
pub mod fault;

pub use checkpoint::{
    collect_state, decode_shards, encode_shard, shard_range, AssembledState, CheckpointStore,
    Shard, ShardHeader, SAVE_SHARD_METHOD,
};
pub use detect::RecoveryStats;
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTrigger};
