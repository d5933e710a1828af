//! The 3D-HybridEngine (paper §5).
//!
//! Actor training and generation run on the *same* devices under
//! different 3D layouts (`p-t-d` for training, `p_g-t_g-d_g-d` for
//! generation). Between the stages the engine reshards model parameters.
//! In the RLHF actor every rank still holds the full replica: once per
//! generation pass, under either grouping, it cuts its training shard
//! out of it, gathers on its one gather communicator, and checks each
//! gathered shard in place against the replica, which generation
//! decodes; the engine goes with the call (ROADMAP, "The 3D-HybridEngine
//! holds the weights").
//!
//! * [`transition`] — the closed-form Table 2 accounting (communication
//!   volume, peak parameter memory, redundancy) and analytic transition
//!   *times* for the three engine designs: DeepSpeed-Chat-style
//!   (all-gather across all GPUs, layer by layer), HybridFlow-V
//!   (all-gather within each training model-parallel group), and
//!   HybridFlow (one all-gather per micro-DP group, zero redundancy).
//! * [`engine`] — a per-rank engine state machine
//!   ([`engine::HybridEngineRank`]) that performs the train→gen gather
//!   through a real [`hf_simcluster::Communicator`] all-gather, so the
//!   transition runs under the virtual NCCL with virtual-time costs.
//!   The all-gather shares the rank's training shard instead of copying
//!   it, and the engine keeps only what it gathered;
//!   [`engine::HybridEngineRank::to_generation`] places that into the
//!   rank's generation shard by one [`hf_parallel::ReshardPlan`]. This
//!   is the mechanism Figure 8 illustrates.
//! * [`reshard`] — the same plan over local buffers, without the
//!   communicator: [`ActorShards`] scatters a full model into training
//!   shards and rebuilds each rank's generation shard from its gather
//!   group's alone, which the tests hold byte-exact against the
//!   reference full model, with the received bytes against Table 2.

#![warn(missing_docs)]

pub mod engine;
pub mod reshard;
pub mod transition;

pub use engine::HybridEngineRank;
pub use reshard::ActorShards;
pub use transition::{transition_metrics, transition_time, EngineMode, TransitionMetrics};
