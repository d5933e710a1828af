//! Simulated GPU cluster substrate for the HybridFlow reproduction.
//!
//! The paper evaluates HybridFlow on 16 machines with 8 NVIDIA A100-80GB
//! GPUs each, connected by 600 GB/s NVLink inside a machine and 200 Gbps
//! Ethernet between machines. This crate replaces that testbed with:
//!
//! * [`topology`] — device/machine/cluster descriptions and the
//!   [`topology::ResourcePool`] abstraction the hybrid programming model
//!   maps models onto (paper §4.1).
//! * [`cost`] — analytical cost models for collective communication
//!   (ring all-gather / all-reduce / reduce-scatter, broadcast,
//!   point-to-point), following Chan et al. as the paper does for its
//!   transition-overhead accounting (Table 2).
//! * [`comm`] — a "virtual NCCL": real rendezvous collectives between
//!   worker threads with per-rank *virtual clocks*, so functional
//!   execution produces the same timing the analytic simulators predict.
//! * [`clock`] — the virtual time primitive.

#![warn(missing_docs)]

pub mod clock;
pub mod comm;
pub mod cost;
pub mod topology;

pub use clock::VirtualClock;
pub use comm::{
    panic_message, tree_sum_parts, CollectiveAbort, CommGroup, Communicator, Reduced, SumPart,
    TreeSum,
};
pub use cost::{CollectiveKind, CommCostModel};
pub use topology::{ClusterSpec, DeviceId, GpuSpec, MachineSpec, ResourcePool};
