//! 3D parallelism substrate: rank grids, parallel groups, and parameter
//! shard ownership (paper §2.1, §5.1, §5.3).
//!
//! * [`spec`] — the `p-t-d` training layout ([`spec::ParallelSpec`]) and
//!   rank ↔ coordinate maps following Megatron-LM's vanilla grouping:
//!   consecutive ranks form tensor shards, then pipeline stages, and DP
//!   groups are strided by `p·t`.
//! * [`groups`] — the generation-stage layout `p_g-t_g-d_g-d`
//!   ([`groups::GenGrouping`]) with both parallel grouping methods from
//!   §5.3: `Vanilla` (HybridFlow-V) and the paper's zero-redundancy
//!   `Strided` method, plus micro-DP / generation-TP / generation-PP
//!   group enumeration.
//! * [`shard`] — which slice of the model each rank owns under a layout:
//!   2-D (layer-range × column-fraction) rectangles, and the one
//!   [`ReshardPlan`] built from their ranges' intersections: the copies
//!   `hf-hybridengine`'s transition places, and the bytes Table 2
//!   counts.
//! * [`zero`] — ZeRO / FSDP flat sharding descriptors for the baseline
//!   engines.

#![warn(missing_docs)]

pub mod groups;
pub mod shard;
pub mod spec;
pub mod zero;

pub use groups::{GenCoord, GenGrouping, GroupingMethod};
pub use shard::{ModelShard, ReshardPlan, ShardLayout};
pub use spec::{ParallelSpec, TrainCoord};
pub use zero::{ZeroSpec, ZeroStage};
