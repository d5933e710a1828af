//! Auto device mapping (paper §6, Algorithms 1 & 2).
//!
//! Given an RLHF dataflow (which models exist, their sizes, the
//! workload) and a cluster, find the placement of models onto device
//! sets, the GPU allocation per set, and the per-model parallelism
//! strategy minimizing end-to-end RLHF iteration latency:
//!
//! * [`dataflow`] — the dataflow description: model roles
//!   (actor/critic/reference/reward/cost), per-role model configs, and
//!   the algorithm variant (PPO / ReMax / Safe-RLHF) which determines
//!   the role set and the stage structure.
//! * [`placement`] — placement-plan enumeration (set partitions — the
//!   Bell-number space of Algorithm 1 Line 3), the named plans the
//!   evaluation compares (colocate / standalone / split), and GPU
//!   allocation enumeration (`enum_alloc`, integer compositions with
//!   per-set minimums).
//! * [`strategy`] — `auto_parallel` (Algorithm 2): per-model search over
//!   `(p, t, d)` (and the generation `(p_g, t_g)` for the actor) against
//!   the analytic simulators, with memory-feasibility checks.
//! * [`search`] — `d_cost` (Algorithm 1 Lines 25–34) and the outer
//!   search with per-(model, allocation) strategy caching.

#![warn(missing_docs)]

pub mod dataflow;
pub mod placement;
pub mod search;
pub mod strategy;

pub use dataflow::{AlgoKind, DataflowSpec, Role};
pub use placement::{enum_alloc, set_partitions, PlacementPlan};
pub use search::{Mapper, Mapping, SearchStats, StageCosts};
pub use strategy::{role_cost_bounds, ModelStrategy, RoleCostBounds};
