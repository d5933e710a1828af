//! # hf-serve — multi-tenant SLO-aware serving over hf-genserve
//!
//! A traffic layer in front of the paged generation engine, modeling
//! the deployment HybridFlow targets: the same fleet that trains the
//! policy also serves it, and serving must keep its latency SLOs while
//! training periodically takes the devices.
//!
//! Pieces:
//!
//! - [`tenant`] — [`TenantSpec`]: priority class, seeded Poisson or
//!   trace-driven arrivals, token budget, TTFT SLO; plus the three
//!   standard [`tenant::mixes`] the `serve_slo` bench sweeps.
//! - [`arrival`] — [`arrival::build_arrivals`] unrolls every tenant
//!   into one merged virtual-time schedule; a pure function of
//!   `(tenants, horizon, load, seed)`, so replays are bit-identical.
//! - [`frontend`] — the event-driven serving loop: SLO-aware admission
//!   (per-tenant headroom on top of the engine watermark, skip—not
//!   block—on failure), priority shedding under queue pressure and
//!   token budgets, shared-prefix-cache attribution via the engine's
//!   [`hf_genserve::TenantLedger`], and per-tenant TTFT / throughput
//!   digests exported through `hf-telemetry` as
//!   `genserve.tenant<k>.*`.
//! - [`driver`] — the co-located scenario: a pipelined PPO job's
//!   timeline and HybridEngine transition spans become a
//!   [`CapacityProfile`], and the same arrival schedule is replayed
//!   co-located vs serve-only to pin top-tier SLO protection.
//! - [`elastic`] — [`training_remaps`]: the reverse signal. A rising
//!   serving share shrinks training's device budget; each shrink
//!   becomes a boundary-aligned `PlannedRemap` that
//!   `hf_rlhf::remap_recoverable` — training's one outer loop, here with
//!   a `MapperPlanner` — consumes to re-place and reshard the job live.
//!
//! Everything runs in virtual time with no wall-clock reads: a whole
//! co-located run is a pure function of `(config, seed)`.

pub mod arrival;
pub mod driver;
pub mod elastic;
pub mod frontend;
pub mod tenant;

pub use arrival::{build_arrivals, Arrival};
pub use driver::{
    run_colocated, run_training, standard_server, train_capacity_profile, ColocateConfig,
    ColocatedRun, TrainSummary,
};
pub use elastic::training_remaps;
pub use frontend::{run, CapacityProfile, ServeConfig, ServeReport, TenantReport};
pub use tenant::{mixes, ArrivalProcess, TenantSpec};
