//! The hybrid programming model (paper §4).
//!
//! HybridFlow's key design combines a *single controller* for the
//! inter-node RLHF dataflow with *multi-controller* SPMD execution
//! inside each model:
//!
//! * [`data`] — [`data::DataProto`], the TensorDict-like batch currency
//!   that transfer protocols split and gather.
//! * [`protocol`] — the transfer protocols of Table 3 (`ONE_TO_ALL`,
//!   `3D_PROTO`, `3D_ALL_MICRO_DP`, `3D_PP_ONLY`, `DP_PROTO`,
//!   `ALL_TO_ALL`, plus `ONE_TO_ONE` and `DP_ALL_GATHER`), each a pair
//!   of `distribute` / `collect` functions over a worker-group layout.
//! * [`worker`] — the [`worker::Worker`] trait implemented by model
//!   classes (ActorWorker etc. live in `hf-rlhf`), the per-rank
//!   context carrying parallel-group communicators and the virtual
//!   clock, and the [`worker::Lane`] (GPU or host CPUs) whose clock a
//!   worker's calls are charged on.
//! * [`runtime`] — the runtime: one OS thread per simulated GPU device
//!   (the *multi-controller*: colocated models time-share the device in
//!   mailbox order, §2.3), a [`runtime::Controller`] handle (the *single
//!   controller*) that spawns worker groups onto
//!   [`hf_simcluster::ResourcePool`]s and dispatches methods through
//!   transfer protocols, and [`runtime::DpFuture`]s for asynchronous
//!   dataflow execution (§4.1) — a future may itself be the argument of
//!   a call ([`runtime::WorkerGroup::call_on`]), in which case the reply
//!   goes rank to rank and never through the controller.
//! * [`error`] — error types; worker panics surface as `Err`, they never
//!   take down the runtime.
//! * [`fault`] — fault-injection hook points: device threads consult an
//!   optional [`fault::FaultHook`] before every RPC delivery and P2P
//!   pull, so `hf-resilience` can inject deterministic kill / drop /
//!   delay / slowdown scenarios without the runtime knowing about fault
//!   plans.

#![warn(missing_docs)]

pub mod data;
pub mod error;
pub mod fault;
pub mod protocol;
pub mod runtime;
pub mod worker;

pub use data::{physical_copy_bytes, Column, DataProto, Meta};
pub use error::{CoreError, Result};
pub use fault::{ExecFault, ExecSite, FaultHook};
pub use protocol::{Protocol, WorkerLayout};
pub use runtime::{CallPolicy, Controller, DpFuture, LostRank, TimelineEntry, WorkerGroup};
pub use worker::{CommSet, Lane, RankCtx, Worker};
