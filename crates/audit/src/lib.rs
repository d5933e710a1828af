//! Conformance auditing for the hybrid RLHF runtime.
//!
//! The paper's central refactoring claim is that the *same* RLHF
//! computation runs under any device mapping — training layout `p-t-d`,
//! generation regrouping `p_g-t_g`, Vanilla or Strided placement,
//! replicated or ZeRO-sharded optimizers — with identical results.
//! This crate turns that claim into machine-checked obligations:
//!
//! * [`oracle`] — the **differential layout oracle**: runs PPO
//!   iterations on the canonical single-device `1-1-1` reference and
//!   sweeps sampled `(p,t,d) × (p_g,t_g) × {Vanilla,Strided} ×
//!   {replicated,ZeRO}` configurations, asserting *byte-exact* parity
//!   of final weights, Adam moments, behaviour log-probs, and generated
//!   token streams — and shrinking any divergence to a minimal failing
//!   configuration.
//! * [`config`] — the sampled configuration space and its validity
//!   rules (the parity domain: power-of-two equal chunking, so
//!   tree-structured reductions associate identically across layouts).
//! * [`remap`] — the **mid-run re-map dimension**: a run that loses a
//!   rank, re-places itself onto the survivors, and reshards live must
//!   commit byte-identical weights, Adam moments, and RNG rounds to a
//!   fresh run launched in the re-mapped layout from the same committed
//!   checkpoint.
//! * [`replay`] — the **deterministic-replay ordering auditor**:
//!   re-executes an iteration under seeded *wall-clock* jitter injected
//!   through the runtime's fault-hook seam and diffs the canonical
//!   telemetry span tree, flagging any order-dependent result. Virtual
//!   time must be a pure function of the dataflow, never of the host
//!   scheduler.
//!
//! Linking this crate also compiles the **runtime invariant auditors**
//! of the layers below (their `audit` features; feature unification
//! does the rest):
//!
//! * BlockManager conservation in `hf-genserve` (free + reclaimable +
//!   owned = pool, stale-entry and prefix-cache coherence), checked
//!   after every engine step;
//! * communicator lifecycle in `hf-simcluster`: no rank re-enters a
//!   collective it has not left, and none runs a collective on a
//!   communicator that already saw a `CollectiveAbort` (NCCL's
//!   fresh-communicator-after-abort rule), each collective under a
//!   `catch_unwind`;
//! * DataProto copy-on-write discipline in `hf-core`: the runtime
//!   fingerprints every dispatched batch before and after the worker
//!   runs, and an in-place mutation of a shared input, like a malformed
//!   reply, is an `Invariant` error;
//! * group-family partitions in `hf-core`: the TP/PP/DP/micro-DP rank
//!   grids each tile the world exactly once, checked at spawn.
//!
//! Each must hold in every correct execution, not just the tests'. To
//! add one: put the check behind `#[cfg(feature = "audit")]` next to the
//! state it audits, and prove it fires in `tests/invariant_auditors.rs`.
//!
//! What the oracle found, each now a pinned regression: the ZeRO actor
//! saved its inner worker's never-stepped, all-zero Adam moments, so a
//! restore reset the optimizer (every test now reads state assembled
//! from `save_shard`, the one save path); FIFO block eviction was O(n²)
//! under churn (now a lazily deleted `VecDeque`, guarded by the ns/alloc
//! ratio in `audit_sweep`); genserve's watermark admission double-counted
//! in-flight blocks at the boundary; micro-DP membership was a
//! world-sized filter scan (now arithmetic, property-tested against the
//! filter); and group-lookup `expect` panics in the runtime became typed
//! `CoreError::Invariant` errors.

#![warn(missing_docs)]

pub mod config;
pub mod oracle;
pub mod remap;
pub mod replay;

pub use config::{config_space, sample_configs, SweepConfig};
pub use oracle::{run_config, shrink, sweep, Divergence, Fingerprint, SweepReport};
pub use remap::{remap_divergence, RemapAuditConfig};
pub use replay::{canonical_spans, replay_check, JitterHook};
