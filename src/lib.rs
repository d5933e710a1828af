//! HybridFlow (EuroSys '25) reproduction: a flexible and efficient RLHF
//! framework, rebuilt in Rust over a simulated GPU cluster substrate.
//!
//! This facade crate re-exports every subsystem:
//!
//! * [`simcluster`] — simulated cluster, virtual NCCL, collective cost models.
//! * [`modelspec`] — Llama model zoo and the three analytic simulators
//!   (training / inference / generation) used by auto-mapping.
//! * [`parallel`] — 3D parallel groups, micro-DP grouping, shard ownership.
//! * [`nn`] — tiny-but-real LM with reverse-mode autograd and Adam.
//! * [`genserve`] — paged-KV continuous-batching generation engine (the
//!   vLLM substitute): block manager, FCFS scheduler with
//!   preemption-by-recompute, prefix caching.
//! * [`core`] — the hybrid programming model: single controller, worker
//!   groups, transfer protocols, `DataProto`.
//! * [`hybridengine`] — zero-redundancy actor resharding (3D-HybridEngine).
//! * [`rlhf`] — model workers and the PPO / ReMax / Safe-RLHF / GRPO drivers.
//! * [`mapping`] — the auto device-mapping search (Algorithms 1 & 2).
//! * [`baselines`] — DeepSpeed-Chat / OpenRLHF / NeMo-Aligner execution models.
//! * [`telemetry`] — virtual-clock span tracing, metrics, Perfetto export.
//! * [`resilience`] — deterministic fault injection, failure detection,
//!   sharded checkpoint/restore (the Ray fault-tolerance substitute).
//! * [`rewards`] — verifiable-reward serving: deterministic program
//!   verifiers evaluated by a virtual-time sandboxed worker pool with
//!   budgets, straggler cancellation, and retry-on-timeout.
//! * [`insight`] — causal span graph, critical-path and bubble analysis,
//!   what-if overlap bounds, and the deterministic perf regression gate.
//!
//! `hf-audit` (cross-layout conformance sweeps, runtime invariant
//! auditors) is deliberately *not* re-exported: linking it arms the
//! `audit`-feature checks of the layers below, which consumers of this
//! facade should not pay for. Tests and `crates/bench` depend on it
//! directly.
//!
//! See `DESIGN.md` for the substitution table (paper dependency → substrate
//! built here) and the per-experiment index, and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub use hf_baselines as baselines;
pub use hf_core as core;
pub use hf_genserve as genserve;
pub use hf_hybridengine as hybridengine;
pub use hf_insight as insight;
pub use hf_mapping as mapping;
pub use hf_modelspec as modelspec;
pub use hf_nn as nn;
pub use hf_parallel as parallel;
pub use hf_resilience as resilience;
pub use hf_rewards as rewards;
pub use hf_rlhf as rlhf;
pub use hf_simcluster as simcluster;
pub use hf_telemetry as telemetry;
