//! Verifiable-reward serving (paper §9: "non-neural-network reward
//! modules"; the RLVR workload dominating verl deployments today).
//!
//! Two halves:
//!
//! * [`task`] — deterministic *program* rewards over generated token
//!   streams: synthetic verifier families (arithmetic checking,
//!   bracket/grammar matching, exact-answer extraction) whose expected
//!   answer is recomputable from the prompt alone, so scoring is a pure
//!   function of `(prompt, response)` — bit-identical under any data
//!   layout, chunking, or replay.
//! * [`pool`] — the sandbox simulator: a bounded worker pool evaluating
//!   tasks under per-task wall-clock / CPU / memory budgets modeled in
//!   **virtual time**. Each attempt's cost and peak memory are seeded
//!   draws from the task identity, so timeouts, stragglers, and retries
//!   are deterministic and replayable; straggler cancellation, a
//!   retry-on-timeout policy, and partial-batch completion semantics
//!   bound the tail without ever blocking the batch.
//!
//! The crate is dependency-free and clock-free on purpose: it *returns*
//! virtual durations and a per-task schedule, and the caller (the
//! `RewardEvaluator` worker class in `hf-rlhf`) charges them to its rank
//! clock and emits telemetry — keeping scoring bits and timing model
//! independently testable.

#![warn(missing_docs)]

pub mod pool;
pub mod task;

pub use pool::{CostProfile, EvalItem, EvalReport, PoolConfig, SandboxPool, TaskOutcome};
pub use task::{make_verifier_prompts, VerifierKind, VerifierSpec};

/// The splitmix64 mixer — the repo's standard seed-derivation primitive
/// (hf-rlhf's sampler seeding, hf-resilience's seeded fault plans and
/// hf-audit's sampled sweep configs call it too), public so callers
/// derive per-task seeds the same way the pool derives per-attempt
/// draws.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a mixed seed (53-bit mantissa fill,
/// bit-exact across platforms).
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}
