//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§8), plus the experiments this reproduction adds beyond
//! it. Each experiment is a library function `fn(fast: bool) ->`
//! [`table::Report`] returning typed tables, registered in
//! [`registry::REGISTRY`] and run by the one `hf-bench` binary, which
//! owns argument parsing, rendering, the baseline diff and cleanup.
//!
//! Absolute numbers come from the analytic substrate, not the authors'
//! 128×A100 testbed; what must (and does) match the paper is the
//! *shape*: who wins, by roughly what factor, and where crossovers fall.
//! `EXPERIMENTS.md` records paper-vs-measured for every row. Host time
//! end to end is `benchmark/`'s job (`hf-benchmark`), not this crate's.

#![warn(missing_docs)]

pub mod experiments;
pub mod faults;
pub mod figures;
pub mod host;
pub mod perf;
pub mod pipeline;
pub mod registry;
pub mod reward_eval;
pub mod table;
