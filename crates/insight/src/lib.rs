//! Causal analysis over recorded traces: the span DAG, critical-path
//! and bubble extraction, what-if overlap bounds, and the deterministic
//! JSON machinery behind the perf regression gate.
//!
//! The pipeline: run a workload with telemetry enabled, feed the
//! recorded spans to [`SpanGraph::build`], and hand the graph to
//! [`analyze_iterations`] — out come per-iteration critical paths
//! (gap-free tilings of the iteration window, attributed per role and
//! per kind), device/role bubble fractions, and analytic bounds for
//! "what if resharding transitions were free" and "what if generation
//! fully overlapped training" (DESIGN.md §14). [`report`] renders the
//! results as byte-stable JSON and diffs them against a committed
//! baseline within tolerance, which is what `hf-bench perf_report --check`
//! enforces in CI.
//!
//! Everything is deterministic by construction: span-id *values* are
//! racy across runs, so ordering always follows the canonical
//! `(start, end, track, name, kind)` key and digests are summarized
//! only through order-independent statistics.

#![warn(missing_docs)]

pub mod analysis;
pub mod graph;
pub mod report;

pub use analysis::{analyze_iterations, CriticalSegment, IterationAnalysis, WhatIf};
pub use graph::{canonical_key, SpanGraph};
pub use report::{compare_flat, digest_stats, flatten_json, num_map, Json, Leaf};
