//! The benchmark's contract in one table: every metric's name, unit,
//! direction and regression bound, and the `BENCHMARK.json` rendered
//! from it. The output code looks metrics up here, so a metric cannot be
//! printed without being declared.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End to end: the share of the parent's median the metric may
    /// worsen by. Per layer: unused (0).
    pub bound: f64,
    /// Repeats bit for bit for one seed on any host (virtual clock or a
    /// count), so `selfcheck` demands equality instead of a tolerance.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound, exact }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0, exact: true }
}

use Better::{Higher, Lower};

/// The end-to-end metrics (tracing off), as a user of the system sees
/// them. `host_*` is calibrated `std::time::Instant` on one CPU,
/// `virtual_*` the controller's simulated clock.
///
/// The two exact metrics read the same on every run of one seed, so
/// their bounds are sized on what differs from seed to seed (the driver
/// takes spreads over ten seeds and wants them under a third of the
/// bound): 0.14 % for `virtual_tokens_per_s` (GRPO's drawn verifier
/// costs; nothing on the PPO workloads) and up to 3 % for
/// `final_reward_mean`. The host metrics' spreads are 1–5 %; their bounds
/// stay at the contract's ceiling, because the host they were measured on
/// has been seen three times as noisy.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("host_tokens_per_s", "tokens/s", Higher, 0.25, false),
    e2e("host_iter_ms_p50", "ms", Lower, 0.25, false),
    e2e("virtual_tokens_per_s", "tokens/s", Higher, 0.005, true),
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mib", "MiB", Lower, 0.25, false),
    e2e("final_reward_mean", "score", Higher, 0.1, true),
];

/// The per-layer metrics of the traced run; layer = crate name.
pub const PER_LAYER: [MetricSpec; 57] = [
    host("nn.fwd_bwd_us_per_token", "us", Lower),
    host("nn.forward_us_per_token", "us", Lower),
    host("nn.decode_us_per_token", "us", Lower),
    host("nn.adam_us_per_kparam", "us", Lower),
    host("nn.tp_forward_us_per_token", "us", Lower),
    host("genserve.step_us_p50", "us", Lower),
    exact("genserve.tokens_per_step", "count", Higher),
    exact("genserve.preemptions", "count", Lower),
    host("genserve.overhead_share", "ratio", Lower),
    host("core.noop_call_us_p50", "us", Lower),
    host("core.split_merge_us", "us", Lower),
    exact("core.copy_bytes_per_iter", "bytes", Lower),
    exact("core.dispatch_bytes_per_iter", "bytes", Lower),
    exact("core.collect_bytes_per_iter", "bytes", Lower),
    exact("core.calls_per_iter", "count", Lower),
    host("simcluster.allreduce_us_p50", "us", Lower),
    host("simcluster.barrier_us_p50", "us", Lower),
    exact("simcluster.allreduce_virtual_us", "us", Lower),
    host("simcluster.tp_allreduce_us_p50", "us", Lower),
    host("hybridengine.transition_us_p50", "us", Lower),
    exact("hybridengine.transition_virtual_us", "us", Lower),
    exact("hybridengine.transition_bytes", "bytes", Lower),
    host("rlhf.generate_ms_p50", "ms", Lower),
    host("rlhf.prepare_ms_p50", "ms", Lower),
    host("rlhf.update_ms_p50", "ms", Lower),
    host("rlhf.advantage_us_p50", "us", Lower),
    host("rlhf.iter_host_ms_p99", "ms", Lower),
    host("rlhf.stage_sum_share", "ratio", Lower),
    exact("rlhf.virtual_iter_us", "us", Lower),
    host("rewards.eval_us_per_task", "us", Lower),
    exact("rewards.retries", "count", Lower),
    host("resilience.save_ms_p50", "ms", Lower),
    host("resilience.save_mib_per_s", "MiB/s", Higher),
    host("resilience.restore_ms", "ms", Lower),
    exact("resilience.ckpt_bytes", "bytes", Lower),
    exact("resilience.restore_virtual_us", "us", Lower),
    host("mapping.search_ms_p50", "ms", Lower),
    exact("mapping.evals", "count", Lower),
    host("mapping.pruned", "count", Higher),
    host("telemetry.overhead_share", "ratio", Lower),
    exact("telemetry.spans_per_iter", "count", Lower),
    exact("insight.cp_share.dispatch", "ratio", Lower),
    exact("insight.cp_share.queue_wait", "ratio", Lower),
    exact("insight.cp_share.comm", "ratio", Lower),
    exact("insight.cp_share.exec", "ratio", Higher),
    exact("insight.cp_share.transition", "ratio", Lower),
    exact("insight.cp_share.collect", "ratio", Lower),
    exact("insight.cp_share.controller", "ratio", Lower),
    exact("insight.bubble_share", "ratio", Lower),
    host("trace.self_share.nn", "ratio", Lower),
    host("trace.self_share.genserve", "ratio", Lower),
    host("trace.self_share.core", "ratio", Lower),
    host("trace.self_share.simcluster", "ratio", Lower),
    host("trace.self_share.hybridengine", "ratio", Lower),
    host("trace.self_share.rlhf", "ratio", Lower),
    host("trace.self_share.rewards", "ratio", Lower),
    host("trace.tiled_share", "ratio", Higher),
];

/// Looks a declared metric up by name.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|m| m.name == name)
}

/// Whether `name` is a legal metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The arguments the driver's command carries before it appends
/// `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// `BENCHMARK.json`, pretty-printed, from the tables above.
pub fn manifest() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items.iter().map(|i| format!("    {}", i.render())).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let metric = |m: &MetricSpec, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    let command = Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()).render();
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": \
         {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        list(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_validation_follows_the_contract() {
        for ok in ["host_iter_ms_p50", "insight.cp_share.queue_wait", "a", "9-b", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok} must be accepted");
        }
        for bad in ["", ".hidden", "_x", "-x", "has space", "a/b", "tokens%", "é", &"x".repeat(65)]
        {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_unit("tokens/s") && valid_unit("MiB/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("tokens per s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "metric name {}", m.name);
            assert!(valid_unit(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload name {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
        }
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(find("setup_s").map(|m| m.bound), Some(widest), "setup_s has the widest bound");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "BENCHMARK.json is stale: regenerate it with `hf-benchmark manifest`"
        );
    }
}
