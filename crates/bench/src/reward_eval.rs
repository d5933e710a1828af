//! The `reward_eval` bench: verifier-pool reward serving under the
//! virtual-time sandbox — pool-size scaling and the effect of straggler
//! cancellation on tail latency.
//!
//! Each configuration evaluates one batch of synthetic verifier tasks
//! through [`hf_rewards::SandboxPool`], sweeping worker count × task-cost
//! distribution. For the heavy-tailed distribution every pool size runs
//! twice — cancellation on and off — and the report records the p99
//! task-latency reduction the cancellation policy buys. Everything is
//! seeded virtual time, so the JSON is byte-stable across runs.

use hf_insight::Json;
use hf_rewards::{
    make_verifier_prompts, CostProfile, EvalItem, EvalReport, PoolConfig, SandboxPool,
    VerifierKind, VerifierSpec,
};

use crate::table::{col, label, mode, Cell, Report, Table};

/// One swept configuration.
#[derive(Debug, Clone)]
pub struct RewardEvalConfig {
    /// Stable name, used as the JSON key and table row label.
    pub(crate) name: String,
    /// Sandbox worker slots in the pool.
    pub(crate) workers: usize,
    /// Verifier tasks in the batch.
    pub(crate) tasks: usize,
    /// `"light"` or `"heavy_tail"` cost distribution.
    pub(crate) profile: &'static str,
}

/// The sweep. `fast` is the CI smoke shape (two pool sizes per
/// profile); full sweeps 2–16 workers.
pub(crate) fn sweep(fast: bool) -> Vec<RewardEvalConfig> {
    let sizes: &[usize] = if fast { &[2, 8] } else { &[2, 4, 8, 16] };
    let mut out = Vec::new();
    for &profile in &["light", "heavy_tail"] {
        for &workers in sizes {
            out.push(RewardEvalConfig {
                name: format!("{profile}_w{workers}"),
                workers,
                tasks: if fast { 128 } else { 256 },
                profile,
            });
        }
    }
    out
}

const SEED: u64 = 0xbe9c;
const PROMPT_LEN: usize = 6;
const RESP_LEN: usize = 6;
const VOCAB: u32 = 16;

fn profile(name: &str) -> CostProfile {
    match name {
        "light" => CostProfile::light(),
        "heavy_tail" => CostProfile::heavy_tail(),
        other => panic!("unknown cost profile {other}"),
    }
}

/// The synthetic task batch: seeded prompts plus responses drawn from
/// the same generator (content only matters for scoring determinism,
/// not for the timing being measured).
fn items(tasks: usize) -> Vec<EvalItem> {
    let prompts = make_verifier_prompts(tasks, PROMPT_LEN, VOCAB, SEED);
    let resps = make_verifier_prompts(tasks, RESP_LEN, VOCAB, SEED ^ 0xa5a5);
    (0..tasks)
        .map(|r| EvalItem {
            task_seed: SEED.wrapping_mul(0x9e37).wrapping_add(r as u64),
            prompt: prompts[r * PROMPT_LEN..(r + 1) * PROMPT_LEN].to_vec(),
            response: resps[r * RESP_LEN..(r + 1) * RESP_LEN].to_vec(),
        })
        .collect()
}

fn evaluate(cfg: &RewardEvalConfig, cancel: bool) -> EvalReport {
    let mut pc = PoolConfig::new(cfg.workers, SEED);
    pc.cost = profile(cfg.profile);
    pc.cancel_stragglers = cancel;
    let spec = VerifierSpec { kind: VerifierKind::AnswerExtraction, vocab: VOCAB };
    SandboxPool::new(pc).evaluate(&spec, &items(cfg.tasks))
}

fn report_json(r: &EvalReport) -> Json {
    Json::obj(vec![
        ("makespan_s", Json::Num(r.makespan_s)),
        ("p50_s", Json::Num(r.latency_percentile(0.50))),
        ("p99_s", Json::Num(r.latency_percentile(0.99))),
        ("mean_occupancy", Json::Num(r.mean_occupancy())),
        ("timeouts", Json::Int(r.timeouts as i64)),
        ("retries", Json::Int(r.retries as i64)),
        ("mem_aborts", Json::Int(r.mem_aborts as i64)),
        ("failed", Json::Int(r.failed as i64)),
    ])
}

/// One configuration's pool runs.
pub struct RewardEvalRow {
    /// The configuration.
    pub(crate) cfg: RewardEvalConfig,
    /// Straggler cancellation on.
    pub(crate) on: EvalReport,
    /// Straggler cancellation off (heavy-tailed profile only).
    pub(crate) off: Option<EvalReport>,
}

impl RewardEvalRow {
    /// How much of the no-cancellation p99 task latency cancellation
    /// removes, where both arms ran.
    pub(crate) fn p99_reduction(&self) -> Option<f64> {
        let off = self.off.as_ref()?;
        Some(1.0 - self.on.latency_percentile(0.99) / off.latency_percentile(0.99))
    }

    fn json(&self) -> Json {
        let cfg = &self.cfg;
        let mut fields = vec![
            ("name", Json::Str(cfg.name.clone())),
            ("workers", Json::Int(cfg.workers as i64)),
            ("tasks", Json::Int(cfg.tasks as i64)),
            ("profile", Json::Str(cfg.profile.into())),
            ("cancel_on", report_json(&self.on)),
        ];
        if let (Some(off), Some(reduction)) = (&self.off, self.p99_reduction()) {
            fields.push(("cancel_off", report_json(off)));
            fields.push(("p99_reduction", Json::Num(reduction)));
        }
        Json::obj(fields)
    }
}

/// Runs one configuration (cancellation on, plus the off arm for the
/// heavy-tailed profile).
pub(crate) fn run_config(cfg: &RewardEvalConfig) -> RewardEvalRow {
    RewardEvalRow {
        cfg: cfg.clone(),
        on: evaluate(cfg, true),
        off: (cfg.profile == "heavy_tail").then(|| evaluate(cfg, false)),
    }
}

/// The `reward_eval` experiment: pool-size scaling under both cost
/// profiles and the tail-latency cut straggler cancellation buys.
pub(crate) fn reward_eval(fast: bool) -> Report {
    let rows: Vec<RewardEvalRow> = sweep(fast).iter().map(run_config).collect();
    let mut table = Table::new(
        format!("reward eval ({})", mode(fast)),
        vec![
            label("config"),
            col("makespan", "s", 4),
            col("p50", "s", 4),
            col("p99", "s", 4),
            col("occupancy", "workers", 2),
            label("timeouts"),
            label("retries"),
            col("p99 cut", "%", 0),
        ],
    );
    for row in &rows {
        let on = &row.on;
        table.push(vec![
            row.cfg.name.as_str().into(),
            on.makespan_s.into(),
            on.latency_percentile(0.50).into(),
            on.latency_percentile(0.99).into(),
            on.mean_occupancy().into(),
            on.timeouts.into(),
            on.retries.into(),
            row.p99_reduction().map_or(Cell::from("-"), |r| Cell::Num(r * 100.0)),
        ]);
    }
    let json = Json::obj(vec![
        ("schema", Json::Str("hf-bench.reward_eval/v1".into())),
        ("mode", Json::Str(mode(fast).into())),
        ("configs", Json::Arr(rows.iter().map(RewardEvalRow::json).collect())),
    ]);
    Report { json: Some(json), ..Report::new(vec![table], Vec::new()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_insight::{flatten_json, Leaf};

    fn leaf_num(flat: &std::collections::BTreeMap<String, Leaf>, key: &str) -> f64 {
        match flat.get(key) {
            Some(Leaf::Num(v)) => *v,
            other => panic!("missing numeric leaf {key}: {other:?}"),
        }
    }

    /// The PR's acceptance bar: straggler cancellation cuts the p99
    /// task latency vs no-cancellation by a measured margin on the
    /// heavy-tailed profile, and pool-size scaling shrinks the
    /// makespan.
    #[test]
    fn cancellation_cuts_p99_and_pools_scale() {
        let doc = reward_eval(true).json("reward_eval", true).render();
        let flat = flatten_json(&doc).expect("report parses");
        let cfgs = sweep(true);
        let mut best_reduction = 0.0f64;
        let mut makespans: std::collections::BTreeMap<&str, Vec<(usize, f64)>> = Default::default();
        for (i, cfg) in cfgs.iter().enumerate() {
            let makespan = leaf_num(&flat, &format!("configs[{i}].cancel_on.makespan_s"));
            makespans.entry(cfg.profile).or_default().push((cfg.workers, makespan));
            if cfg.profile == "heavy_tail" {
                best_reduction =
                    best_reduction.max(leaf_num(&flat, &format!("configs[{i}].p99_reduction")));
            }
        }
        assert!(
            best_reduction >= 0.25,
            "cancellation must cut heavy-tail p99 by >= 25%, best {best_reduction}"
        );
        for (profile, mut points) in makespans {
            points.sort_by_key(|&(w, _)| w);
            for pair in points.windows(2) {
                assert!(
                    pair[1].1 < pair[0].1,
                    "{profile}: makespan must shrink as workers grow: {points:?}"
                );
            }
        }
    }
}
