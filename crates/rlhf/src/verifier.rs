//! The `RewardEvaluator` worker role: programmatic verifiable rewards
//! (RLVR) served by the `hf-rewards` sandbox pool instead of a reward
//! *model* forward pass (paper §9: "reward models can be replaced by
//! non-neural reward modules").
//!
//! The worker answers the same `compute_reward` method as
//! [`crate::workers::RewardWorker`], so the stage DAG, the GRPO driver,
//! and the pipelined scheduler all work unchanged — swapping reward
//! sources is a one-line placement decision, exactly the flexibility
//! the hybrid programming model promises.
//!
//! Determinism and layout invariance: each task's sandbox seed derives
//! from its *global* batch row (stamped by the transfer protocol as
//! [`DataProto::row_offset`]) and the response content, never from
//! the rank or chunk shape. Scores are pure functions of
//! `(prompt, response)`, and the pool's virtual-time cost draws are a
//! pure function of `(pool seed, task seed, attempt)` — so any
//! `(p, t, d)` layout, ZeRO or replicated, produces bit-identical
//! scores, and a killed-and-replayed evaluation reproduces the original
//! bits (the pool holds no cross-batch state): `proptest_reward_invariance.rs`
//! holds five 4-GPU layouts and ZeRO↔replicated to one set of scores,
//! and `fault_matrix.rs` a kill during evaluation to the fault-free bits.
//!
//! The worker runs on the host lane ([`Lane::Host`]): the pool's virtual
//! makespan is charged to the clock of its device's host CPUs, so in
//! virtual time it scores beside the reference pass colocated with it,
//! not after it. It records `reward_eval.*` spans on the
//! `cpu-<n>/rewards` sub-track, task and batch digests, counters and a
//! pool-occupancy gauge.

use hf_core::{CoreError, DataProto, Lane, RankCtx, Result, Worker};
use hf_rewards::{splitmix, EvalItem, EvalReport, PoolConfig, SandboxPool, VerifierSpec};
use hf_telemetry::SpanKind;

/// A worker-group member serving programmatic rewards from a sandboxed
/// verifier pool. One pool instance per rank; ranks score disjoint DP
/// chunks like every other preparation-stage worker.
pub struct RewardEvaluatorWorker {
    spec: VerifierSpec,
    pool: SandboxPool,
}

impl RewardEvaluatorWorker {
    /// Builds the evaluator. All ranks must receive the same `spec` and
    /// `pool` config (replica agreement, as with model seeds).
    pub fn new(spec: VerifierSpec, pool: PoolConfig) -> Self {
        RewardEvaluatorWorker { spec, pool: SandboxPool::new(pool) }
    }

    /// Emits the evaluation's spans, counters, and latency digests on
    /// this rank's `cpu-<n>/rewards` sub-track.
    fn trace(&self, report: &EvalReport, t0: f64, ctx: &mut RankCtx) {
        let t1 = ctx.clock.now();
        let id = ctx.telemetry.next_span_id();
        ctx.telemetry.span_causal(
            &format!("{}/rewards", hf_telemetry::cpu_track(ctx.device.index())),
            "reward_eval.batch",
            SpanKind::Exec,
            t0,
            t1,
            id,
            &[ctx.cause],
            &[
                ("tasks", report.outcomes.len().to_string()),
                ("workers", self.pool.config().workers.to_string()),
                ("timeouts", report.timeouts.to_string()),
                ("retries", report.retries.to_string()),
                ("failed", report.failed.to_string()),
            ],
        );
        for o in &report.outcomes {
            ctx.telemetry.observe("reward_eval.task_seconds", o.end_s - o.start_s);
        }
        ctx.telemetry.observe("reward_eval.batch_seconds", report.makespan_s);
        ctx.telemetry.add_counter("reward_eval.tasks", report.outcomes.len() as u64);
        ctx.telemetry.add_counter("reward_eval.timeouts", report.timeouts);
        ctx.telemetry.add_counter("reward_eval.retries", report.retries);
        ctx.telemetry.add_counter("reward_eval.mem_aborts", report.mem_aborts);
        ctx.telemetry.add_counter("reward_eval.failed", report.failed);
        let occ = report.mean_occupancy();
        ctx.telemetry.observe("reward_eval.pool_occupancy", occ);
        ctx.telemetry.sample("reward_eval.pool_occupancy", t1, occ);
    }
}

impl Worker for RewardEvaluatorWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        if method != "compute_reward" {
            return Err(CoreError::Worker(format!("reward evaluator has no method {method}")));
        }
        let (prompts, pw) = data.tokens("prompts")?;
        let (resps, rw) = data.tokens("responses")?;
        let rows = prompts.len().checked_div(pw).unwrap_or(0);
        // True per-sequence lengths (generation pads to a fixed width);
        // verifiers judge what the policy actually emitted.
        let lens: Option<&[f32]> = data.f32("response_len").ok().map(|(v, _)| v);
        let row0 = data.row_offset().unwrap_or(0);

        let items: Vec<EvalItem> = (0..rows)
            .map(|r| {
                let prompt = prompts[r * pw..(r + 1) * pw].to_vec();
                let len = lens.and_then(|l| l.get(r)).map(|&l| (l as usize).min(rw)).unwrap_or(rw);
                let response = resps[r * rw..r * rw + len].to_vec();
                // Global-row + content seed: identical across layouts,
                // distinct across rows and across iterations (responses
                // change as the policy learns).
                let mut h = splitmix((row0 + r) as u64 ^ 0x5eed);
                for &t in &response {
                    h = splitmix(h ^ t as u64);
                }
                EvalItem { task_seed: h, prompt, response }
            })
            .collect();

        let t0 = ctx.clock.now();
        let report = self.pool.evaluate(&self.spec, &items);
        // The pool's virtual schedule ran on this rank's host share: its
        // makespan is charged to the host lane's clock (`lane` below), the
        // same CPU-bound latency the mapper composes beside the set's GPU
        // passes, not after them.
        ctx.charge(report.makespan_s);
        self.trace(&report, t0, ctx);

        let scores: Vec<f32> = report.outcomes.iter().map(|o| o.score).collect();
        let mut out = DataProto::with_rows(rows);
        out.insert_f32("scores", scores, 1);
        Ok(out)
    }

    /// The pool needs no GPU: its calls run on the node's host CPUs.
    fn lane(&self) -> Lane {
        Lane::Host
    }
}
