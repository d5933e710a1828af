//! The sandbox pool simulator: bounded workers, per-task budgets, and a
//! seeded long-tailed cost model — all in virtual time.
//!
//! Real verifier sandboxes (fork + rlimit + pipe) have three defining
//! behaviours this models exactly: evaluation cost is bursty and
//! long-tailed (a regex backtracks, a checker loops), budgets are
//! enforced per task (wall clock, CPU, peak memory), and the batch must
//! complete even when individual tasks do not. Instead of real
//! processes, every attempt's CPU cost and peak memory are **seeded
//! draws** from the task identity and attempt index, so a replayed run
//! — including every timeout, straggler, cancellation, and retry —
//! reproduces the original schedule bit for bit. That is what lets a
//! mid-evaluation kill recover bit-identically: respawned pool state is
//! a pure function of the seeds.
//!
//! Scheduling is FIFO over `workers` virtual slots (earliest-free slot
//! wins, ties to the lowest index), which makes the whole schedule a
//! deterministic fold over the item list.

use crate::task::VerifierSpec;
use crate::{splitmix, unit};

/// The seeded per-attempt cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Fixed virtual seconds per attempt (sandbox spawn + parse).
    pub(crate) base_s: f64,
    /// Virtual seconds per prompt/response token verified.
    pub(crate) per_token_s: f64,
    /// Uniform multiplicative jitter amplitude: an attempt's nominal
    /// cost scales by `1 + jitter · (u − 0.5)`.
    pub(crate) jitter: f64,
    /// Probability an attempt draws the heavy tail.
    pub(crate) straggler_prob: f64,
    /// Heavy-tail cost multiplier (a backtracking verifier).
    pub(crate) straggler_factor: f64,
    /// Nominal peak memory per attempt (bytes).
    pub(crate) mem_base_bytes: u64,
    /// Probability an attempt's peak memory spikes past any budget.
    pub(crate) mem_spike_prob: f64,
}

impl CostProfile {
    /// Well-behaved verifiers: jittered around the base cost, no tail.
    pub fn light() -> Self {
        CostProfile {
            base_s: 2e-3,
            per_token_s: 1e-4,
            jitter: 0.5,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            mem_base_bytes: 16 << 20,
            mem_spike_prob: 0.0,
        }
    }

    /// Adversarial verifiers: ~8% of attempts run 40x long (the
    /// backtracking tail) and ~2% spike past the memory budget.
    pub fn heavy_tail() -> Self {
        CostProfile {
            straggler_prob: 0.08,
            straggler_factor: 40.0,
            mem_spike_prob: 0.02,
            ..CostProfile::light()
        }
    }
}

/// Pool-wide configuration: concurrency, budgets, and retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Concurrent sandbox slots.
    pub workers: usize,
    /// Base seed every per-attempt draw derives from.
    pub(crate) seed: u64,
    /// Per-attempt wall-clock budget (virtual seconds).
    pub(crate) wall_budget_s: f64,
    /// Per-attempt CPU budget (virtual seconds; attempts are
    /// single-threaded, so the effective limit is the min of the two).
    pub(crate) cpu_budget_s: f64,
    /// Per-attempt peak-memory budget (bytes).
    pub(crate) mem_budget_bytes: u64,
    /// Cancel attempts at the budget limit. When off, stragglers run to
    /// completion — the no-cancellation baseline the bench compares
    /// against (memory overruns still abort: the sandbox cannot
    /// allocate past its budget either way).
    pub cancel_stragglers: bool,
    /// Retries after a cancelled or aborted attempt before the task is
    /// abandoned to partial completion.
    pub(crate) max_retries: u32,
    /// The attempt cost model.
    pub cost: CostProfile,
}

impl PoolConfig {
    /// A pool of `workers` slots with the light cost profile and
    /// budgets ~4x the nominal attempt cost.
    pub fn new(workers: usize, seed: u64) -> Self {
        PoolConfig {
            workers: workers.max(1),
            seed,
            wall_budget_s: 12e-3,
            cpu_budget_s: 12e-3,
            mem_budget_bytes: 256 << 20,
            cancel_stragglers: true,
            max_retries: 2,
            cost: CostProfile::light(),
        }
    }
}

/// One task to evaluate: the scoring inputs plus the seed its cost
/// draws derive from. Callers derive `task_seed` from the row's
/// *global* batch position so chunking never changes the draws.
#[derive(Debug, Clone)]
pub struct EvalItem {
    /// Seed for this task's cost/memory draws.
    pub task_seed: u64,
    /// Prompt tokens (the verifier recomputes its answer from these).
    pub prompt: Vec<u32>,
    /// Response tokens under evaluation.
    pub response: Vec<u32>,
}

/// What happened to one task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOutcome {
    /// The verifier score (the fallback 0.0 when the task failed).
    pub score: f32,
    /// Virtual time the task entered a worker slot.
    pub start_s: f64,
    /// Virtual time the task left the pool (success or abandonment).
    pub end_s: f64,
    /// Attempts executed (1 = clean first try).
    pub(crate) attempts: u32,
    /// Attempts cancelled at the wall/CPU budget.
    pub(crate) timeouts: u32,
    /// Attempts aborted at the memory budget.
    pub(crate) mem_aborts: u32,
    /// Whether a verifier attempt actually completed (false = the score
    /// is the partial-completion fallback).
    pub(crate) completed: bool,
}

/// The pool's answer for one batch: every task's outcome (the batch
/// always completes), the schedule envelope, and occupancy.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Per-task outcomes, in item order.
    pub outcomes: Vec<TaskOutcome>,
    /// Virtual time the last task left the pool.
    pub makespan_s: f64,
    /// Busy-slot step curve: `(time, busy)` at every change point, in
    /// time order — for occupancy telemetry.
    pub(crate) busy_curve: Vec<(f64, usize)>,
    /// Total attempts cancelled at the wall/CPU budget.
    pub timeouts: u64,
    /// Total attempts aborted at the memory budget.
    pub mem_aborts: u64,
    /// Total retry attempts (beyond each task's first).
    pub retries: u64,
    /// Tasks abandoned to the partial-completion fallback.
    pub failed: u64,
}

impl EvalReport {
    /// Mean busy slots over the makespan (0 for an empty batch).
    pub fn mean_occupancy(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for w in self.busy_curve.windows(2) {
            acc += w[0].1 as f64 * (w[1].0 - w[0].0);
        }
        if let Some(&(t, busy)) = self.busy_curve.last() {
            acc += busy as f64 * (self.makespan_s - t);
        }
        acc / self.makespan_s
    }

    /// Exact latency percentile (completion time since batch arrival)
    /// over all tasks, `q` in `[0, 1]` (nearest-rank).
    pub fn latency_percentile(&self, q: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let mut lat: Vec<f64> = self.outcomes.iter().map(|o| o.end_s).collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    }
}

/// One attempt's seeded draws: `(cpu_seconds, peak_memory_bytes)`.
fn attempt_draw(cfg: &PoolConfig, task_seed: u64, attempt: u32, tokens: usize) -> (f64, u64) {
    let c = &cfg.cost;
    let h1 =
        splitmix(cfg.seed ^ task_seed.wrapping_mul(0x9e37) ^ (attempt as u64).wrapping_mul(0x85eb));
    let h2 = splitmix(h1);
    let h3 = splitmix(h2);
    let nominal = c.base_s + tokens as f64 * c.per_token_s;
    let jittered = nominal * (1.0 + c.jitter * (unit(h1) - 0.5));
    let cpu = if unit(h2) < c.straggler_prob { jittered * c.straggler_factor } else { jittered };
    let mem = if unit(h3) < c.mem_spike_prob {
        // A spike always lands past the budget: double whatever the
        // pool allows, so admission control must act.
        cfg.mem_budget_bytes.saturating_mul(2).max(c.mem_base_bytes)
    } else {
        c.mem_base_bytes
    };
    (cpu, mem)
}

/// The bounded sandbox pool. Stateless between batches: every schedule
/// is a pure function of `(config, items)`, which is what makes a
/// killed-and-respawned evaluator bit-identical on replay.
#[derive(Debug, Clone)]
pub struct SandboxPool {
    cfg: PoolConfig,
}

impl SandboxPool {
    /// Builds a pool from its configuration.
    pub fn new(cfg: PoolConfig) -> Self {
        SandboxPool { cfg }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Evaluates one batch under `spec`, returning every task's outcome
    /// and the virtual-time schedule. The batch always completes:
    /// abandoned tasks carry the fallback score with
    /// `completed = false` (partial-batch completion).
    pub fn evaluate(&self, spec: &VerifierSpec, items: &[EvalItem]) -> EvalReport {
        let cfg = &self.cfg;
        let limit = cfg.wall_budget_s.min(cfg.cpu_budget_s);
        let mut free = vec![0.0f64; cfg.workers];
        let mut outcomes = Vec::with_capacity(items.len());
        let mut events: Vec<(f64, i64)> = Vec::with_capacity(items.len() * 2);
        let (mut timeouts, mut mem_aborts, mut retries, mut failed) = (0u64, 0u64, 0u64, 0u64);

        for item in items {
            // Earliest-free slot, ties to the lowest index.
            let w = (0..cfg.workers)
                .min_by(|&a, &b| free[a].total_cmp(&free[b]).then(a.cmp(&b)))
                .expect("pool has at least one worker");
            let start = free[w];
            let tokens = item.prompt.len() + item.response.len();
            let mut now = start;
            let mut out = TaskOutcome {
                score: 0.0,
                start_s: start,
                end_s: start,
                attempts: 0,
                timeouts: 0,
                mem_aborts: 0,
                completed: false,
            };
            for attempt in 0..=cfg.max_retries {
                out.attempts += 1;
                if attempt > 0 {
                    retries += 1;
                }
                let (cpu_s, mem) = attempt_draw(cfg, item.task_seed, attempt, tokens);
                if mem > cfg.mem_budget_bytes {
                    // The sandbox cannot allocate past its budget: the
                    // attempt aborts at allocation time, modeled as the
                    // fixed spawn cost.
                    now += cfg.cost.base_s;
                    out.mem_aborts += 1;
                    mem_aborts += 1;
                    continue;
                }
                if cfg.cancel_stragglers && cpu_s > limit {
                    // Straggler cancellation: charged exactly the
                    // budget, then retried with fresh draws.
                    now += limit;
                    out.timeouts += 1;
                    timeouts += 1;
                    continue;
                }
                // Without cancellation the straggler runs to completion
                // — the pool (and the batch's tail latency) just waits.
                now += cpu_s;
                out.score = spec.score(&item.prompt, &item.response);
                out.completed = true;
                break;
            }
            if !out.completed {
                failed += 1;
            }
            out.end_s = now;
            free[w] = now;
            events.push((start, 1));
            events.push((now, -1));
            outcomes.push(out);
        }

        // Fold start/end events into the busy step curve.
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut busy_curve = Vec::with_capacity(events.len());
        let mut busy = 0i64;
        for (t, delta) in events {
            busy += delta;
            match busy_curve.last_mut() {
                Some(&mut (last_t, ref mut b)) if last_t == t => *b = busy as usize,
                _ => busy_curve.push((t, busy as usize)),
            }
        }
        let makespan_s = outcomes.iter().map(|o| o.end_s).fold(0.0f64, f64::max);
        EvalReport { outcomes, makespan_s, busy_curve, timeouts, mem_aborts, retries, failed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{make_verifier_prompts, VerifierKind};

    fn spec() -> VerifierSpec {
        VerifierSpec { kind: VerifierKind::AnswerExtraction, vocab: 16 }
    }

    fn items(n: usize, seed: u64) -> Vec<EvalItem> {
        let prompts = make_verifier_prompts(n, 4, 16, seed);
        let resps = make_verifier_prompts(n, 6, 16, seed ^ 1);
        (0..n)
            .map(|r| EvalItem {
                task_seed: crate::splitmix(seed ^ r as u64),
                prompt: prompts[r * 4..(r + 1) * 4].to_vec(),
                response: resps[r * 6..(r + 1) * 6].to_vec(),
            })
            .collect()
    }

    fn bits(r: &EvalReport) -> Vec<u64> {
        let mut out = Vec::new();
        for o in &r.outcomes {
            out.push(o.score.to_bits() as u64);
            out.push(o.start_s.to_bits());
            out.push(o.end_s.to_bits());
            out.push(o.attempts as u64);
        }
        out.push(r.makespan_s.to_bits());
        out
    }

    #[test]
    fn schedule_is_bit_deterministic() {
        let mut cfg = PoolConfig::new(4, 7);
        cfg.cost = CostProfile::heavy_tail();
        let pool = SandboxPool::new(cfg);
        let batch = items(64, 11);
        assert_eq!(bits(&pool.evaluate(&spec(), &batch)), bits(&pool.evaluate(&spec(), &batch)));
    }

    #[test]
    fn scores_do_not_depend_on_pool_shape_or_chunking() {
        let batch = items(32, 3);
        let few = SandboxPool::new(PoolConfig::new(2, 7)).evaluate(&spec(), &batch);
        let mut wide_cfg = PoolConfig::new(16, 7);
        wide_cfg.cost = CostProfile::heavy_tail();
        let wide = SandboxPool::new(wide_cfg).evaluate(&spec(), &batch);
        // Timing differs; score bits must not (heavy tail can abandon
        // tasks, so compare only where both completed).
        for (a, b) in few.outcomes.iter().zip(&wide.outcomes) {
            if a.completed && b.completed {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        // Chunked evaluation concatenates to the whole-batch scores.
        let chunked: Vec<f32> = batch
            .chunks(8)
            .flat_map(|c| {
                SandboxPool::new(PoolConfig::new(2, 7))
                    .evaluate(&spec(), c)
                    .outcomes
                    .iter()
                    .map(|o| o.score)
                    .collect::<Vec<_>>()
            })
            .collect();
        let whole: Vec<f32> = few.outcomes.iter().map(|o| o.score).collect();
        assert_eq!(
            chunked.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            whole.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cancellation_cuts_the_tail_latency() {
        let batch = items(128, 5);
        let mut on = PoolConfig::new(4, 9);
        on.cost = CostProfile::heavy_tail();
        let mut off = on;
        off.cancel_stragglers = false;
        let with = SandboxPool::new(on).evaluate(&spec(), &batch);
        let without = SandboxPool::new(off).evaluate(&spec(), &batch);
        assert!(with.timeouts > 0, "heavy tail must trip the budget");
        let (p99_on, p99_off) = (with.latency_percentile(0.99), without.latency_percentile(0.99));
        assert!(
            p99_on < p99_off * 0.75,
            "cancellation must cut p99 latency: {p99_on} vs {p99_off}"
        );
    }

    #[test]
    fn partial_batch_completion_never_blocks() {
        let mut cfg = PoolConfig::new(2, 1);
        cfg.cost.straggler_prob = 1.0; // every attempt stalls
        cfg.cost.straggler_factor = 100.0;
        cfg.max_retries = 1;
        let batch = items(8, 2);
        let r = SandboxPool::new(cfg).evaluate(&spec(), &batch);
        assert_eq!(r.outcomes.len(), 8, "every task gets an outcome");
        assert_eq!(r.failed, 8);
        assert!(r.outcomes.iter().all(|o| !o.completed && o.score == 0.0 && o.attempts == 2));
        // Each failed task cost exactly 2 cancelled budgets.
        let budget = cfg.wall_budget_s.min(cfg.cpu_budget_s);
        for o in &r.outcomes {
            assert!((o.end_s - o.start_s - 2.0 * budget).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_spikes_abort_and_retry() {
        let mut cfg = PoolConfig::new(4, 3);
        cfg.cost = CostProfile::heavy_tail();
        cfg.cost.mem_spike_prob = 0.5;
        let r = SandboxPool::new(cfg).evaluate(&spec(), &items(64, 8));
        assert!(r.mem_aborts > 0, "spikes must trip the memory budget");
        assert!(r.retries > 0, "aborted attempts retry");
    }

    #[test]
    fn occupancy_is_bounded_by_workers_and_scales() {
        let batch = items(64, 4);
        for workers in [1usize, 4, 16] {
            let r = SandboxPool::new(PoolConfig::new(workers, 2)).evaluate(&spec(), &batch);
            assert!(r.busy_curve.iter().all(|&(_, b)| b <= workers));
        }
        let narrow = SandboxPool::new(PoolConfig::new(2, 2)).evaluate(&spec(), &batch);
        let wide = SandboxPool::new(PoolConfig::new(8, 2)).evaluate(&spec(), &batch);
        assert!(wide.makespan_s < narrow.makespan_s, "more workers must shorten the batch");
        assert!(narrow.mean_occupancy() > 1.5, "a saturated narrow pool stays busy");
    }
}
