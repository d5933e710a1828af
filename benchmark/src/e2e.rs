//! The end-to-end pass: tracing off, one driver thread, closed loop, the
//! whole process on one CPU, every host time calibrated (`calibrate.rs`).
//!
//! A run is a sequence of **episodes**. Each episode sets the system up
//! afresh `SETUPS_PER_EPISODE` times (controller, thread spawn, warm-up
//! iterations — one `setup_s` sample each; all but the last system are
//! dropped at once) and then measures the workload's fixed window of
//! iterations on the last one, in `BLOCKS_PER_EPISODE` blocks of
//! consecutive iterations. Every episode trains the same models on the
//! same prompts, so a block always holds the same iterations of the same
//! training run, and the deterministic metrics (`virtual_tokens_per_s`,
//! `final_reward_mean`) must repeat bit for bit from episode to episode —
//! a determinism check every run makes. The run ends at the first block
//! boundary past `--seconds` once one episode is whole; the blocks of an
//! unfinished last episode still count for the host metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hybridflow::core::{DataProto, Result};
use hybridflow::resilience::{AssembledState, CheckpointStore};
use hybridflow::rlhf::{restore_system_checkpoint, save_checkpoint, save_system_checkpoint};
use hybridflow::telemetry::Telemetry;

use crate::calibrate::Calibrator;
use crate::spec;
use crate::stats::{mean, median, quartile_spread, summarize, Summary};
use crate::workloads::{finite, Session, StepOutcome, Workload};

/// Everything one end-to-end run measured.
pub struct E2eReport {
    /// `(metric name, value)` for every end-to-end metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Iterations measured plus output checks made.
    pub attempted: u64,
    /// One line per failed iteration or output check.
    pub failures: Vec<String>,
    /// Calibrated host time of each measured iteration call (ms).
    pub iter_ms: Summary,
    /// Median host time of an iteration as the clock read it (ms).
    pub raw_iter_ms_p50: f64,
    /// Median slowness of the host over the run's iterations: reference
    /// kernel time ÷ its time on the quiet reference sandbox.
    pub host_speed_p50: f64,
    /// `(p90 − p50) / p50` of the calibrated iteration time: how noisy
    /// the host was during this run beyond what calibration removes.
    pub host_jitter_share: f64,
    /// Host metrics whose spread over this run's own samples exceeds
    /// their bound, with that spread: the host was too unsteady during
    /// the run to resolve a change of the bound's size.
    pub unresolved: Vec<(&'static str, f64)>,
    /// Every set-up sample of the run (calibrated s).
    pub setups_s: Vec<f64>,
    /// Whole episodes the run held.
    pub episodes: usize,
    /// Each block's median calibrated iteration time (ms): blocks that
    /// disagree show what calibration left of the host's noise.
    pub block_p50_ms: Vec<f64>,
    /// Each block's calibrated host throughput (tokens/s).
    pub block_tokens_per_s: Vec<f64>,
}

/// A scratch directory under `out/` that is removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `out/<label>-<pid>` afresh.
    pub fn new(out: &Path, label: &str) -> std::io::Result<ScratchDir> {
        let dir = out.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Whether a `save_checkpoint` reply holds exactly `state`.
fn same_state(reply: &DataProto, state: &AssembledState) -> bool {
    let col = |name| reply.f32(name).map(|(v, _)| bits(v)).unwrap_or_default();
    col("params") == bits(&state.params)
        && col("opt_m") == bits(&state.opt_m)
        && col("opt_v") == bits(&state.opt_v)
}

/// The checkpoint round trip: what `CheckpointStore::load_group` reads
/// back for `step` must equal, bit for bit, the state a freshly built
/// system holds after restoring that step.
pub fn checkpoint_round_trip(
    session: &Session,
    store: &CheckpointStore,
    step: u64,
) -> Result<bool> {
    save_system_checkpoint(store, &session.sys, &session.ctrl, step)?;
    let fresh = Session::build(session.workload, 0, Telemetry::disabled())?;
    restore_system_checkpoint(store, &fresh.sys, step)?;
    let restored = save_checkpoint(&fresh.sys)?;
    let mut same = same_state(&restored.actor, &store.load_group(step, "actor")?);
    if let Some(critic) = &restored.critic {
        same &= same_state(critic, &store.load_group(step, "critic")?);
    }
    Ok(same)
}

/// Systems set up per episode: two more set-ups at the head of each
/// episode give `setup_s` six to twelve samples a run.
const SETUPS_PER_EPISODE: usize = 3;

/// Blocks an episode's window is cut into: the unit `host_tokens_per_s`
/// is taken over (0.3 to 1.2 s of iterations) and the grain at which a
/// run ends. Every workload's window is a multiple of it.
pub const BLOCKS_PER_EPISODE: usize = 10;

/// What one whole episode measured on the deterministic side.
struct Episode {
    /// Virtual-clock time of the window (s).
    virtual_s: f64,
    /// Mean score of the untrained model's first batches.
    reward_first: f64,
    /// Mean score over the second half of the window.
    reward_last: f64,
}

/// Builds a session and runs its warm-up iterations, every call timed:
/// the sum of the calibrated times (s) is one `setup_s` sample.
fn set_up(cal: &mut Calibrator, workload: &'static Workload, seed: u64) -> Result<(Session, f64)> {
    let (session, built) = cal.time(|| Session::build(workload, seed, Telemetry::disabled()));
    let mut session = session?;
    let mut total_s = built.s;
    for _ in 0..workload.warmup {
        let (outcome, t) = cal.time(|| session.step());
        if let StepOutcome::Failed(e) = outcome {
            return Err(hybridflow::core::CoreError::Worker(format!("warm-up iteration: {e}")));
        }
        total_s += t.s;
    }
    Ok((session, total_s))
}

/// Runs the end-to-end pass of `workload`.
pub fn run(workload: &'static Workload, seed: u64, seconds: f64, out: &Path) -> Result<E2eReport> {
    let scratch = ScratchDir::new(out, &format!("ckpt-{}", workload.name))
        .map_err(|e| hybridflow::core::CoreError::Worker(format!("scratch dir: {e}")))?;
    let store = CheckpointStore::new(scratch.path())?;
    let window = workload.window;
    let block_len = window / BLOCKS_PER_EPISODE;
    let run_start = Instant::now();
    let mut cal = Calibrator::new();

    let mut episodes: Vec<Episode> = Vec::new();
    let mut setups_s: Vec<f64> = Vec::new();
    let mut iter_ms: Vec<f64> = Vec::new();
    let mut raw_iter_ms: Vec<f64> = Vec::new();
    let mut speeds: Vec<f64> = Vec::new();
    let mut block_p50_ms: Vec<f64> = Vec::new();
    let mut block_tokens_per_s: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut checks = 0u64;
    let mut step_id = 0u64;
    let mut peak_rss = f64::NAN;
    let mut last_session: Option<Session> = None;
    'run: loop {
        // The previous episode's threads are joined before the next
        // set-up is timed, and so are each set-up-only system's.
        drop(last_session.take());
        let mut session = None;
        for _ in 0..SETUPS_PER_EPISODE {
            drop(session.take());
            let (fresh, setup_s) = set_up(&mut cal, workload, seed)?;
            setups_s.push(setup_s);
            session = Some(fresh);
        }
        let session = last_session.insert(session.expect("SETUPS_PER_EPISODE is at least one"));
        let tokens_per_block = (workload.tokens_per_iter(&session.cfg) * block_len) as f64;

        let first_score = session.scores.len();
        let virtual_start = session.ctrl.clock();
        for block in 0..BLOCKS_PER_EPISODE {
            if !episodes.is_empty() && run_start.elapsed().as_secs_f64() >= seconds {
                break 'run;
            }
            // Calibrated host time of the block, checkpoint stalls
            // included (s).
            let mut block_s = 0.0;
            for done in block * block_len + 1..=(block + 1) * block_len {
                let (outcome, t) = cal.time(|| session.step());
                block_s += t.s;
                iter_ms.push(t.s * 1e3);
                raw_iter_ms.push(t.raw_s * 1e3);
                speeds.push(t.speed);
                match outcome {
                    StepOutcome::Ok(stats) => {
                        if stats.is_some_and(|s| !finite(&s)) {
                            failures.push(format!("iteration {done}: non-finite loss"));
                        }
                    }
                    StepOutcome::Failed(e) => failures.push(format!("iteration {done}: {e}")),
                }
                if failures.is_empty() && done % workload.checkpoint_every == 0 {
                    step_id += 1;
                    let (saved, t) = cal.time(|| {
                        save_system_checkpoint(&store, &session.sys, &session.ctrl, step_id)
                    });
                    block_s += t.s;
                    if let Err(e) = saved {
                        failures.push(format!("checkpoint at iteration {done}: {e}"));
                    }
                }
                // A failed rank poisons its groups: nothing later can
                // succeed, so the run ends here.
                if !failures.is_empty() {
                    break 'run;
                }
            }
            block_p50_ms.push(median(&iter_ms[iter_ms.len() - block_len..]));
            block_tokens_per_s.push(tokens_per_block / block_s);
        }
        // `final_reward_mean` averages the second half of the window (a
        // tenth of it is too few batches to be steady across seeds); the
        // learning check compares it with the untrained model's first
        // batches, warm-up included.
        let scores = &session.scores;
        let measured = &scores[first_score..];
        let tenth = (measured.len() / 10).max(1);
        episodes.push(Episode {
            virtual_s: session.ctrl.clock() - virtual_start,
            reward_first: mean(&scores[..tenth]),
            reward_last: mean(&measured[measured.len() / 2..]),
        });
        checks += 1;
        match session.flush() {
            Ok(rest) if rest.iter().all(finite) => {}
            Ok(_) => failures.push("check flushed losses finite: failed".into()),
            Err(e) => failures.push(format!("check flushed losses finite: {e}")),
        }
        // Read when the first episode ends: a fixed amount of work however
        // many episodes the host fits into the run. The mark keeps
        // creeping up for several episodes (freed thread arenas are
        // reused, not returned), so reading it at exit would charge a
        // faster host with more memory.
        if episodes.len() == 1 {
            peak_rss = peak_rss_mib();
        }
        if !failures.is_empty() || run_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let session = last_session.expect("at least one episode started");

    // Output checks; each counts as one attempt.
    if let (true, Some(first)) = (failures.is_empty(), episodes.first()) {
        checks += 2;
        // Every episode trains the same models on the same prompts: the
        // reward and the virtual clock must repeat bit for bit.
        let same =
            |f: fn(&Episode) -> f64| episodes.iter().all(|e| f(e).to_bits() == f(first).to_bits());
        if !same(|e| e.reward_last) || !same(|e| e.virtual_s) {
            let seen: Vec<(f64, f64)> =
                episodes.iter().map(|e| (e.reward_last, e.virtual_s)).collect();
            failures.push(format!("check episodes repeat bit for bit: {seen:?}"));
        }
        match checkpoint_round_trip(&session, &store, step_id + 1) {
            Ok(true) => {}
            Ok(false) => failures.push("check checkpoint round trip: states differ".into()),
            Err(e) => failures.push(format!("check checkpoint round trip: {e}")),
        }
        if workload.learns {
            checks += 1;
            if first.reward_last <= first.reward_first + 0.1 {
                failures.push(format!(
                    "check reward rises over the window: mean score {:.4} -> {:.4}, needs +0.1",
                    first.reward_first, first.reward_last
                ));
            }
        }
    }

    let tokens = (workload.tokens_per_iter(&session.cfg) * window) as f64;
    let first = episodes.first();
    let summary = summarize(&iter_ms);
    let metrics = vec![
        ("host_tokens_per_s", median(&block_tokens_per_s)),
        ("host_iter_ms_p50", summary.p50),
        ("virtual_tokens_per_s", first.map_or(f64::NAN, |e| tokens / e.virtual_s)),
        ("setup_s", median(&setups_s)),
        ("peak_rss_mib", peak_rss),
        ("final_reward_mean", first.map_or(f64::NAN, |e| e.reward_last)),
    ];
    // A host metric whose samples within this run are spread wider than
    // its bound cannot resolve a change of that size.
    let unresolved = [
        ("host_tokens_per_s", &block_tokens_per_s),
        ("host_iter_ms_p50", &block_p50_ms),
        ("setup_s", &setups_s),
    ]
    .into_iter()
    .map(|(name, samples)| (name, quartile_spread(samples)))
    .filter(|(name, spread)| spec::find(name).is_some_and(|m| *spread > m.bound))
    .collect();
    Ok(E2eReport {
        metrics,
        attempted: iter_ms.len() as u64 + checks,
        failures,
        iter_ms: summary,
        raw_iter_ms_p50: median(&raw_iter_ms),
        host_speed_p50: median(&speeds),
        host_jitter_share: (summary.p90 - summary.p50) / summary.p50,
        unresolved,
        setups_s,
        episodes: episodes.len(),
        block_p50_ms,
        block_tokens_per_s,
    })
}
