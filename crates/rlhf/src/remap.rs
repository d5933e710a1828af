//! The recoverable outer loop: checkpoint → detect → re-place → restore
//! → continue, on one live controller.
//!
//! A lost rank takes its worker group with it: the dead rank's
//! communicators are poisoned, surviving peers return `PeerFailed`, and
//! no call on that group can ever succeed again. [`remap_recoverable`]
//! keeps the controller alive and rebuilds the groups under it:
//!
//! 1. **Detect** — a window fails with a rank-loss/timeout error and the
//!    controller's [`LostRank`](hf_core::LostRank) registry names the
//!    devices that died. A failed window is the loop's only trigger.
//! 2. **Re-place** — a [`RemapPlanner`] decides the next placement.
//!    [`FixedPlacement`] returns the layout the run started with
//!    (same-layout recovery: the failed device comes back);
//!    [`MapperPlanner`] re-runs `Mapper::search` over the surviving
//!    device set (the mapper's caches are world-size independent, so the
//!    re-search is warm-started) and bridges the winning strategy onto
//!    the running system's toy model.
//! 3. **Reshard live** — the old worker groups are despawned *on the
//!    live controller* ([`Controller::despawn_group`]), the new groups
//!    spawned, and the last committed checkpoint is broadcast into the
//!    new layout through [`restore_system_checkpoint`] — which verifies
//!    every group before it sends any and is layout-agnostic by
//!    construction. A rank lost before step 0 ever
//!    committed has nothing to restore: worker construction is
//!    seed-deterministic, so the respawned system *is* the initial state
//!    and step 0 is saved again.
//! 4. **Continue** — the driver re-enters at the last committed step.
//!    No process restart, no full replay.
//!
//! The registry records a loss only where it originates — an injected
//! kill or a worker panic — never for the `CollectiveAbort` / `PeerFailed`
//! its peers raise, so the survivors are `RemapConfig::allowed` minus
//! exactly the dead. `Mapper::resize_world` re-derives the allocation
//! granularity as `gcd(machine, world)`, which makes non-power-of-two
//! survivor counts enumerable, and the search returns the exhaustive
//! reference's layout (`planner_layouts_match_the_exhaustive_reference_search`,
//! worlds 1..=12). Its wall time is recorded (`RemapEvent`, the
//! `remap.search_s` digest) and never fed into the virtual clock; the
//! other `remap.*` metrics — `reshard_s` and `blackout_s` digests,
//! `reshard_bytes` and `events` counters, a `world` gauge — are virtual,
//! so `hf-bench remap`'s `BENCH_remap.json` reruns byte-exact. Work
//! since the last COMMIT marker's timestamp is lost work; the window
//! between `save_shard` starting and the fault is checkpoint overhead
//! (`RecoveryStats`).
//!
//! Steps 2–3 run inside the same fallible slice as training, so a rank
//! lost *while recovering* (during the restore broadcast, say) is one
//! more failure against [`MAX_RECOVERIES`], not the end of the run; every
//! failure is booked as recovered, with its own detection-to-resumed
//! time, when the next restore completes. An application error (bad
//! data, a PPO run without a critic) propagates at once: replaying it
//! would fail identically. A recovered run ends on the fault-free run's
//! bits, a second kill inside the restore broadcast included
//! (`tests/fault_recovery.rs`); `hf-bench fault_recovery` sweeps the
//! checkpoint interval and reports overhead, virtual MTTR and
//! rolled-back work.
//!
//! **Determinism contract.** Prompt batches are seeded by iteration
//! number and the checkpoint restores parameters, Adam moments, step
//! counts, and the generation RNG round bit-for-bit, so a run that
//! loses a rank commits the same final bits as a fault-free run in the
//! same layout (`fault_recovery`, the fault matrix), and a re-mapped
//! run the same bits as a fresh run launched in the re-mapped layout
//! from the same committed checkpoint (the audit sweep's mid-run-remap
//! dimension and `fault_remap`). The pipelined driver keeps the
//! contract by running one fresh [`PipelinedPpo`] per checkpoint window
//! and flushing it at the boundary: every committed step has pinned
//! staleness, hence pinned bits.

use hf_core::{Controller, CoreError, Result, WorkerGroup, WorkerLayout};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper};
use hf_modelspec::{ModelConfig, PerfModel, RlhfWorkload};
use hf_nn::LmConfig;
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, RecoveryStats};
use hf_simcluster::{ClusterSpec, DeviceId, ResourcePool};

use crate::algo::{
    iteration_prompts, restore_checkpoint, Algorithm, IterStats, Placement, RlhfConfig, RlhfSystem,
    SystemCheckpoint,
};
use crate::pipeline::{PipelineConfig, PipelinedPpo};

/// How windows between checkpoints are driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RemapDriver {
    /// The synchronous barrier driver (one [`Algorithm::iteration`] per
    /// step).
    Barrier,
    /// The pipelined PPO driver: one fresh [`PipelinedPpo`] per
    /// checkpoint window, flushed at the boundary so committed steps
    /// have pinned staleness (the determinism contract). PPO only, at
    /// staleness 0 or 1 with `gen_chunks >= 1`; [`remap_recoverable`]
    /// refuses anything else with `Config`.
    Pipelined(PipelineConfig),
}

/// Configuration of the recoverable outer loop.
#[derive(Debug, Clone)]
pub struct RemapConfig {
    /// The algorithm to run each iteration.
    pub algorithm: Algorithm,
    /// Iterations to complete.
    pub iterations: usize,
    /// Commit a checkpoint every `n` completed iterations (≥ 1; step 0
    /// is always checkpointed before training starts).
    pub checkpoint_every: usize,
    /// Prompts per iteration.
    pub batch: usize,
    /// Base seed; iteration `i` draws prompts with seed
    /// `data_seed + i`, so replayed iterations see identical data.
    pub data_seed: u64,
    /// The window driver.
    pub driver: RemapDriver,
    /// The device universe this run may occupy (`None` = the whole
    /// cluster). Lost devices are removed from it as they die.
    pub allowed: Option<Vec<DeviceId>>,
}

impl Default for RemapConfig {
    fn default() -> Self {
        RemapConfig {
            algorithm: Algorithm::Ppo,
            iterations: 4,
            checkpoint_every: 1,
            batch: 8,
            data_seed: 0,
            driver: RemapDriver::Barrier,
            allowed: None,
        }
    }
}

/// What a planner decided for one re-map.
#[derive(Debug, Clone)]
pub struct PlannedPlacement {
    /// The new placement.
    pub placement: Placement,
    /// Wall-clock seconds the placement decision took. Recorded in
    /// stats and telemetry, but *never* fed into virtual time — the
    /// decision must not perturb simulated timing (determinism).
    pub(crate) search_wall_s: f64,
}

/// Decides the placement a run continues in after a failure.
pub trait RemapPlanner {
    /// Plans a placement. `survivors` are the healthy devices the run
    /// may occupy; `rlhf` describes the running system; `algorithm`
    /// determines which roles (critic, cost model) the placement must
    /// carry.
    fn plan(
        &mut self,
        survivors: &[DeviceId],
        rlhf: &RlhfConfig,
        algorithm: Algorithm,
    ) -> Result<PlannedPlacement>;
}

/// Same-layout recovery: every re-place returns this placement, lost
/// devices included — the failed rank's process is restarted where it
/// ran (despawning a group clears its dead-rank markers).
pub struct FixedPlacement(pub Placement);

impl RemapPlanner for FixedPlacement {
    fn plan(&mut self, _: &[DeviceId], _: &RlhfConfig, _: Algorithm) -> Result<PlannedPlacement> {
        Ok(PlannedPlacement { placement: self.0.clone(), search_wall_s: 0.0 })
    }
}

/// Bridges a paper-scale strategy onto the toy system: the largest
/// `(p, t, d)` with `p | layers`, `t | ffn`, and `p·t·d ≤ world`,
/// preferring full device usage and then closeness to `found`.
/// Deterministic in its inputs.
pub fn bridge_spec(found: ParallelSpec, lm: &LmConfig, world: usize) -> ParallelSpec {
    let mut best = (1usize, 1usize, 1usize);
    // (usage, p-distance, t-distance) — maximize usage, then minimize
    // distance to the searched strategy.
    let mut best_key = (0usize, usize::MAX, usize::MAX);
    for p in (1..=world.min(lm.layers)).filter(|p| lm.layers.is_multiple_of(*p)) {
        for t in (1..=world / p).filter(|t| lm.ffn.is_multiple_of(*t)) {
            let d = world / (p * t);
            let key = (p * t * d, found.p.abs_diff(p), found.t.abs_diff(t));
            if key.0 > best_key.0
                || (key.0 == best_key.0 && (key.1, key.2) < (best_key.1, best_key.2))
            {
                best = (p, t, d);
                best_key = key;
            }
        }
    }
    ParallelSpec::new(best.0, best.1, best.2)
}

/// The default planner: re-runs the paper's Algorithm 1 over the
/// surviving world and bridges the winning actor strategy onto the
/// running system. The [`Mapper`]'s strategy/bound caches key on
/// `(role, gpus, pressure)` — world-size independent — so every
/// re-search after the first is warm-started.
pub struct MapperPlanner {
    mapper: Mapper,
}

impl MapperPlanner {
    /// A planner searching a toy-scale PPO dataflow over an A100 cluster
    /// of `total_gpus` — feasible down to a single surviving GPU (the
    /// paper's 7B models need at least 4 GPUs of memory for their four
    /// roles).
    pub fn toy(total_gpus: usize) -> Self {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(total_gpus));
        let df = DataflowSpec::uniform(AlgoKind::Ppo, ModelConfig::tiny(), RlhfWorkload::paper());
        MapperPlanner { mapper: Mapper::new(perf, df, total_gpus) }
    }
}

impl RemapPlanner for MapperPlanner {
    fn plan(
        &mut self,
        survivors: &[DeviceId],
        rlhf: &RlhfConfig,
        algorithm: Algorithm,
    ) -> Result<PlannedPlacement> {
        if survivors.is_empty() {
            return Err(CoreError::Config("no surviving devices to re-map onto".into()));
        }
        self.mapper.resize_world(survivors.len());
        let t0 = std::time::Instant::now();
        // The search breaks cost ties by enumeration order, so the
        // chosen layout — and with it every post-remap bit — is
        // reproducible across runs.
        let found = self.mapper.search().ok_or_else(|| {
            CoreError::Config(format!("no feasible mapping for {} survivors", survivors.len()))
        })?;
        let search_wall_s = t0.elapsed().as_secs_f64();
        let actor = found
            .strategies
            .get(&hf_mapping::Role::Actor)
            .ok_or_else(|| CoreError::Invariant("mapping carries no actor strategy".into()))?;
        let spec = bridge_spec(actor.spec, &rlhf.lm, survivors.len());
        // Generation grouping (1,1) divides every training layout; the
        // searched gen choice is paper-scale and does not transfer.
        let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::new(survivors[..spec.world()].to_vec());
        let placement = Placement::colocated(
            pool,
            WorkerLayout::with_gen(gen),
            matches!(algorithm, Algorithm::Ppo | Algorithm::SafeRlhf),
            matches!(algorithm, Algorithm::SafeRlhf),
        );
        Ok(PlannedPlacement { placement, search_wall_s })
    }
}

/// One completed re-place.
#[derive(Debug, Clone)]
pub struct RemapEvent {
    /// The step training resumed from (the last committed checkpoint; 0
    /// when the run was rebuilt from seeds before anything committed).
    pub resumed_step: u64,
    /// Devices in use before the re-place.
    pub world_before: usize,
    /// Devices in use after the re-place.
    pub world_after: usize,
    /// The actor layout after the re-place.
    pub spec: ParallelSpec,
    /// Virtual seconds broadcasting the checkpoint into the new layout.
    pub reshard_s: f64,
    /// Bytes the restore broadcast dispatched (telemetry on or off).
    pub reshard_bytes: u64,
    /// Virtual seconds from failure detection to training resumed — the
    /// blackout the re-place cost.
    pub blackout_s: f64,
}

/// What a recoverable run did.
#[derive(Debug, Default)]
pub struct RemapReport {
    /// Statistics of every committed iteration (a rolled-back window is
    /// replayed and its replayed stats kept).
    pub history: Vec<IterStats>,
    /// Failure / recovery bookkeeping (also exported as `resilience.*`
    /// telemetry on the controller).
    pub stats: RecoveryStats,
    /// One line per re-place: why, onto what, where training resumed.
    pub log: Vec<String>,
    /// The controller's virtual clock when the run finished.
    pub virtual_time_s: f64,
    /// Every completed re-place, in order.
    pub remaps: Vec<RemapEvent>,
    /// The device count the run finished on.
    pub final_world: usize,
}

/// Saves a consistent sharded checkpoint of the system's trainable
/// models (actor, plus critic when present) and commits it. The COMMIT
/// marker is stamped with `ctrl`'s virtual clock at the instant the
/// marker lands (after the save collectives), so lost-work accounting
/// can read the true commit time back instead of inferring it.
pub fn save_system_checkpoint(
    store: &CheckpointStore,
    sys: &RlhfSystem,
    ctrl: &Controller,
    step: u64,
) -> Result<()> {
    store.save_group(&sys.actor, step)?;
    let mut groups = vec!["actor"];
    if let Some(c) = &sys.critic {
        store.save_group(c, step)?;
        groups.push("critic");
    }
    store.commit_at(step, &groups, ctrl.clock())
}

/// Restores the system's trainable models from the committed checkpoint
/// at `step`, loading and verifying every group's state before
/// [`restore_checkpoint`] sends any. Returns the bytes it dispatched.
pub fn restore_system_checkpoint(
    store: &CheckpointStore,
    sys: &RlhfSystem,
    step: u64,
) -> Result<u64> {
    let load = |g: &WorkerGroup| Ok(store.load_group(step, g.name())?.to_load_input());
    let ckpt = SystemCheckpoint {
        actor: load(&sys.actor)?,
        critic: sys.critic.as_ref().map(load).transpose()?,
    };
    restore_checkpoint(sys, &ckpt)
}

/// Tears the system's worker groups down on the live controller.
fn despawn_system(ctrl: &Controller, sys: RlhfSystem) {
    let RlhfSystem { actor, critic, reference, reward, cost, .. } = sys;
    for group in [Some(actor), critic, Some(reference), Some(reward), cost].into_iter().flatten() {
        ctrl.despawn_group(group);
    }
}

/// How many failures one [`remap_recoverable`] run recovers from; the
/// next one ends it with `CoreError::Worker` ("gave up after 4
/// recoveries: …").
pub const MAX_RECOVERIES: u32 = 4;

/// A failure whose recovery has not completed yet.
struct Fault {
    /// Controller clock when the failure surfaced.
    detected: f64,
    /// Virtual seconds of training work the rollback discards.
    lost: f64,
    reason: String,
}

/// The state of one recoverable run.
struct Run<'a> {
    ctrl: &'a Controller,
    store: &'a CheckpointStore,
    cfg: &'a RemapConfig,
    rlhf: RlhfConfig,
    planner: &'a mut dyn RemapPlanner,
    /// The live system; `None` only between a re-place that failed after
    /// despawning and its retry.
    sys: Option<RlhfSystem>,
    world: usize,
    /// The last step this run committed — where the next window starts
    /// and what a recovery restores. `None` until step 0 commits.
    committed: Option<u64>,
    /// Failures awaiting a completed re-place + restore.
    unrecovered: Vec<Fault>,
    /// Controller clock since which uncommitted training work has
    /// accumulated: the last COMMIT marker, or the last resume.
    t_ckpt: f64,
    /// Clock at which the in-flight checkpoint write began, if one is in
    /// flight. A fault inside the write loses *checkpoint overhead*, not
    /// training work — the accounting keeps the two apart.
    save_start: Option<f64>,
    report: RemapReport,
}

impl Run<'_> {
    fn sys(&self) -> &RlhfSystem {
        self.sys.as_ref().expect("a failed re-place is retried before the system is used")
    }

    /// The healthy devices this run may occupy.
    fn survivors(&self) -> Vec<DeviceId> {
        let lost = self.ctrl.lost_devices();
        let universe: Vec<DeviceId> = match &self.cfg.allowed {
            Some(a) => a.clone(),
            None => (0..self.ctrl.cluster().total_gpus()).map(DeviceId).collect(),
        };
        universe.into_iter().filter(|d| !lost.contains(d)).collect()
    }

    /// One re-place: despawn → plan → respawn → restore `step` (or
    /// nothing, when nothing has committed) → account.
    fn replace(&mut self, reason: String, step: Option<u64>) -> Result<()> {
        let (ctrl, tel) = (self.ctrl, self.ctrl.telemetry());
        let t_detect = ctrl.clock();
        let world_before = self.world;
        if let Some(old) = self.sys.take() {
            despawn_system(ctrl, old);
        }
        let plan = self.planner.plan(&self.survivors(), &self.rlhf, self.cfg.algorithm)?;
        let sys = self.sys.insert(RlhfSystem::build(ctrl, &plan.placement, self.rlhf.clone())?);
        let spec = plan.placement.actor.layout.spec;
        self.world = plan.placement.actor.pool.len();
        let t_reshard = ctrl.clock();
        let reshard_bytes = match step {
            Some(step) => restore_system_checkpoint(self.store, sys, step)?,
            None => 0,
        };
        let reshard_s = ctrl.clock() - t_reshard;
        let blackout_s = ctrl.clock() - t_detect;
        tel.observe("remap.search_s", plan.search_wall_s);
        tel.observe("remap.reshard_s", reshard_s);
        tel.observe("remap.blackout_s", blackout_s);
        tel.add_counter("remap.reshard_bytes", reshard_bytes);
        tel.add_counter("remap.events", 1);
        tel.set_gauge("remap.world", self.world as f64);
        let resumed =
            step.map_or("rebuilt from seeds".to_string(), |s| format!("resumed step {s}"));
        self.report.log.push(format!(
            "remap ({reason}): {world_before} -> {} devices, layout {spec:?}, {resumed}, \
             blackout {:.3} ms ({:.3} ms reshard)",
            self.world,
            blackout_s * 1e3,
            reshard_s * 1e3
        ));
        self.report.remaps.push(RemapEvent {
            resumed_step: step.unwrap_or(0),
            world_before,
            world_after: self.world,
            spec,
            reshard_s,
            reshard_bytes,
            blackout_s,
        });
        Ok(())
    }

    /// Drives iterations `start..end` with the configured driver.
    fn window(&self, start: u64, end: u64) -> Result<Vec<IterStats>> {
        let (sys, ctrl, cfg) = (self.sys(), self.ctrl, self.cfg);
        match cfg.driver {
            RemapDriver::Barrier => (start..end)
                .map(|i| cfg.algorithm.iteration(sys, ctrl, cfg.batch, cfg.data_seed, i))
                .collect(),
            RemapDriver::Pipelined(pcfg) => {
                // Each step advances the actor's sampler round once, from
                // the restored `gen_round` on: the window continues the
                // run's round sequence as the barrier driver does.
                let mut pipe = PipelinedPpo::new(pcfg);
                let mut out = Vec::new();
                for i in start..end {
                    let prompts = iteration_prompts(&sys.cfg, cfg.batch, cfg.data_seed, i);
                    out.extend(pipe.step(sys, ctrl, &prompts)?);
                }
                out.extend(pipe.flush(sys, ctrl)?);
                Ok(out)
            }
        }
    }

    /// One loop turn, the fallible slice: finish any pending recovery,
    /// then either commit the initial step-0 checkpoint or run one window
    /// and commit its boundary. A rank lost anywhere in here — training, the
    /// `save_shard` collective, the restore broadcast — comes back as an
    /// error; nothing it half-did was committed.
    fn turn(&mut self) -> Result<()> {
        if let Some(last) = self.unrecovered.last() {
            self.replace(last.reason.clone(), self.committed)?;
            let resumed = self.ctrl.clock();
            for f in self.unrecovered.drain(..) {
                self.report.stats.record_recovery(resumed - f.detected, f.lost);
                self.ctrl.telemetry().observe("resilience.mttr_s", resumed - f.detected);
            }
            self.t_ckpt = resumed;
        }
        let (end, stats) = match self.committed {
            // Nothing has committed yet: the turn only saves step 0.
            None => (0, Vec::new()),
            // Window end: the next checkpoint boundary, capped by the
            // run length.
            Some(start) => {
                let ce = self.cfg.checkpoint_every as u64;
                let end = ((start / ce + 1) * ce).min(self.cfg.iterations as u64);
                (end, self.window(start, end)?)
            }
        };
        self.save_start = Some(self.ctrl.clock());
        save_system_checkpoint(self.store, self.sys(), self.ctrl, end)?;
        self.save_start = None;
        self.committed = Some(end);
        self.report.history.extend(stats);
        // The committed instant as the marker recorded it — the anchor
        // every later lost-work figure is measured against.
        self.t_ckpt = self.store.commit_time(end).unwrap_or_else(|| self.ctrl.clock());
        Ok(())
    }

    /// Books a failed turn; `Err` when the run cannot go on.
    fn fail(&mut self, e: CoreError) -> Result<()> {
        let stats = &mut self.report.stats;
        stats.record_failure();
        if e.is_application() {
            return Err(e);
        }
        if stats.failures > u64::from(MAX_RECOVERIES) {
            return Err(CoreError::Worker(format!(
                "gave up after {MAX_RECOVERIES} recoveries: {e}"
            )));
        }
        // Split the interval since the last COMMIT marker: work before
        // the interrupted checkpoint write began is discarded training;
        // the write window itself is checkpoint overhead. A fault that
        // interrupts a recovery discards no further training.
        let detected = self.ctrl.clock();
        let (train_end, ckpt_window) = match self.save_start.take() {
            Some(s) => (s, detected - s),
            None => (detected, 0.0),
        };
        stats.record_checkpoint_window(ckpt_window);
        let lost =
            if self.unrecovered.is_empty() { (train_end - self.t_ckpt).max(0.0) } else { 0.0 };
        let reason = match self.committed {
            Some(s) => format!("rank loss after step {s}: {e}"),
            None => format!("rank loss before step 0 committed: {e}"),
        };
        self.unrecovered.push(Fault { detected, lost, reason });
        Ok(())
    }
}

/// Runs `cfg.iterations` iterations on one live controller with
/// checkpoint-based fault recovery, re-placing the system through
/// `planner` whenever a rank dies. See the module docs for the protocol
/// and the determinism contract.
///
/// `initial` places the first epoch; `rlhf` configures every system the
/// run builds (the model is identical across re-places — only the layout
/// moves). Returns an error on application failures (including
/// `checkpoint_every == 0`, a pipelined driver on anything but PPO at
/// staleness 0 or 1 with at least one generation chunk, and a planner
/// with nowhere left to place) and on an exhausted retry budget.
pub fn remap_recoverable(
    ctrl: &Controller,
    store: &CheckpointStore,
    cfg: &RemapConfig,
    initial: &Placement,
    rlhf: RlhfConfig,
    planner: &mut dyn RemapPlanner,
) -> Result<RemapReport> {
    if cfg.checkpoint_every == 0 {
        return Err(CoreError::Config("checkpoint_every must be >= 1".into()));
    }
    if let RemapDriver::Pipelined(p) = cfg.driver {
        if cfg.algorithm != Algorithm::Ppo {
            let msg = format!("the pipelined driver runs PPO, not {:?}", cfg.algorithm);
            return Err(CoreError::Config(msg));
        }
        p.validate()?;
    }
    let mut run = Run {
        ctrl,
        store,
        cfg,
        sys: Some(RlhfSystem::build(ctrl, initial, rlhf.clone())?),
        rlhf,
        planner,
        world: initial.actor.pool.len(),
        committed: None,
        unrecovered: Vec::new(),
        t_ckpt: ctrl.clock(),
        save_start: None,
        report: RemapReport::default(),
    };
    while run.committed != Some(cfg.iterations as u64) {
        if let Err(e) = run.turn() {
            run.fail(e)?;
        }
    }
    let mut report = run.report;
    report.stats.export(ctrl.telemetry());
    report.virtual_time_s = ctrl.clock();
    report.final_world = run.world;
    Ok(report)
}
