//! One-step-off-policy pipelined PPO: the stage DAG under an
//! overlapped schedule (generation/training overlap, §6 discussion of
//! async RLHF dataflow).
//!
//! The synchronous drivers in [`crate::algo`] are barrier sequences:
//! generation → preparation → training, each stage waiting for the
//! last. [`PipelinedPpo`] runs the same stage DAG one step off-policy:
//!
//! 1. **Generation streams into preparation.** The prompt batch is
//!    split into `gen_chunks` requests; each chunk's critic/reference/
//!    reward forward passes are issued on that chunk's *future*
//!    (`WorkerGroup::invoke_on`) and start the moment its sequences
//!    finish, instead of waiting for the slowest chunk or for the
//!    controller.
//! 2. **Training runs one iteration behind.** The batch assembled at
//!    step *i* is trained while step *i+1*'s generation executes; on
//!    each device mailbox the micro-batch updates interleave with the
//!    next round's generation, so critic updates overlap generation and
//!    the actor's update tail overlaps the next dispatch window.
//! 3. **The HybridEngine transition overlaps the train tail.** The
//!    train→generation all-gather of the first chunk enters
//!    `HybridEngineRank::to_generation_traced` with `overlap_from =
//!    Some(dispatch_time)`, which charges only the portion of the
//!    gather not already hidden behind the actor's queue wait.
//!
//! Determinism contract: every dispatch and wait follows a *static*
//! schedule — wall-clock readiness ([`hf_core::DpFuture::try_ready`])
//! only reorders controller-local math (per-chunk reward shaping + GAE
//! ahead of the whiten barrier), never dispatches or clock advances.
//! Hence pinned staleness ⇒ pinned bits: `staleness = 0` is
//! bit-identical to [`crate::algo::ppo_iteration`], and `staleness = 1`
//! is bit-identical across executions (the tier-1 determinism tests pin
//! both).

use hf_core::{Controller, CoreError, DataProto, DpFuture, Result};

use crate::algo::{IterStats, RlhfSystem};
use crate::stage::{
    collect_prep, dispatch_train, gae_rows, insert_gae, issue_prep, wait_train, GaeFlavor,
    InFlight, PpoStages, PrepSink, StageAlgo,
};
use crate::workers::{GEN_ROUND_META, PIPELINE_META};

/// Pipelined-execution knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// How many iterations behind generation training runs: `0` trains
    /// the freshly assembled batch in-step (bit-identical to the
    /// synchronous driver), `1` is one-step-off-policy execution.
    pub staleness: u32,
    /// How many generation requests the prompt batch is split into.
    /// Each chunk must still satisfy the actor protocol's divisibility
    /// (rows divisible by the DP/micro-DP fan-out).
    pub gen_chunks: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { staleness: 1, gen_chunks: 2 }
    }
}

/// The pipelined PPO driver. Owns the one-step-off-policy state: the
/// batch awaiting training and the update futures awaiting collection.
pub struct PipelinedPpo {
    cfg: PipelineConfig,
    /// Generation rounds issued (stamped into chunk meta so sampler
    /// seeds match the synchronous driver's per-call counter).
    round: u64,
    /// Batch assembled last step, awaiting its training dispatch.
    pending: Option<DataProto>,
    /// Training dispatched last step, awaiting collection — held across
    /// the next generation dispatch so the controller never blocks on
    /// the actor's update tail before re-filling its mailbox.
    held: Option<InFlight>,
    /// Absolute controller-timeline position up to which stage
    /// intervals were already folded into the overlap bookkeeping
    /// ([`Controller::timeline_from`]).
    cursor: usize,
    started: bool,
    run_start: f64,
    gen_iv: Vec<(f64, f64)>,
    prep_iv: Vec<(f64, f64)>,
    train_iv: Vec<(f64, f64)>,
    overlap_emitted_us: u64,
}

/// Sorts intervals and merges overlapping/adjacent ones.
fn merge_intervals(iv: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut v: Vec<(f64, f64)> = iv.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

impl PipelinedPpo {
    /// Creates the driver. `staleness` must be 0 or 1.
    ///
    /// # Panics
    ///
    /// Panics if `staleness > 1` or `gen_chunks == 0`.
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(cfg.staleness <= 1, "bounded staleness: only 0 or 1 supported");
        assert!(cfg.gen_chunks > 0, "gen_chunks must be positive");
        PipelinedPpo {
            cfg,
            round: 0,
            pending: None,
            held: None,
            cursor: 0,
            started: false,
            run_start: 0.0,
            gen_iv: Vec::new(),
            prep_iv: Vec::new(),
            train_iv: Vec::new(),
            overlap_emitted_us: 0,
        }
    }

    /// Creates the driver with its round counter pre-advanced to
    /// `round`, so the first step stamps generation round `round + 1`.
    /// Drivers stamp *absolute* rounds into each batch (the actor takes
    /// its sampler round from the stamp); a caller running one driver
    /// per checkpoint window — the elastic re-mapping loop — uses this
    /// to continue the run's round sequence across windows instead of
    /// restarting every window at round 1.
    pub(crate) fn with_round(cfg: PipelineConfig, round: u64) -> Self {
        let mut driver = Self::new(cfg);
        driver.round = round;
        driver
    }

    /// One pipelined step. Dispatches this round's generation, overlaps
    /// it with the previous batch's training, streams finished chunks
    /// into preparation, and returns the stats of whichever batch's
    /// training *completed* during this step: `None` while the pipeline
    /// is still filling (the first `staleness + 1` calls at
    /// `staleness = 1`), `Some` afterwards. Call [`PipelinedPpo::flush`]
    /// after the last step to drain the in-flight work.
    pub fn step(
        &mut self,
        sys: &RlhfSystem,
        ctrl: &Controller,
        prompts: &DataProto,
    ) -> Result<Option<IterStats>> {
        self.step_captured(sys, ctrl, prompts).map(|o| o.map(|(stats, _)| stats))
    }

    /// [`PipelinedPpo::step`] that also returns the experience batch the
    /// emitted stats describe (determinism tests fingerprint it).
    pub fn step_captured(
        &mut self,
        sys: &RlhfSystem,
        ctrl: &Controller,
        prompts: &DataProto,
    ) -> Result<Option<(IterStats, DataProto)>> {
        PpoStages.require(sys)?;
        if sys.cfg.recompute_logp {
            return Err(CoreError::Config("pipelined PPO does not support recompute_logp".into()));
        }
        if !self.started {
            self.started = true;
            self.run_start = ctrl.clock();
            // Calls before the first step are not this run's.
            self.cursor = ctrl.timeline_from(usize::MAX).1;
        }
        let t_start = ctrl.clock();
        self.round += 1;

        // Phase 1: dispatch this round's generation chunks.
        let chunks = self.split_prompts(prompts);
        let mut gen_futs = Vec::with_capacity(chunks.len());
        for c in &chunks {
            gen_futs.push(sys.actor.invoke("generate_sequences", c)?);
        }

        // Phase 2: one-step-off-policy — dispatch training for the
        // batch assembled last step. Its micro-batches queue behind the
        // generation calls just issued, so critic updates run
        // concurrently with generation and the actor's update tail is
        // what the *next* round's transition overlaps with.
        let dispatched = match self.pending.take() {
            Some(batch) => Some(dispatch_train(sys, batch)?),
            None => None,
        };

        // Phase 3: stream chunks into preparation — each chunk's forward
        // passes are issued on that chunk's future (behind the training
        // calls above, so every mailbox keeps its order) and start on
        // their devices the moment the chunk lands; the controller waits
        // each chunk in order (static schedule) for its own copy.
        struct ChunkState {
            batch: DataProto,
            futs: Option<Vec<(DpFuture, PrepSink)>>,
            /// Un-whitened `(advantages, returns)`, once `futs` landed.
            gae: (Vec<f32>, Vec<f32>),
        }
        let calls = PpoStages.prep_calls();
        let prep_futs: Vec<_> =
            gen_futs.iter().map(|fut| issue_prep(sys, &calls, fut)).collect::<Result<_>>()?;
        let mut states: Vec<ChunkState> = Vec::with_capacity(gen_futs.len());
        for (fut, futs) in gen_futs.into_iter().zip(prep_futs) {
            states.push(ChunkState {
                batch: fut.wait()?,
                futs: Some(futs),
                gae: Default::default(),
            });
        }

        // Phase 4: collect preparation outputs. `try_ready` lets the
        // controller run reward shaping + GAE for whichever chunk lands
        // first while slower chunks are still in flight. Wait *order*
        // among already-dispatched futures affects no clocks or bits
        // (the controller clock is a max over finishes), so this
        // opportunism is determinism-free.
        let total = states.len();
        let mut done = 0;
        while done < total {
            let g = states
                .iter()
                .position(|s| {
                    s.futs.as_ref().is_some_and(|fs| fs.iter().all(|(f, _)| f.try_ready()))
                })
                .or_else(|| states.iter().position(|s| s.futs.is_some()))
                .expect("an unprocessed chunk remains");
            let futs = states[g].futs.take().expect("position() only returns pending chunks");
            collect_prep(&mut states[g].batch, futs)?;
            states[g].gae = gae_rows(&states[g].batch, &sys.cfg, GaeFlavor::Ppo)?;
            done += 1;
        }

        // Phase 5: assemble the full batch; whitening is the one true
        // barrier (it needs every advantage).
        let parts: Vec<DataProto> = states.iter().map(|s| s.batch.clone()).collect();
        let mut batch = DataProto::concat(&parts)?;
        let rw = sys.cfg.response_len;
        let mut advantages = Vec::with_capacity(batch.rows() * rw);
        let mut returns = Vec::with_capacity(batch.rows() * rw);
        for s in &states {
            advantages.extend_from_slice(&s.gae.0);
            returns.extend_from_slice(&s.gae.1);
        }
        insert_gae(&mut batch, advantages, returns, rw);
        for key in [PIPELINE_META, GEN_ROUND_META] {
            batch.meta.remove(key);
        }
        batch.set_row_offset(None);

        // Phase 6: resolve whichever training completes this step.
        let result = if self.cfg.staleness == 0 {
            debug_assert!(dispatched.is_none(), "staleness 0 never defers training");
            let inflight = dispatch_train(sys, batch)?;
            Some(wait_train(sys, inflight)?)
        } else {
            let prev = std::mem::replace(&mut self.held, dispatched);
            self.pending = Some(batch);
            match prev {
                Some(h) => Some(wait_train(sys, h)?),
                None => None,
            }
        };

        // Phase 7: measured overlap, telemetry, stats finalization.
        Ok(self.finalize(ctrl, t_start, result))
    }

    /// Drains the pipeline: collects the held update futures, then
    /// trains the still-pending batch. Returns the remaining stats in
    /// completion order (0–2 entries depending on staleness and how
    /// many steps ran).
    pub fn flush(&mut self, sys: &RlhfSystem, ctrl: &Controller) -> Result<Vec<IterStats>> {
        let mut out = Vec::new();
        if let Some(h) = self.held.take() {
            let t0 = ctrl.clock();
            let r = wait_train(sys, h)?;
            if let Some((stats, _)) = self.finalize(ctrl, t0, Some(r)) {
                out.push(stats);
            }
        }
        if let Some(b) = self.pending.take() {
            let t0 = ctrl.clock();
            let inflight = dispatch_train(sys, b)?;
            let r = wait_train(sys, inflight)?;
            if let Some((stats, _)) = self.finalize(ctrl, t0, Some(r)) {
                out.push(stats);
            }
        }
        Ok(out)
    }

    /// Splits the prompt batch into generation chunks, stamping each
    /// with its global row offset (so sampler seeds are
    /// chunking-invariant), the pinned generation round, and the
    /// pipelined-mode flag.
    fn split_prompts(&self, prompts: &DataProto) -> Vec<DataProto> {
        let n = self.cfg.gen_chunks.min(prompts.rows().max(1));
        let mut chunks = prompts.chunk(n);
        let mut row0 = 0usize;
        for c in chunks.iter_mut() {
            c.set_row_offset(Some(row0));
            c.meta.insert(GEN_ROUND_META.into(), self.round.to_string());
            c.meta.insert(PIPELINE_META.into(), "1".into());
            row0 += c.rows();
        }
        chunks
    }

    /// Folds the step's timeline entries into the overlap bookkeeping,
    /// emits the pipeline telemetry, and stamps the emitted stats with
    /// the step's wall time, staleness, and measured overlap fraction.
    fn finalize(
        &mut self,
        ctrl: &Controller,
        t_start: f64,
        result: Option<(IterStats, DataProto)>,
    ) -> Option<(IterStats, DataProto)> {
        self.scan_timeline(ctrl);
        let t_end = ctrl.clock();
        let (overlap_s, frac) = self.cumulative_overlap(t_end);
        let tel = ctrl.telemetry();
        tel.set_gauge("pipeline.staleness", self.cfg.staleness as f64);
        tel.set_gauge("pipeline.overlap_fraction", frac);
        tel.observe("pipeline.step.seconds", t_end - t_start);
        let us = (overlap_s * 1e6).round() as u64;
        tel.add_counter("pipeline.overlap_measured_us", us.saturating_sub(self.overlap_emitted_us));
        self.overlap_emitted_us = us;
        let id = tel.next_span_id();
        tel.span_causal(
            hf_telemetry::CONTROLLER_TRACK,
            "pipeline.step",
            hf_telemetry::SpanKind::Phase,
            t_start,
            t_end,
            id,
            &[],
            &[
                ("round", self.round.to_string()),
                ("staleness", self.cfg.staleness.to_string()),
                ("overlap_fraction", format!("{frac:.6}")),
            ],
        );
        result.map(|(mut stats, batch)| {
            stats.virtual_seconds = t_end - t_start;
            stats.staleness = self.cfg.staleness;
            stats.overlap_fraction = frac;
            (stats, batch)
        })
    }

    /// Classifies new controller-timeline entries into stage intervals.
    fn scan_timeline(&mut self, ctrl: &Controller) {
        let (entries, end) = ctrl.timeline_from(self.cursor);
        let prep = PpoStages.prep_calls();
        for e in &entries {
            let iv = (e.started, e.completed);
            match e.method.as_str() {
                "generate_sequences" => self.gen_iv.push(iv),
                "update_critic" | "update_actor" => self.train_iv.push(iv),
                m if prep.iter().any(|c| c.role.method() == m) => self.prep_iv.push(iv),
                _ => {}
            }
        }
        self.cursor = end;
    }

    /// Virtual time during which at least two stage classes (generation
    /// / preparation / training) had work in flight, over the pipelined
    /// run so far, as `(seconds, fraction of run wall)`. Intervals come
    /// from awaited start→completion spans (a call parked on its future
    /// is not in flight), so the measure is independent of wait order.
    fn cumulative_overlap(&self, now: f64) -> (f64, f64) {
        let classes = [
            merge_intervals(&self.gen_iv),
            merge_intervals(&self.prep_iv),
            merge_intervals(&self.train_iv),
        ];
        let mut edges: Vec<(f64, i32)> =
            Vec::with_capacity(2 * classes.iter().map(Vec::len).sum::<usize>());
        for class in &classes {
            for &(a, b) in class {
                edges.push((a, 1));
                edges.push((b, -1));
            }
        }
        // Starts before ends at equal instants (touching intervals have
        // zero overlap measure either way; this just keeps depth sane).
        edges.sort_by(|x, y| x.0.total_cmp(&y.0).then(y.1.cmp(&x.1)));
        let mut depth = 0i32;
        let mut covered = 0.0;
        let mut last = self.run_start;
        for (t, d) in edges {
            if depth >= 2 {
                covered += t - last;
            }
            depth += d;
            last = t;
        }
        let wall = now - self.run_start;
        let frac = if wall > 0.0 { covered / wall } else { 0.0 };
        (covered, frac)
    }
}
