//! The continuous-batching scheduler and its driver, [`GenConfig::generate`].
//!
//! Scheduling is iteration-level (Orca/vLLM style): every engine step
//! feeds **one token per active sequence** through
//! [`TinyLm::decode_step_batch_reading`], so prefill and decode mix
//! freely in one batch (a lane fed a token it will not sample after reads
//! no logits) and a finishing sequence's slot is refilled from the
//! waiting queue at the very next step instead of idling until the
//! batch drains. Admission is strict FCFS; when the paged cache runs
//! out of blocks mid-decode the scheduler preempts by *recompute* — the
//! youngest running sequence releases its blocks and re-prefills later
//! (its sampler RNG survives, so the preemption is invisible in the
//! output).

use std::collections::{BTreeMap, VecDeque};

use hf_nn::{greedy_token, sample_softmax, token_log_prob, DecodeState, TinyLm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::block::BlockManager;

/// Engine-level configuration (per engine, not per request); its
/// [`GenConfig::begin`] and [`GenConfig::generate`] run the engine on a
/// borrowed model.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Snapshot slots per cache block.
    pub block_tokens: usize,
    /// Total paged-cache budget in bytes; the block pool is sized as
    /// `budget / (block_tokens × snapshot_bytes)`.
    pub cache_budget_bytes: usize,
    /// Maximum concurrently running sequences per step.
    pub max_batch: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { block_tokens: 16, cache_budget_bytes: 1 << 20, max_batch: 64 }
    }
}

/// One generation request.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Prompt tokens (must be non-empty).
    pub prompt: Vec<usize>,
    /// Maximum tokens to generate.
    pub max_new_tokens: usize,
    /// Sampling temperature (`<= 0` → greedy).
    pub temperature: f32,
    /// Seed for this request's sampler RNG.
    pub seed: u64,
    /// Generation ends when any of these is produced (the stop token is
    /// kept in the output).
    pub stop_tokens: Vec<usize>,
}

/// One finished response.
#[derive(Debug, Clone, PartialEq)]
pub struct GenOutput {
    /// Generated tokens (prompt excluded; a terminating stop token is
    /// included), `len <= max_new_tokens`.
    pub tokens: Vec<usize>,
    /// `logps[i]`: the log-probability of `tokens[i]` under the logits
    /// it was sampled from, untempered ([`hf_nn::token_log_prob`]) — bit
    /// for bit `TinyLm::log_probs(prompt ++ tokens)[prompt.len() − 1 + i]`,
    /// since a decoded row is the forward's row.
    pub logps: Vec<f32>,
}

/// Per-step scheduler observation, kept for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTrace {
    /// Sequences fed this step.
    pub batch: usize,
    /// ... of which were still consuming prompt tokens.
    pub prefill_lanes: usize,
    /// Cache blocks owned by sequences after the step.
    pub blocks_in_use: usize,
    /// Free blocks after the step.
    pub(crate) free_blocks: usize,
    /// Sequences admitted from the waiting queue this step.
    pub admitted: usize,
    /// Sequences preempted (blocks released, will re-prefill).
    pub preempted: usize,
    /// Sequences that finished this step.
    pub finished: usize,
}

/// Aggregate statistics for one [`GenConfig::generate`] call.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Engine steps executed (batched decode calls).
    pub steps: u64,
    /// Total preemption events.
    pub preemptions: u64,
    /// Prompt tokens served from the prefix cache instead of prefill.
    pub prefix_hit_tokens: u64,
    /// Tokens sampled across all requests.
    pub generated_tokens: u64,
    /// Largest per-step batch observed.
    pub(crate) peak_batch: usize,
    /// Most cache blocks simultaneously in use.
    pub(crate) peak_blocks_in_use: usize,
    /// Pool size the budget bought.
    pub num_blocks: usize,
    /// Per-step observations, in step order.
    pub traces: Vec<StepTrace>,
    /// Step index (0-based) at which each request sampled its first
    /// token, keyed by request index. Requests with `max_new_tokens ==
    /// 0` never appear. Callers convert step indices to times (e.g.
    /// TTFT percentiles) using whatever per-step latency they charge.
    pub first_token_step: BTreeMap<usize, u64>,
    /// Step index at which each request retired, keyed by request index.
    pub(crate) finish_step: BTreeMap<usize, u64>,
}

/// Engine failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// A request alone exceeds the whole cache budget.
    CacheTooSmall {
        /// Blocks the request needs to finish running solo.
        needed_blocks: usize,
        /// Blocks the budget provides.
        num_blocks: usize,
    },
    /// [`GenServer::generate`] called before `install_weights`.
    NoWeights,
    /// A request with an empty prompt.
    EmptyPrompt,
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::CacheTooSmall { needed_blocks, num_blocks } => write!(
                f,
                "cache budget too small: a single request needs {needed_blocks} blocks, \
                 the budget provides {num_blocks}"
            ),
            GenError::NoWeights => write!(f, "no weights installed in the generation engine"),
            GenError::EmptyPrompt => write!(f, "generation request with an empty prompt"),
        }
    }
}

impl std::error::Error for GenError {}

/// A sequence moving through waiting → running → finished.
struct Seq {
    id: usize,
    /// Prompt plus generated-so-far; survives preemption.
    tokens: Vec<usize>,
    /// The log-prob of each generated token as it was sampled; survives
    /// preemption with the tokens.
    logps: Vec<f32>,
    prompt_len: usize,
    max_new: usize,
    temperature: f32,
    stop_tokens: Vec<usize>,
    /// Sampler state; survives preemption so recompute is invisible.
    rng: StdRng,
    /// Tokens consumed by `state` (slot `fed - 1` holds the latest
    /// snapshot). Sampling is legal exactly when `fed == tokens.len()`.
    fed: usize,
    /// Block table: block ids covering slots `0..fed`.
    table: Vec<usize>,
    state: Option<DecodeState>,
    /// Logits from the most recent feed (predicts token `fed`).
    last_logits: Vec<f32>,
}

impl GenConfig {
    /// Validates `reqs` and returns a [`GenSession`] over `lm`,
    /// positioned before the first engine step. The session exposes the
    /// scheduler loop one iteration at a time — [`GenConfig::generate`]
    /// is exactly `begin` + step-to-idle + `finish`.
    pub fn begin<'a>(
        &self,
        lm: &'a TinyLm,
        reqs: &[GenRequest],
    ) -> Result<GenSession<'a>, GenError> {
        let bt = self.block_tokens;
        let bm = BlockManager::new(lm.decode_start().snapshot_len(), bt, self.cache_budget_bytes);
        let mut session = GenSession {
            lm,
            bt,
            max_batch: self.max_batch,
            watermark: (bm.num_blocks() / 16).max(1),
            report: EngineReport { num_blocks: bm.num_blocks(), ..EngineReport::default() },
            bm,
            outputs: Vec::new(),
            waiting: VecDeque::new(),
            running: Vec::new(),
        };
        for r in reqs {
            session.submit(r)?;
        }
        Ok(session)
    }

    /// Runs every request to completion on `lm` under the paged-cache
    /// budget and returns the responses (in request order) plus an
    /// [`EngineReport`].
    pub fn generate(
        &self,
        lm: &TinyLm,
        reqs: &[GenRequest],
    ) -> Result<(Vec<GenOutput>, EngineReport), GenError> {
        let mut session = self.begin(lm, reqs)?;
        while session.step() {}
        Ok(session.finish())
    }
}

/// A [`GenConfig`] that owns a copy of the weights it serves. Nothing in
/// the workspace decodes through it — an actor rank hands its own replica
/// to [`GenConfig::generate`] — but the end-to-end benchmark's genserve
/// probe (`benchmark/src/layers.rs`) builds one with `new`,
/// `install_weights` and `begin`, so its API stays.
pub struct GenServer {
    cfg: GenConfig,
    lm: Option<TinyLm>,
}

impl GenServer {
    /// A server with no weights yet.
    pub fn new(cfg: GenConfig) -> Self {
        GenServer { cfg, lm: None }
    }

    /// Installs a copy of the model weights.
    pub fn install_weights(&mut self, lm: &TinyLm) {
        self.lm = Some(lm.clone());
    }

    /// [`GenConfig::begin`] on the installed weights.
    pub fn begin(&self, reqs: &[GenRequest]) -> Result<GenSession<'_>, GenError> {
        self.cfg.begin(self.lm.as_ref().ok_or(GenError::NoWeights)?, reqs)
    }

    /// [`GenConfig::generate`] on the installed weights.
    pub fn generate(
        &self,
        reqs: &[GenRequest],
    ) -> Result<(Vec<GenOutput>, EngineReport), GenError> {
        self.cfg.generate(self.lm.as_ref().ok_or(GenError::NoWeights)?, reqs)
    }
}

/// An in-flight batch on the iteration-level scheduler: the engine loop
/// of [`GenConfig::generate`], externalized one step at a time so a
/// caller can time or trace each step.
///
/// Stepping order, admission, preemption, and sampler RNG state are
/// identical to the monolithic loop, so driving a session to idle
/// produces bit-identical outputs and report to `generate`.
pub struct GenSession<'a> {
    lm: &'a TinyLm,
    bt: usize,
    max_batch: usize,
    /// Admission headroom: keep a sliver of blocks free when the batch
    /// is non-empty so a fresh admission doesn't preempt on the very
    /// next step.
    watermark: usize,
    bm: BlockManager,
    report: EngineReport,
    outputs: Vec<Option<GenOutput>>,
    waiting: VecDeque<Seq>,
    running: Vec<Seq>,
}

impl GenSession<'_> {
    /// Whether every request has finished.
    fn is_idle(&self) -> bool {
        self.waiting.is_empty() && self.running.is_empty()
    }

    /// Enqueues one request under the id `begin`'s request order gives
    /// it: an empty prompt is rejected, a request that cannot finish
    /// solo is rejected, and a `max_new_tokens == 0` request finishes
    /// before the first step.
    fn submit(&mut self, r: &GenRequest) -> Result<(), GenError> {
        if r.prompt.is_empty() {
            return Err(GenError::EmptyPrompt);
        }
        let id = self.outputs.len();
        if r.max_new_tokens == 0 {
            self.outputs.push(Some(GenOutput { tokens: Vec::new(), logps: Vec::new() }));
            return Ok(());
        }
        // Worst case the sequence runs alone: it feeds
        // prompt + max_new − 1 tokens (the final sample is never
        // fed), one cache slot each.
        let needed = (r.prompt.len() + r.max_new_tokens - 1).div_ceil(self.bt);
        if needed > self.bm.num_blocks() {
            return Err(GenError::CacheTooSmall {
                needed_blocks: needed,
                num_blocks: self.bm.num_blocks(),
            });
        }
        self.outputs.push(None);
        self.waiting.push_back(Seq {
            id,
            tokens: r.prompt.clone(),
            logps: Vec::with_capacity(r.max_new_tokens),
            prompt_len: r.prompt.len(),
            max_new: r.max_new_tokens,
            temperature: r.temperature,
            stop_tokens: r.stop_tokens.clone(),
            rng: StdRng::seed_from_u64(r.seed),
            fed: 0,
            table: Vec::new(),
            state: None,
            last_logits: Vec::new(),
        });
        Ok(())
    }

    /// Runs one scheduler iteration: sample + retire, FCFS admission,
    /// block allocation with LIFO recompute-preemption, one batched
    /// decode over every running sequence. Returns `false` once idle —
    /// the terminal call still retires the final sequences (their last
    /// token was sampled from the previous step's logits), it only skips
    /// the empty decode.
    pub fn step(&mut self) -> bool {
        if self.is_idle() {
            return false;
        }
        let bt = self.bt;
        let bm = &mut self.bm;
        let report = &mut self.report;
        let mut trace = StepTrace::default();

        // 1. Sample every fully-fed sequence from its latest logits;
        //    retire those that hit a stop token or their budget.
        let mut j = 0;
        while j < self.running.len() {
            let seq = &mut self.running[j];
            if seq.fed == seq.tokens.len() {
                let tok = if seq.temperature <= 0.0 {
                    greedy_token(&seq.last_logits)
                } else {
                    sample_softmax(&seq.last_logits, seq.temperature, &mut seq.rng)
                };
                seq.tokens.push(tok);
                seq.logps.push(token_log_prob(&seq.last_logits, tok));
                report.generated_tokens += 1;
                if seq.tokens.len() == seq.prompt_len + 1 {
                    report.first_token_step.insert(seq.id, report.steps);
                }
                let done = seq.tokens.len() - seq.prompt_len >= seq.max_new
                    || seq.stop_tokens.contains(&tok);
                if done {
                    let seq = self.running.remove(j);
                    for &b in &seq.table {
                        bm.release(b);
                    }
                    report.finish_step.insert(seq.id, report.steps);
                    self.outputs[seq.id] = Some(GenOutput {
                        tokens: seq.tokens[seq.prompt_len..].to_vec(),
                        logps: seq.logps,
                    });
                    trace.finished += 1;
                    continue;
                }
            }
            j += 1;
        }

        // 2. Admit strictly FCFS while free blocks cover the head's
        //    non-shared prefill (identical prompt prefixes re-map
        //    cached blocks instead of allocating) and, in a non-empty
        //    batch, leave the watermark behind; a head that does not
        //    fit blocks the requests queued behind it.
        // Blocks promised to sequences admitted this step but not
        // allocated until the capacity phase below.
        let mut promised = 0;
        while self.running.len() < self.max_batch {
            let Some(cand) = self.waiting.front() else { break };
            let shared = bm.lookup_prefix(&cand.tokens);
            let needed = cand.tokens.len().div_ceil(bt) - shared.len();
            // `free_blocks()` counts reclaimable cached blocks as
            // evictable headroom, but the candidate's own refcount-0
            // shared blocks are about to be resurrected by `retain`
            // below — counting them as *both* reusable and evictable
            // over-promised capacity and made a boundary admission
            // preempt itself on the very same step.
            let resurrect = shared.iter().filter(|&&b| bm.refcount(b) == 0).count();
            let avail = bm.free_blocks().saturating_sub(promised + resurrect);
            if needed > avail || (!self.running.is_empty() && avail - needed < self.watermark) {
                break;
            }
            promised += needed;
            let mut seq = self.waiting.pop_front().expect("candidate exists");
            for &b in &shared {
                bm.retain(b);
            }
            let reused = shared.len() * bt;
            seq.state = Some(if reused > 0 {
                report.prefix_hit_tokens += reused as u64;
                self.lm.decode_resume(bm.slot(*shared.last().expect("non-empty"), bt - 1), reused)
            } else {
                self.lm.decode_start()
            });
            seq.fed = reused;
            seq.table = shared;
            trace.admitted += 1;
            self.running.push(seq);
        }

        // 3. Every running sequence feeds one token this step; make
        //    sure each has a slot, preempting the youngest sequence
        //    (LIFO) by recompute when the pool runs dry.
        let mut i = 0;
        'seqs: while i < self.running.len() {
            let need_blocks = (self.running[i].fed + 1).div_ceil(bt);
            while self.running[i].table.len() < need_blocks {
                if let Some(b) = bm.alloc() {
                    self.running[i].table.push(b);
                } else {
                    // The youngest sequence sits at or after `i`, so
                    // removing it never shifts the current one.
                    let victim_idx = self.running.len() - 1;
                    let mut victim = self.running.remove(victim_idx);
                    for &b in &victim.table {
                        bm.release(b);
                    }
                    victim.table.clear();
                    victim.fed = 0;
                    victim.state = None;
                    victim.last_logits = Vec::new();
                    self.waiting.push_front(victim);
                    trace.preempted += 1;
                    report.preemptions += 1;
                    if victim_idx == i {
                        // The sequence needing the block was itself
                        // the victim; it re-enters via the waiting
                        // queue.
                        continue 'seqs;
                    }
                }
            }
            i += 1;
        }

        if self.running.is_empty() {
            debug_assert!(self.waiting.is_empty(), "scheduler stalled with waiting sequences");
            return false;
        }

        // 4. One batched decode step over every running sequence.
        trace.batch = self.running.len();
        trace.prefill_lanes = self.running.iter().filter(|s| s.fed < s.prompt_len).count();
        let feed: Vec<usize> = self.running.iter().map(|s| s.tokens[s.fed]).collect();
        // A sequence samples after this step once it is fed its last token.
        let reads: Vec<bool> = self.running.iter().map(|s| s.fed + 1 == s.tokens.len()).collect();
        let results = {
            let mut states: Vec<&mut DecodeState> = self
                .running
                .iter_mut()
                .map(|s| s.state.as_mut().expect("running sequence has a state"))
                .collect();
            self.lm.decode_step_batch_reading(&mut states, &feed, &reads)
        };
        for (seq, read) in self.running.iter_mut().zip(results) {
            let block = seq.table[seq.fed / bt];
            seq.state
                .as_ref()
                .expect("state survives the step")
                .write_snapshot(bm.slot_mut(block, seq.fed % bt));
            seq.last_logits = read.map(|(logits, _value)| logits).unwrap_or_default();
            seq.fed += 1;
            // A freshly completed block whose slots all lie inside
            // the prompt becomes a shareable prefix.
            if seq.fed.is_multiple_of(bt) && seq.fed <= seq.prompt_len {
                bm.register_prefix(block, &seq.tokens[..seq.fed]);
            }
        }

        #[cfg(feature = "audit")]
        bm.check_invariants().unwrap_or_else(|e| {
            panic!("block-manager invariant violated after step {}: {e}", report.steps)
        });

        report.steps += 1;
        report.peak_batch = report.peak_batch.max(trace.batch);
        report.peak_blocks_in_use = report.peak_blocks_in_use.max(bm.blocks_in_use());
        trace.blocks_in_use = bm.blocks_in_use();
        trace.free_blocks = bm.free_blocks();
        report.traces.push(trace);
        true
    }

    /// Consumes an idle session into `(outputs in request order, report)`.
    ///
    /// # Panics
    ///
    /// Panics if any request has not finished (drive [`GenSession::step`]
    /// to idle first).
    pub fn finish(self) -> (Vec<GenOutput>, EngineReport) {
        let outputs =
            self.outputs.into_iter().map(|o| o.expect("every request finished")).collect();
        (outputs, self.report)
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use hf_nn::LmConfig;

    fn lm() -> TinyLm {
        TinyLm::new(LmConfig { vocab: 16, hidden: 8, ffn: 12, layers: 2 }, 11)
    }

    /// A model and an engine config of `cache_blocks` 4-slot blocks.
    fn engine(cache_blocks: usize, max_batch: usize) -> (TinyLm, GenConfig) {
        let lm = lm();
        let slot_bytes = lm.decode_start().cache_bytes();
        let cfg = GenConfig {
            block_tokens: 4,
            cache_budget_bytes: cache_blocks * 4 * slot_bytes,
            max_batch,
        };
        (lm, cfg)
    }

    fn reqs(n: usize) -> Vec<GenRequest> {
        (0..n)
            .map(|i| GenRequest {
                prompt: vec![1 + i % 5, 2, 3],
                max_new_tokens: 3 + i % 4,
                temperature: if i % 2 == 0 { 0.0 } else { 1.0 },
                seed: 0x5EED + i as u64,
                stop_tokens: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn stepped_session_is_bit_identical_to_generate() {
        let (lm, cfg) = engine(8, 3);
        let rs = reqs(6);
        let (ref_outs, ref_report) = cfg.generate(&lm, &rs).unwrap();
        let mut session = cfg.begin(&lm, &rs).unwrap();
        while session.step() {}
        let (outs, report) = session.finish();
        assert_eq!(outs, ref_outs);
        assert_eq!(report.steps, ref_report.steps);
        assert_eq!(report.preemptions, ref_report.preemptions);
        assert_eq!(report.generated_tokens, ref_report.generated_tokens);
        assert_eq!(report.first_token_step, ref_report.first_token_step);
        assert_eq!(report.finish_step, ref_report.finish_step);
        assert_eq!(report.traces.len(), ref_report.traces.len());
    }

    #[test]
    fn zero_token_requests_finish_at_begin() {
        let (lm, cfg) = engine(6, 2);
        let rs = vec![GenRequest {
            prompt: vec![1, 2],
            max_new_tokens: 0,
            temperature: 0.0,
            seed: 1,
            stop_tokens: Vec::new(),
        }];
        let mut session = cfg.begin(&lm, &rs).unwrap();
        assert!(session.is_idle());
        assert!(!session.step());
        let (outs, report) = session.finish();
        assert_eq!(outs[0].tokens, Vec::<usize>::new());
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn a_head_that_does_not_fit_blocks_the_queue_behind_it() {
        // 8 blocks of 4 tokens, watermark 1, batch cap 2. At step 0 the
        // long runner is admitted into the empty batch with 2 blocks
        // promised, leaving 6: the head's 21-token prompt needs 6 and
        // would leave less than the watermark, the tail's 17 tokens need
        // 5 and would leave exactly the watermark. Admission is strictly
        // FCFS: the head that does not fit stops the queue, so the tail
        // does not take the free batch slot ahead of it.
        let (lm, cfg) = engine(8, 2);
        let req = |token: usize, prompt_len: usize, max_new_tokens: usize| GenRequest {
            prompt: vec![token; prompt_len],
            max_new_tokens,
            temperature: 0.0,
            seed: 1,
            stop_tokens: Vec::new(),
        };
        let (long, head, tail) = (req(1, 5, 8), req(3, 21, 1), req(4, 17, 1));
        let (_, report) = cfg.generate(&lm, &[long, head, tail]).unwrap();
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.traces[0].admitted, 1, "only the long runner is admitted at step 0");
        assert!(
            report.first_token_step[&2] >= report.first_token_step[&1],
            "the tail must not overtake a head that does not fit: {report:?}"
        );
    }
}
