//! The shared stage DAG behind every RLHF algorithm driver.
//!
//! All four algorithms (PPO, Safe-RLHF, ReMax, GRPO) run the same
//! three-stage dataflow — generation → experience preparation →
//! training — and differ only in which forward passes preparation
//! issues, how advantages are finalized, and whether training updates a
//! critic. [`run_stages`] single-sources that skeleton; a [`StageAlgo`]
//! supplies the per-algorithm hooks. Preparation is expressed as a list
//! of [`PrepCall`] descriptors whose futures are issued together and
//! collected in issue order, which is also what lets the pipelined
//! driver (see `pipeline`) reuse the exact same call set under a
//! different schedule; critic + actor training is one dispatch
//! ([`dispatch_train`]) and one collect ([`wait_train`]) that both
//! drivers call.
//!
//! The barrier schedule issues every call the moment its input exists
//! (§4.1, asynchronous dataflow) — and a reply that is still being
//! computed *exists as a future*: `compute_log_prob` and every
//! preparation pass that reads the main batch leave with
//! `generate_sequences`, issued on its future
//! ([`WorkerGroup::invoke_on`]), and the generation reply goes rank to
//! rank. The controller waits only where a call's input is made *by the
//! controller*: prompts → generation and advantages → training (it still
//! waits generation for its own copy — it unions the columns and computes
//! the advantages, Figure 6's `compute_advantage`). Every micro-batch's
//! updates leave before any is collected (the device mailboxes already
//! keep them in order). What the workers compute is what the hand-written
//! drivers computed, *bit for bit* — call order per device, collect
//! order, stats arithmetic; the audit oracle and fault-matrix tests pin
//! this.
//!
//! Retries. A generation that fails transiently fails what was issued on
//! it, and its retry ([`WorkerGroup::backs_off`], the one decision
//! `wait_retrying` also takes) re-issues generation *and* those calls;
//! the pass id it reuses ([`GEN_PASS_META`]) makes every rank sample the
//! round of the attempt it replaces. `compute_log_prob` keeps its own
//! retry on its future ([`WorkerGroup::wait_retrying`]: a pure forward
//! pass may run after the preparation passes). Two kinds of call stay
//! `invoke_sync`, because their retry re-dispatches and a call already
//! queued behind the failed one would overtake it: auxiliary generation
//! passes (the actor's round counter orders them) and actor-only updates
//! (update *k* before *k + 1*). Critic/actor update futures were never
//! retried — a failure surfaces and recovery happens a level up.
//!
//! What still passes through the controller: the prompts, the
//! generation reply and every preparation reply (it unions the columns
//! and computes the advantages), the advantage-carrying batch, and
//! ReMax's baseline batch, whose `compute_reward` is issued on the
//! collected auxiliary reply. `compute_log_prob`'s `cur_logp` is
//! installed as `logp_old` before the preparation outputs are unioned,
//! so the finished batch is column for column what the serial order
//! built. The phase spans stay three and chained: `generation` closes
//! when generation returns, and the passes issued on its future complete
//! in `experience_preparation` and are attributed there.

use hf_core::{Controller, CoreError, DataProto, DpFuture, Result, WorkerGroup};

use crate::advantage::{gae, grpo_advantages, remax_advantage, shape_token_rewards, whiten};
use crate::algo::{IterStats, RlhfConfig, RlhfSystem};
use crate::workers::{GEN_PASS_META, NO_LOGP_META};

/// Closes an algorithm phase: records a `Phase` span on the controller
/// track from `start` to now and observes its latency into the phase's
/// digest, returning `(now, span id)` so the next phase can
/// start at now and cite this one as its cause — phase spans chain into
/// the causal graph's backbone. Free when the controller's telemetry is
/// disabled; never advances the clock.
pub(crate) fn phase_span(ctrl: &Controller, name: &str, start: f64, prev: u64) -> (f64, u64) {
    let now = ctrl.clock();
    let tel = ctrl.telemetry();
    let id = tel.next_span_id();
    tel.span_causal(
        hf_telemetry::CONTROLLER_TRACK,
        name,
        hf_telemetry::SpanKind::Phase,
        start,
        now,
        id,
        &[prev],
        &[],
    );
    if tel.is_enabled() {
        let series = format!("phase.{name}.seconds");
        tel.observe(&series, now - start);
    }
    (now, id)
}

pub(crate) fn mean_of(data: &DataProto, col: &str) -> f32 {
    match data.f32(col) {
        Ok((v, _)) if !v.is_empty() => v.iter().sum::<f32>() / v.len() as f32,
        _ => 0.0,
    }
}

/// Which advantage estimator the GAE finalizer uses.
pub(crate) enum GaeFlavor {
    Ppo,
    SafeRlhf,
}

/// Token rewards + GAE advantages/returns for the rows of `batch`, on the
/// controller (Figure 6's `compute_advantage`; no model forward passes)
/// and *before* whitening, which needs every row of the iteration. The
/// pipelined driver runs this per generation chunk; rows are independent,
/// so chunk outputs concatenated in chunk order are the full batch's.
pub(crate) fn gae_rows(
    batch: &DataProto,
    cfg: &RlhfConfig,
    algo: GaeFlavor,
) -> Result<(Vec<f32>, Vec<f32>)> {
    let rows = batch.rows();
    let rw = cfg.response_len;
    let (logp, _) = batch.f32("logp_old")?;
    let (ref_logp, _) = batch.f32("ref_logp")?;
    let (values, _) = batch.f32("values")?;
    let (scores, _) = batch.f32("scores")?;
    let costs = match algo {
        GaeFlavor::SafeRlhf => Some(batch.f32("costs")?.0),
        GaeFlavor::Ppo => None,
    };

    let mut advantages = Vec::with_capacity(rows * rw);
    let mut returns = Vec::with_capacity(rows * rw);
    for i in 0..rows {
        let score = match costs {
            // Safe-RLHF folds the cost model in through the Lagrangian
            // penalty on the combined objective.
            Some(c) => scores[i] - cfg.lambda_cost * c[i],
            None => scores[i],
        };
        let r = shape_token_rewards(
            score,
            &logp[i * rw..(i + 1) * rw],
            &ref_logp[i * rw..(i + 1) * rw],
            cfg.kl_coef,
        );
        let (a, ret) = gae(&r, &values[i * rw..(i + 1) * rw], cfg.gamma, cfg.lam);
        advantages.extend(a);
        returns.extend(ret);
    }
    Ok((advantages, returns))
}

/// Whitens the iteration's advantages and attaches them, with the
/// returns, to the experience batch.
pub(crate) fn insert_gae(
    batch: &mut DataProto,
    mut advantages: Vec<f32>,
    returns: Vec<f32>,
    response_len: usize,
) {
    whiten(&mut advantages);
    batch.insert_f32("advantages", advantages, response_len);
    batch.insert_f32("returns", returns, response_len);
}

/// Which model a preparation forward pass runs on. Resolves to a worker
/// group + registered method through the [`RlhfSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepRole {
    Critic,
    Reference,
    Reward,
    Cost,
}

impl PrepRole {
    /// The registered worker method this role's pass runs.
    pub(crate) fn method(self) -> &'static str {
        match self {
            PrepRole::Critic => "compute_values",
            PrepRole::Reference => "compute_ref_log_prob",
            PrepRole::Reward => "compute_reward",
            PrepRole::Cost => "compute_cost",
        }
    }

    pub(crate) fn resolve(self, sys: &RlhfSystem) -> Result<(&WorkerGroup, &'static str)> {
        let group = match self {
            PrepRole::Critic => require_critic(sys)?,
            PrepRole::Reference => &sys.reference,
            PrepRole::Reward => &sys.reward,
            PrepRole::Cost => require_cost(sys)?,
        };
        Ok((group, self.method()))
    }
}

fn require_critic(sys: &RlhfSystem) -> Result<&WorkerGroup> {
    sys.critic.as_ref().ok_or_else(|| CoreError::Config("the algorithm requires a critic".into()))
}

fn require_cost(sys: &RlhfSystem) -> Result<&WorkerGroup> {
    sys.cost.as_ref().ok_or_else(|| CoreError::Config("the algorithm requires a cost model".into()))
}

/// What batch a preparation pass reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepInput {
    /// The main experience batch.
    Batch,
    /// The `i`-th auxiliary generation pass (ReMax's greedy baseline).
    Aux(usize),
}

/// Where a preparation pass's output goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrepSink {
    /// Column-union into the experience batch.
    Union,
    /// Kept aside for the finalizer (e.g. baseline scores).
    Side,
}

/// One experience-preparation forward pass in the stage DAG.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrepCall {
    pub(crate) role: PrepRole,
    pub(crate) input: PrepInput,
    pub(crate) sink: PrepSink,
}

impl PrepCall {
    pub(crate) fn union(role: PrepRole) -> Self {
        PrepCall { role, input: PrepInput::Batch, sink: PrepSink::Union }
    }
}

/// How the training stage updates models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TrainMode {
    /// Every mini-batch's critic and actor update issued as futures
    /// before any is collected ([`dispatch_train`]), collected
    /// critic-first in mini-batch order. No transient retry — a failure
    /// surfaces at its wait (recovery happens a level up).
    CriticActor,
    /// Per mini-batch: a single synchronous actor update through the
    /// controller's retry-with-backoff policy.
    ActorOnly,
}

/// Per-algorithm hooks the stage skeleton composes.
pub(crate) trait StageAlgo {
    /// Validates the system has every model this algorithm needs.
    fn require(&self, sys: &RlhfSystem) -> Result<()>;

    /// Transforms the prompt batch before generation (GRPO's ×g group
    /// expansion); `None` generates from the prompts as-is.
    fn expand_prompts(&self, _cfg: &RlhfConfig, _prompts: &DataProto) -> Result<Option<DataProto>> {
        Ok(None)
    }

    /// Additional generation passes after the main one, from these
    /// inputs (ReMax's greedy baseline decode of the same prompts).
    fn aux_gen_inputs(&self, _prompts: &DataProto) -> Vec<DataProto> {
        Vec::new()
    }

    /// Whether to recompute response log-probs with a training-engine
    /// forward pass and use them as `logp_old` (PPO's optional Table 4
    /// pass).
    fn recompute_logp(&self, _cfg: &RlhfConfig) -> bool {
        false
    }

    /// The preparation forward passes, in issue order: those that read
    /// the main batch (issued with generation, on its future) before
    /// those that read an auxiliary pass (issued after it).
    fn prep_calls(&self) -> Vec<PrepCall>;

    /// Finalizes advantages (and anything else derived on the
    /// controller) once every preparation output landed. `side` holds
    /// the [`PrepSink::Side`] outputs in issue order.
    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, side: &[DataProto]) -> Result<()>;

    /// Last chance to extend the batch before training (Safe-RLHF
    /// attaches the pre-train rows and `ptx_coef` here). Runs after the
    /// preparation phase closes.
    fn pre_train(
        &self,
        _cfg: &RlhfConfig,
        _batch: &mut DataProto,
        _pretrain: Option<&DataProto>,
    ) -> Result<()> {
        Ok(())
    }

    /// How the training stage runs.
    fn train_mode(&self) -> TrainMode;
}

/// Loss/entropy totals the training stage accumulates across
/// mini-batches.
#[derive(Debug, Default, Clone, Copy)]
struct TrainTotals {
    actor_loss: f32,
    entropy: f32,
    critic_loss: f32,
    ptx_loss: f32,
}

impl TrainTotals {
    /// Folds one actor-update reply in (`ptx_loss` is 0 in replies of
    /// algorithms without the pre-train objective, so accumulating it
    /// uniformly changes nothing).
    fn absorb_actor(&mut self, reply: &DataProto) {
        self.actor_loss += mean_of(reply, "actor_loss");
        self.entropy += mean_of(reply, "entropy");
        self.ptx_loss += mean_of(reply, "ptx_loss");
    }
}

/// One experience batch's [`TrainMode::CriticActor`] updates in flight.
pub(crate) struct InFlight {
    /// Per micro-batch `(update_critic, update_actor)` futures, in
    /// dispatch order.
    futs: Vec<(DpFuture, DpFuture)>,
    /// The batch being trained (returned to the caller with its stats).
    batch: DataProto,
}

/// Dispatches every micro-batch's critic + actor update as futures —
/// per-device order `c₁ a₁ c₂ a₂ …` — without waiting any of them: the
/// one training dispatch of the barrier and the pipelined driver.
pub(crate) fn dispatch_train(sys: &RlhfSystem, batch: DataProto) -> Result<InFlight> {
    let critic = require_critic(sys)?;
    let futs = batch
        .chunk(sys.cfg.updates)
        .iter()
        .map(|mb| Ok((critic.invoke("update_critic", mb)?, sys.actor.invoke("update_actor", mb)?)))
        .collect::<Result<_>>()?;
    Ok(InFlight { futs, batch })
}

/// Collects the update futures in dispatch order, critic first, and
/// assembles the batch's stats (timing fields are filled by the caller).
pub(crate) fn wait_train(sys: &RlhfSystem, inflight: InFlight) -> Result<(IterStats, DataProto)> {
    let mut totals = TrainTotals::default();
    for (f_c, f_a) in inflight.futs {
        totals.critic_loss += mean_of(&f_c.wait()?, "critic_loss");
        totals.absorb_actor(&f_a.wait()?);
    }
    Ok((assemble_stats(&inflight.batch, &totals, sys.cfg.updates), inflight.batch))
}

/// [`TrainMode::ActorOnly`] training: one synchronous update per
/// micro-batch, each waited (with the controller's transient retry)
/// before the next is issued — a retried update must not land behind
/// its successor.
fn train_actor_only(sys: &RlhfSystem, batch: DataProto) -> Result<(IterStats, DataProto)> {
    let mut totals = TrainTotals::default();
    for mb in batch.chunk(sys.cfg.updates) {
        totals.absorb_actor(&sys.actor.invoke_sync("update_actor", &mb)?);
    }
    Ok((assemble_stats(&batch, &totals, sys.cfg.updates), batch))
}

/// Assembles the iteration's statistics from the finished batch and
/// training totals; the driver stamps the timing fields. `mean_of`
/// returns 0 for absent columns, so the one expression covers every
/// algorithm (no `costs` column ⇒ zero mean cost, and so on).
fn assemble_stats(batch: &DataProto, totals: &TrainTotals, updates: usize) -> IterStats {
    let k = updates as f32;
    IterStats {
        mean_score: mean_of(batch, "scores"),
        mean_cost: mean_of(batch, "costs"),
        actor_loss: totals.actor_loss / k,
        entropy: totals.entropy / k,
        critic_loss: totals.critic_loss / k,
        ptx_loss: totals.ptx_loss / k,
        virtual_seconds: 0.0,
        staleness: 0,
        overlap_fraction: 0.0,
    }
}

/// Issues the passes of `calls` that read the main batch, in order, on
/// the future of the generation call that produces it.
pub(crate) fn issue_prep(
    sys: &RlhfSystem,
    calls: &[PrepCall],
    generation: &DpFuture,
) -> Result<Vec<(DpFuture, PrepSink)>> {
    (calls.iter().filter(|call| call.input == PrepInput::Batch))
        .map(|call| {
            let (group, method) = call.role.resolve(sys)?;
            Ok((group.invoke_on(method, generation)?, call.sink))
        })
        .collect()
}

/// Issues the passes of `calls` that read an auxiliary generation pass,
/// in order, on that pass's reply.
fn issue_aux_prep(
    sys: &RlhfSystem,
    calls: &[PrepCall],
    aux: &[DataProto],
) -> Result<Vec<(DpFuture, PrepSink)>> {
    calls
        .iter()
        .filter_map(|call| match call.input {
            PrepInput::Batch => None,
            PrepInput::Aux(i) => Some((call, &aux[i])),
        })
        .map(|(call, input)| {
            let (group, method) = call.role.resolve(sys)?;
            Ok((group.invoke(method, input)?, call.sink))
        })
        .collect()
}

/// Collects preparation outputs in issue order: [`PrepSink::Union`]
/// columns join `batch`, [`PrepSink::Side`] outputs are returned.
pub(crate) fn collect_prep(
    batch: &mut DataProto,
    futures: Vec<(DpFuture, PrepSink)>,
) -> Result<Vec<DataProto>> {
    let mut side = Vec::new();
    for (fut, sink) in futures {
        match sink {
            PrepSink::Union => {
                batch.union(fut.wait()?)?;
            }
            PrepSink::Side => side.push(fut.wait()?),
        }
    }
    Ok(side)
}

/// Runs one synchronous iteration of `algo`'s stage DAG: generation →
/// experience preparation → training, every call issued as soon as its
/// input exists — as a batch or as a future — and collected in issue
/// order. Returns the stats and the finished experience batch (the audit
/// oracle fingerprints the latter).
pub(crate) fn run_stages(
    algo: &dyn StageAlgo,
    sys: &RlhfSystem,
    ctrl: &Controller,
    prompts: &DataProto,
    pretrain: Option<&DataProto>,
) -> Result<(IterStats, DataProto)> {
    algo.require(sys)?;
    let t0 = ctrl.clock();

    // Stage 1: generation (plus any auxiliary decode passes), each pass
    // stamped with its id. A pass whose `logp_old` nobody reads is told
    // to leave it out: the main one when `compute_log_prob` replaces the
    // column below, every auxiliary one (only its `scores` are read).
    let recompute_logp = algo.recompute_logp(&sys.cfg);
    let stamped = |input: &DataProto, without_logp: bool| {
        let mut input = input.clone();
        input.meta.insert(GEN_PASS_META.into(), sys.next_gen_pass().to_string());
        if without_logp {
            input.meta.insert(NO_LOGP_META.into(), "1".into());
        }
        input
    };
    let expanded = algo.expand_prompts(&sys.cfg, prompts)?;
    let gen_input = stamped(expanded.as_ref().unwrap_or(prompts), recompute_logp);
    let calls = algo.prep_calls();

    // Everything that reads the generation reply leaves with generation,
    // on its future, the actor's optional Table 4 pass first: it
    // recomputes the response log-probs under the training engine's
    // numerics, and they become the PPO old log-probs before the
    // preparation columns join the batch. A generation that failed
    // transiently failed them too; the retry issues all of them again.
    let mut attempt = 0;
    let (mut batch, logp, mut futures) = loop {
        let generation = sys.actor.invoke("generate_sequences", &gen_input)?;
        let logp = recompute_logp
            .then(|| sys.actor.invoke_on("compute_log_prob", &generation))
            .transpose()?;
        let futures = issue_prep(sys, &calls, &generation)?;
        match generation.wait() {
            Ok(batch) => break (batch, logp, futures),
            Err(e) if sys.actor.backs_off(&e, &mut attempt) => {}
            Err(e) => return Err(e),
        }
    };
    let mut aux = Vec::new();
    for input in algo.aux_gen_inputs(prompts) {
        aux.push(sys.actor.invoke_sync("generate_sequences", &stamped(&input, true))?);
    }
    let (t_gen, p_gen) = phase_span(ctrl, "generation", t0, 0);

    // Stage 2: experience preparation — what is left to issue reads an
    // auxiliary pass's reply.
    futures.extend(issue_aux_prep(sys, &calls, &aux)?);
    if let Some(fut) = logp {
        let lp = sys.actor.wait_retrying(fut, &batch)?;
        let (cur, w) = lp.f32("cur_logp")?;
        let cur = cur.to_vec();
        batch.insert_f32("logp_old", cur, w);
    }
    let side = collect_prep(&mut batch, futures)?;
    algo.finalize(&sys.cfg, &mut batch, &side)?;
    let (t_prep, p_prep) = phase_span(ctrl, "experience_preparation", t_gen, p_gen);

    // Stage 3: training.
    algo.pre_train(&sys.cfg, &mut batch, pretrain)?;
    let (mut stats, batch) = match algo.train_mode() {
        TrainMode::CriticActor => wait_train(sys, dispatch_train(sys, batch)?)?,
        TrainMode::ActorOnly => train_actor_only(sys, batch)?,
    };
    phase_span(ctrl, "training", t_prep, p_prep);
    stats.virtual_seconds = ctrl.clock() - t0;
    Ok((stats, batch))
}

/// PPO: critic + reference + reward preparation, GAE advantages,
/// critic/actor training.
pub(crate) struct PpoStages;

impl StageAlgo for PpoStages {
    fn require(&self, sys: &RlhfSystem) -> Result<()> {
        require_critic(sys).map(|_| ())
    }

    fn recompute_logp(&self, cfg: &RlhfConfig) -> bool {
        cfg.recompute_logp
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![
            PrepCall::union(PrepRole::Critic),
            PrepCall::union(PrepRole::Reference),
            PrepCall::union(PrepRole::Reward),
        ]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, _side: &[DataProto]) -> Result<()> {
        let (advantages, returns) = gae_rows(batch, cfg, GaeFlavor::Ppo)?;
        insert_gae(batch, advantages, returns, cfg.response_len);
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::CriticActor
    }
}

/// Safe-RLHF: PPO plus a cost model folded in through the Lagrangian
/// penalty and an auxiliary pre-train (PPO-ptx) loss.
pub(crate) struct SafeRlhfStages;

impl StageAlgo for SafeRlhfStages {
    fn require(&self, sys: &RlhfSystem) -> Result<()> {
        require_critic(sys)?;
        require_cost(sys).map(|_| ())
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![
            PrepCall::union(PrepRole::Critic),
            PrepCall::union(PrepRole::Reference),
            PrepCall::union(PrepRole::Reward),
            PrepCall::union(PrepRole::Cost),
        ]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, _side: &[DataProto]) -> Result<()> {
        let (advantages, returns) = gae_rows(batch, cfg, GaeFlavor::SafeRlhf)?;
        insert_gae(batch, advantages, returns, cfg.response_len);
        Ok(())
    }

    fn pre_train(
        &self,
        cfg: &RlhfConfig,
        batch: &mut DataProto,
        pretrain: Option<&DataProto>,
    ) -> Result<()> {
        // Attach the pre-train rows and coefficient for the PPO-ptx loss.
        let pretrain = pretrain
            .ok_or_else(|| CoreError::Config("Safe-RLHF requires a pretrain batch".into()))?;
        let (pt, ptw) = pretrain.tokens("pretrain")?;
        if pretrain.rows() != batch.rows() {
            return Err(CoreError::Data("pretrain batch must match prompt batch rows".into()));
        }
        batch.insert_tokens("pretrain", pt.to_vec(), ptw);
        batch.meta.insert("ptx_coef".into(), cfg.ptx_coef.to_string());
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::CriticActor
    }
}

/// ReMax: an extra greedy generation pass provides the
/// variance-reduction baseline; the critic is eliminated.
pub(crate) struct RemaxStages;

impl StageAlgo for RemaxStages {
    fn require(&self, _sys: &RlhfSystem) -> Result<()> {
        Ok(())
    }

    fn aux_gen_inputs(&self, prompts: &DataProto) -> Vec<DataProto> {
        // Baseline pass: greedy decoding of the same prompts.
        let mut greedy_prompts = prompts.clone();
        greedy_prompts.meta.insert("greedy".into(), "1".into());
        vec![greedy_prompts]
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![
            PrepCall::union(PrepRole::Reference),
            PrepCall::union(PrepRole::Reward),
            PrepCall { role: PrepRole::Reward, input: PrepInput::Aux(0), sink: PrepSink::Side },
        ]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, side: &[DataProto]) -> Result<()> {
        // Advantage: sampled score − greedy baseline score, KL-shaped.
        let rows = batch.rows();
        let rw = cfg.response_len;
        let (scores, _) = batch.f32("scores")?;
        let (base, _) = side[0].f32("scores")?;
        let (logp, _) = batch.f32("logp_old")?;
        let (ref_logp, _) = batch.f32("ref_logp")?;
        let mut advantages = Vec::with_capacity(rows * rw);
        for i in 0..rows {
            let kl: f32 =
                (0..rw).map(|t| logp[i * rw + t] - ref_logp[i * rw + t]).sum::<f32>() / rw as f32;
            let adv = remax_advantage(scores[i] - cfg.kl_coef * kl, base[i], rw);
            advantages.extend(adv);
        }
        whiten(&mut advantages);
        batch.insert_f32("advantages", advantages, rw);
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::ActorOnly
    }
}

/// GRPO: `grpo_group` samples per prompt, group-standardized advantages,
/// no critic.
pub(crate) struct GrpoStages;

impl StageAlgo for GrpoStages {
    fn require(&self, _sys: &RlhfSystem) -> Result<()> {
        Ok(())
    }

    fn expand_prompts(&self, cfg: &RlhfConfig, prompts: &DataProto) -> Result<Option<DataProto>> {
        // Repeat each prompt g times (consecutive rows form a group).
        let g = cfg.grpo_group.max(1);
        let (pt, pw) = prompts.tokens("prompts")?;
        let rows = prompts.rows();
        let mut expanded_toks = Vec::with_capacity(rows * g * pw);
        for r in 0..rows {
            for _ in 0..g {
                expanded_toks.extend_from_slice(&pt[r * pw..(r + 1) * pw]);
            }
        }
        let mut expanded = DataProto::with_rows(rows * g);
        expanded.insert_tokens("prompts", expanded_toks, pw);
        expanded.meta = prompts.meta.clone();
        Ok(Some(expanded))
    }

    fn prep_calls(&self) -> Vec<PrepCall> {
        vec![PrepCall::union(PrepRole::Reference), PrepCall::union(PrepRole::Reward)]
    }

    fn finalize(&self, cfg: &RlhfConfig, batch: &mut DataProto, _side: &[DataProto]) -> Result<()> {
        let g = cfg.grpo_group.max(1);
        let rw = cfg.response_len;
        let groups = batch.rows() / g;
        let (scores, _) = batch.f32("scores")?;
        let (logp, _) = batch.f32("logp_old")?;
        let (ref_logp, _) = batch.f32("ref_logp")?;
        let scores = scores.to_vec();
        let logp = logp.to_vec();
        let ref_logp = ref_logp.to_vec();
        let mut advantages = Vec::with_capacity(groups * g * rw);
        for group in 0..groups {
            let s = &scores[group * g..(group + 1) * g];
            let group_adv = grpo_advantages(s);
            for (j, adv) in group_adv.iter().enumerate() {
                let i = group * g + j;
                for t in 0..rw {
                    let kl = logp[i * rw + t] - ref_logp[i * rw + t];
                    advantages.push(adv - cfg.kl_coef * kl);
                }
            }
        }
        batch.insert_f32("advantages", advantages, rw);
        Ok(())
    }

    fn train_mode(&self) -> TrainMode {
        TrainMode::ActorOnly
    }
}
