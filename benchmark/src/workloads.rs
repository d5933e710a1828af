//! The four fixed RLHF training workloads and the session that drives
//! one of them: a controller, a spawned `RlhfSystem`, and a closed loop
//! that issues iteration `i + 1` when iteration `i` has returned.
//!
//! Every input is derived from `--seed`: iteration `i` trains on
//! `make_prompts(.., seed + i)`. Model weights start from `MODEL_SEED`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hybridflow::core::{Controller, CoreError, DataProto, Result, WorkerLayout};
use hybridflow::nn::LmConfig;
use hybridflow::parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hybridflow::rewards::{PoolConfig, VerifierKind, VerifierSpec};
use hybridflow::rlhf::env::make_prompts;
use hybridflow::rlhf::{
    grpo_iteration, ppo_iteration, IterStats, ModelPlacement, PipelineConfig, PipelinedPpo,
    Placement, RewardSource, RlhfConfig, RlhfSystem,
};
use hybridflow::simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hybridflow::telemetry::Telemetry;

/// Seed of every model's initial weights. The program under test gets
/// only the generated inputs: `--seed` draws the prompts and nothing
/// else, so runs with different seeds train the same models on
/// different data and `final_reward_mean` stays comparable across them.
pub const MODEL_SEED: u64 = 17;

/// Which single-controller driver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `ppo_iteration`: the synchronous barrier sequence.
    Ppo,
    /// `grpo_iteration` against the verifier pool.
    Grpo,
    /// `PipelinedPpo { staleness: 1, gen_chunks: 2 }`.
    Pipelined,
}

/// One benchmark workload: a fixed system shape plus its run lengths.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Which driver issues the iterations.
    pub driver: Driver,
    /// Simulated GPUs in the cluster.
    pub gpus: usize,
    /// Prompts per iteration.
    pub rows: usize,
    /// Warm-up iterations; they belong to `setup_s`.
    pub warmup: usize,
    /// The fixed window: measured iterations per episode, the same for
    /// every seed. A run repeats whole episodes (fresh system, warm-up,
    /// window), so every sample is taken at the same point of the same
    /// training run however fast the host is.
    pub window: usize,
    /// `save_system_checkpoint` every this many measured iterations.
    pub checkpoint_every: usize,
    /// Whether the output check demands a rising reward.
    pub learns: bool,
    /// The traced run's output check on where host time goes: the layer
    /// shares that make the workload what its `why` says it is.
    pub share_check: Option<ShareCheck>,
    /// Whether this workload's traced run carries the mapping probe. The
    /// probe does not depend on the workload, so one of a full set times
    /// it and the others report zeros.
    pub probes_mapping: bool,
    /// The RLHF configuration, before the model seed is pinned.
    base_config: fn() -> RlhfConfig,
    /// Where every model lives.
    placement: fn() -> Placement,
}

/// "The summed host-time shares of `layers` exceed `factor` times those
/// of `over`", checked on every traced run so a workload cannot drift
/// from the reason it exists. `rest` names the share of an iteration the
/// split leaves open (1 − `trace.tiled_share`). The traced run's timings
/// are not calibrated, so a condition needs a margin of two or more.
#[derive(Debug, Clone, Copy)]
pub struct ShareCheck {
    /// Layers the workload is there to stress.
    pub layers: &'static [&'static str],
    /// How many times larger their share must be.
    pub factor: f64,
    /// Layers they are compared with.
    pub over: &'static [&'static str],
}

/// The four workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ppo_colocated",
        why: "Fig. 9 in miniature, the reference row: 4 models share 4 GPUs, actor 1-2-2 -> 1-1-2-2 every iteration. One core's time: nn 5/6, 64 TP-pair all-reduces 2.5 %, core, transition, genserve 1 % each.",
        driver: Driver::Ppo,
        gpus: 4,
        rows: 16,
        warmup: 20,
        window: 200,
        checkpoint_every: 100,
        learns: true,
        share_check: None,
        probes_mapping: true,
        base_config: colocated_config,
        placement: colocated_placement,
    },
    Workload {
        name: "grpo_long_rollout",
        why: "Generation-heavy GRPO with a verifier pool, 2 GPUs pure DP, 32 sequences of 8+56 tokens: decode and tape fwd/bwd (nn) take >9/10 of one core, core + simcluster <1 %; checked: nn + genserve > 4x rest.",
        driver: Driver::Grpo,
        gpus: 2,
        rows: 4,
        warmup: 2,
        window: 100,
        checkpoint_every: 50,
        learns: false,
        share_check: Some(ShareCheck {
            layers: &["nn", "genserve"],
            factor: 4.0,
            over: &["core", "simcluster", "hybridengine", "rlhf", "rewards"],
        }),
        probes_mapping: false,
        base_config: grpo_config,
        placement: grpo_placement,
    },
    Workload {
        name: "ppo_wide_small",
        why: "8 GPUs pure DP, a few-thousand-parameter model, 8 prompts of 4+4 tokens: nn is 1/5 of one core's time, 12 calls over 8 mailboxes 1/6, 8-thread all-reduces 1/8, glue and switches most of the rest.",
        driver: Driver::Ppo,
        gpus: 8,
        rows: 8,
        warmup: 20,
        window: 1000,
        checkpoint_every: 250,
        learns: true,
        share_check: Some(ShareCheck {
            layers: &["genserve", "core", "simcluster", "rlhf", "rest"],
            factor: 1.0,
            over: &["nn"],
        }),
        probes_mapping: false,
        base_config: wide_small_config,
        placement: wide_small_placement,
    },
    Workload {
        name: "ppo_split_pipelined",
        why: "PipelinedPpo (staleness 1, 2 chunks) on four disjoint 2-GPU pools: ppo_colocated's layers through held futures and chunked generation, 12 calls a step; nn 4/5 of one core, worker glue 1/7, core 1 %.",
        driver: Driver::Pipelined,
        gpus: 8,
        rows: 16,
        warmup: 20,
        window: 450,
        checkpoint_every: 150,
        learns: false,
        share_check: None,
        probes_mapping: false,
        base_config: RlhfConfig::tiny,
        placement: split_placement,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn strided(spec: ParallelSpec, pg: usize, tg: usize) -> WorkerLayout {
    WorkerLayout::with_gen(GenGrouping::new(spec, pg, tg, GroupingMethod::Strided))
}

/// `RlhfConfig::tiny()` with the inference passes that can run with
/// real tensor parallelism doing so: the critic's values and the actor's
/// recomputed log-probs are computed shard by shard and joined by
/// all-reduces inside each TP pair.
fn colocated_config() -> RlhfConfig {
    let mut c = RlhfConfig::tiny();
    c.hyper.tp_inference = true;
    c.recompute_logp = true;
    c
}

fn grpo_config() -> RlhfConfig {
    let mut c = RlhfConfig::tiny_verifier();
    c.lm = LmConfig { vocab: 16, hidden: 32, ffn: 64, layers: 4 };
    c.prompt_len = 8;
    c.response_len = 56;
    c.grpo_group = 8;
    c.updates = 1;
    c.reward_source = RewardSource::Verifier {
        spec: VerifierSpec { kind: VerifierKind::BracketMatch, vocab: 16 },
        // One slot per sequence of a rank's share: no task queues, so the
        // pool's makespan is one attempt and its drawn costs average out
        // (virtual_tokens_per_s differs by 0.14 % across seeds, not 1 %).
        pool: PoolConfig::new(16, 0x5eed),
    };
    c
}

fn wide_small_config() -> RlhfConfig {
    let mut c = RlhfConfig::tiny();
    c.lm = LmConfig { vocab: 32, hidden: 8, ffn: 16, layers: 2 };
    c.prompt_len = 4;
    c.response_len = 4;
    c.updates = 4;
    c
}

fn colocated_placement() -> Placement {
    let layout = strided(ParallelSpec::new(1, 2, 2), 1, 1);
    Placement::colocated(ResourcePool::contiguous(0, 4), layout, true, false)
}

fn grpo_placement() -> Placement {
    let layout = strided(ParallelSpec::new(1, 1, 2), 1, 1);
    Placement::colocated(ResourcePool::contiguous(0, 2), layout, false, false)
}

fn wide_small_placement() -> Placement {
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 8));
    Placement::colocated(ResourcePool::contiguous(0, 8), layout, true, false)
}

/// Four disjoint 2-GPU pools: actor (with a generation grouping),
/// critic, reference, reward.
fn split_placement() -> Placement {
    let spec = ParallelSpec::new(1, 1, 2);
    let on = |start, layout| ModelPlacement { pool: ResourcePool::contiguous(start, 2), layout };
    let train = WorkerLayout::train_only(spec);
    Placement {
        actor: on(0, strided(spec, 1, 1)),
        critic: Some(on(2, train)),
        reference: on(4, train),
        reward: on(6, train),
        cost: None,
    }
}

impl Workload {
    /// The RLHF configuration.
    pub fn config(&self) -> RlhfConfig {
        let mut cfg = (self.base_config)();
        cfg.hyper.seed = MODEL_SEED;
        cfg
    }

    /// Sequences generated per iteration (GRPO expands each prompt).
    pub fn sequences(&self, cfg: &RlhfConfig) -> usize {
        match self.driver {
            Driver::Grpo => self.rows * cfg.grpo_group,
            _ => self.rows,
        }
    }

    /// Prompt plus response tokens of one iteration's global batch —
    /// the numerator of the paper's RLHF throughput (§8.1).
    pub fn tokens_per_iter(&self, cfg: &RlhfConfig) -> usize {
        self.sequences(cfg) * (cfg.prompt_len + cfg.response_len)
    }
}

/// What one closed-loop call produced.
pub enum StepOutcome {
    /// The call returned; pipelined steps emit no stats while filling.
    Ok(Option<IterStats>),
    /// The call returned `Err` or panicked.
    Failed(String),
}

/// A built system plus its loop state.
pub struct Session {
    /// The workload being run.
    pub workload: &'static Workload,
    /// The RLHF configuration in use.
    pub cfg: RlhfConfig,
    /// The single controller.
    pub ctrl: Controller,
    /// The spawned worker groups.
    pub sys: RlhfSystem,
    pipeline: Option<PipelinedPpo>,
    seed: u64,
    /// Iterations issued so far, warm-up included.
    pub issued: u64,
    /// Mean score of every batch whose stats a call has returned so
    /// far, warm-up included (a pipelined driver trails by its fill).
    pub scores: Vec<f64>,
}

impl Session {
    /// Builds the controller and spawns every model (thread spawn
    /// included). `telemetry` is `Telemetry::disabled()` end to end.
    pub fn build(workload: &'static Workload, seed: u64, telemetry: Telemetry) -> Result<Session> {
        let cfg = workload.config();
        let ctrl = Controller::with_telemetry(
            ClusterSpec::a100_with_gpus(workload.gpus),
            CommCostModel::default(),
            telemetry,
        );
        let sys = RlhfSystem::build(&ctrl, &(workload.placement)(), cfg.clone())?;
        let pipeline = (workload.driver == Driver::Pipelined)
            .then(|| PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: 2 }));
        Ok(Session { workload, cfg, ctrl, sys, pipeline, seed, issued: 0, scores: Vec::new() })
    }

    /// A built system that has run its warm-up iterations, untimed.
    pub fn warmed_up(
        workload: &'static Workload,
        seed: u64,
        telemetry: Telemetry,
    ) -> Result<Session> {
        let mut session = Session::build(workload, seed, telemetry)?;
        for _ in 0..workload.warmup {
            if let StepOutcome::Failed(e) = session.step() {
                return Err(CoreError::Worker(format!("warm-up iteration: {e}")));
            }
        }
        Ok(session)
    }

    /// The prompt batch of iteration `iter`.
    pub fn prompts(&self, iter: u64) -> DataProto {
        let c = &self.cfg;
        make_prompts(
            self.workload.rows,
            c.prompt_len,
            c.response_len,
            c.lm.vocab as u32,
            self.seed.wrapping_add(iter),
        )
    }

    /// Issues the next iteration and waits for it.
    pub fn step(&mut self) -> StepOutcome {
        let prompts = self.prompts(self.issued);
        self.issued += 1;
        let (sys, ctrl) = (&self.sys, &self.ctrl);
        let pipeline = &mut self.pipeline;
        let call = AssertUnwindSafe(|| match self.workload.driver {
            Driver::Ppo => ppo_iteration(sys, ctrl, &prompts).map(Some),
            Driver::Grpo => grpo_iteration(sys, ctrl, &prompts).map(Some),
            Driver::Pipelined => {
                pipeline.as_mut().expect("pipelined driver").step(sys, ctrl, &prompts)
            }
        });
        match catch_unwind(call) {
            Ok(Ok(stats)) => {
                self.scores.extend(stats.iter().map(|s| f64::from(s.mean_score)));
                StepOutcome::Ok(stats)
            }
            Ok(Err(e)) => StepOutcome::Failed(e.to_string()),
            Err(_) => StepOutcome::Failed("iteration panicked".into()),
        }
    }

    /// Drains a pipelined driver's in-flight batches (no-op otherwise).
    pub fn flush(&mut self) -> Result<Vec<IterStats>> {
        match self.pipeline.as_mut() {
            Some(p) => p.flush(&self.sys, &self.ctrl),
            None => Ok(Vec::new()),
        }
    }
}

/// Whether every loss an iteration reported is a finite number.
pub fn finite(s: &IterStats) -> bool {
    [s.mean_score, s.actor_loss, s.critic_loss, s.entropy, s.ptx_loss].iter().all(|v| v.is_finite())
}
