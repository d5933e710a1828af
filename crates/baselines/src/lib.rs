//! Baseline RLHF system models (paper §8.1, Table 1).
//!
//! Each baseline is characterized by the structural facts Table 1
//! records, evaluated against the *same* substrate (cluster model,
//! collective costs, analytic simulators) as HybridFlow:
//!
//! * **DeepSpeed-Chat** — colocates all models on every GPU; trains
//!   actor and critic with ZeRO-3 (whole-model parameter traffic per
//!   step); its Hybrid Engine reshards ZeRO→TP by all-gathering across
//!   all GPUs, layer by layer; colocation squeezes the KV-cache budget.
//! * **OpenRLHF** — each model on its own devices, plus a *second* copy
//!   of the actor on dedicated vLLM GPUs; training is ZeRO-3; every
//!   iteration synchronizes weights train-copy → generation-copy across
//!   sets; models idle outside their stage.
//! * **NeMo-Aligner** — actor+reference on one half, critic+reward on
//!   the other; identical 3D parallelism for training and generation
//!   (no resharding at all) and a generation engine without a KV cache,
//!   which recomputes the prefix for every decoded token.
//! * **HybridFlow** — delegates to the `hf-mapping` Algorithm 1 search.
//!
//! [`estimate`] returns `None` when a system cannot fit the models at
//! the given cluster size (the paper likewise starts each curve at the
//! smallest non-OOM scale).

#![warn(missing_docs)]

use hf_hybridengine::{transition_time, EngineMode};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper, Role};
use hf_modelspec::{memory, ModelConfig, PerfModel, TrainEngine};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_simcluster::{CollectiveKind, DeviceId};

/// The RLHF systems compared in §8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// DeepSpeed-Chat v0.14-style execution.
    DeepSpeedChat,
    /// OpenRLHF v0.2-style execution.
    OpenRlhf,
    /// NeMo-Aligner v0.2-style execution.
    NemoAligner,
    /// HybridFlow with auto-mapping.
    HybridFlow,
}

impl System {
    /// All four systems.
    pub fn all() -> [System; 4] {
        [System::DeepSpeedChat, System::OpenRlhf, System::NemoAligner, System::HybridFlow]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            System::DeepSpeedChat => "DeepSpeed-Chat",
            System::OpenRlhf => "OpenRLHF",
            System::NemoAligner => "NeMo-Aligner",
            System::HybridFlow => "HybridFlow",
        }
    }
}

/// Estimated per-stage latencies of one RLHF iteration for a system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Which system.
    pub(crate) system: System,
    /// Generation-stage latency (includes transition).
    pub generation: f64,
    /// Preparation-stage latency.
    pub preparation: f64,
    /// Training-stage latency.
    pub training: f64,
    /// Transition / weight-sync component (inside `generation`).
    pub transition: f64,
}

impl Estimate {
    /// End-to-end iteration latency.
    pub fn total(&self) -> f64 {
        self.generation + self.preparation + self.training
    }

    /// Throughput in tokens/s for the dataflow's workload.
    pub fn throughput(&self, df: &DataflowSpec) -> f64 {
        df.workload.throughput(self.total())
    }
}

fn devices(n: usize) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

fn pow2s(max: usize) -> impl Iterator<Item = usize> {
    (0..=max.max(1).ilog2() as usize).map(|e| 1usize << e).filter(move |&v| v <= max)
}

/// Smallest power-of-two generation TP whose weight shard leaves
/// `kv_headroom` bytes of KV space per GPU. Returns `None` if even the
/// machine width cannot fit.
fn fit_gen_tp(
    perf: &PerfModel,
    model: &ModelConfig,
    resident: f64,
    kv_headroom: f64,
) -> Option<usize> {
    let usable = perf.usable_gpu_bytes();
    pow2s(perf.cluster.machine.gpus).find(|&tg| {
        resident + memory::gen_param_bytes_per_gpu(model, 1, tg) + kv_headroom <= usable
    })
}

/// DeepSpeed-Chat: colocate everything, ZeRO-3 training, full-cluster
/// hybrid-engine resharding.
fn ds_chat(perf: &PerfModel, df: &DataflowSpec, n: usize) -> Option<Estimate> {
    let usable = perf.usable_gpu_bytes();
    let devs = devices(n);
    let w = &df.workload;
    let roles = df.roles();
    // Everything ZeRO-3-sharded across all N GPUs.
    let resident: f64 = roles
        .iter()
        .map(|&r| {
            let p = df.model(r).params() as f64;
            if r.is_trained() {
                p * 18.0 / n as f64
            } else {
                p * 2.0 / n as f64
            }
        })
        .sum();
    let act = memory::activation_bytes_per_gpu(
        df.model(Role::Actor),
        &ParallelSpec::new(1, 1, n),
        w.seq_len() as f64,
    );
    if resident + act > usable {
        return None;
    }
    let zero = TrainEngine::Zero3(n);
    let spec = ParallelSpec::new(1, 1, n);

    // Training stage: actor and critic serialize on the shared devices.
    let mut training = 0.0;
    for &r in &roles {
        if r.is_trained() {
            training += w.total_updates() as f64
                * perf.train_time(df.model(r), &spec, &devs, w.minibatch(), w.seq_len(), zero);
        }
    }
    // Preparation: critic values + reference + reward (+ cost) serialize;
    // ZeRO-3 inference re-gathers parameters each pass.
    let mut preparation = 0.0;
    for &r in &roles {
        if r == Role::Actor {
            continue;
        }
        let passes = if r == Role::Reward { df.algo.generation_passes() as f64 } else { 1.0 };
        let gather = perf.comm.collective_time(
            &perf.cluster,
            &devs,
            CollectiveKind::AllGather,
            df.model(r).params() as f64 * 2.0,
        );
        preparation += passes
            * (perf.infer_time(df.model(r), &spec, &devs, w.global_batch, w.seq_len()) + gather);
    }
    // Generation: reshard ZeRO→TP across all GPUs (layer by layer), then
    // generate with the KV cache squeezed by colocated states. DS-Chat's
    // hybrid engine switches to machine-wide TP for generation rather
    // than searching for the throughput-optimal width.
    let actor = df.model(Role::Actor);
    let tg = perf.cluster.machine.gpus.min(n);
    if resident + memory::gen_param_bytes_per_gpu(actor, 1, tg) + 2e9 > usable {
        return None;
    }
    let kv_budget = usable - resident - memory::gen_param_bytes_per_gpu(actor, 1, tg);
    let replicas = (n / tg).max(1);
    let bd = perf.generation_time(
        actor,
        1,
        tg,
        replicas,
        &devs,
        w.global_batch,
        w.prompt_len,
        w.response_len,
        kv_budget,
        true,
    );
    // DS-Chat transition: all-gather over all N_a GPUs. Model it with the
    // engine's own spec = (1,1,n) → mp group is the whole cluster.
    let trans_spec = ParallelSpec::new(1, n, 1); // tp group = all devices
    let grouping = GenGrouping::new(trans_spec, 1, tg.min(n), GroupingMethod::Vanilla);
    let transition = transition_time(
        EngineMode::DsChat,
        actor,
        &trans_spec,
        &grouping,
        &devs,
        &perf.cluster,
        &perf.comm,
    );
    Some(Estimate {
        system: System::DeepSpeedChat,
        generation: df.algo.generation_passes() as f64 * bd.total() + transition,
        preparation,
        training,
        transition,
    })
}

/// OpenRLHF: standalone placement with a dedicated generation copy of
/// the actor and per-iteration weight synchronization.
fn open_rlhf(perf: &PerfModel, df: &DataflowSpec, n: usize) -> Option<Estimate> {
    let w = &df.workload;
    let usable = perf.usable_gpu_bytes();
    let roles = df.roles();
    // Allocation follows OpenRLHF practice: the training copy and the
    // vLLM generation copy each take a large share; memory minimums are
    // enforced per set. Demands: actor-train, actor-gen, then the other
    // roles (critic, ref, rm, cost).
    let others: Vec<Role> = roles.iter().copied().filter(|&r| r != Role::Actor).collect();
    let mut shares = vec![0.30f64, 0.30];
    let other_share = 0.40 / others.len() as f64;
    shares.extend(std::iter::repeat_n(other_share, others.len()));
    let mem_bytes = |i: usize| -> f64 {
        match i {
            0 => df.actor.params() as f64 * 18.0,
            1 => df.actor.params() as f64 * 2.0,
            _ => {
                let r = others[i - 2];
                df.model(r).params() as f64 * if r.is_trained() { 18.0 } else { 2.0 }
            }
        }
    };
    let k = shares.len();
    let mins: Vec<usize> =
        (0..k).map(|i| ((mem_bytes(i) / (usable * 0.9)).ceil() as usize).max(1)).collect();
    if mins.iter().sum::<usize>() > n {
        return None; // cannot fit one set per model
    }
    let mut alloc: Vec<usize> =
        (0..k).map(|i| ((shares[i] * n as f64).floor() as usize).max(mins[i])).collect();
    // Repair the sum to n: trim sets with the most slack, grow the most
    // loaded ones.
    loop {
        let s: usize = alloc.iter().sum();
        if s == n {
            break;
        }
        if s > n {
            let i = (0..k)
                .filter(|&i| alloc[i] > mins[i])
                .max_by_key(|&i| alloc[i] - mins[i])
                .expect("mins sum <= n guarantees slack");
            alloc[i] -= 1;
        } else {
            let i = (0..k)
                .max_by(|&a, &b| {
                    (shares[a] / alloc[a] as f64).total_cmp(&(shares[b] / alloc[b] as f64))
                })
                .expect("nonempty");
            alloc[i] += 1;
        }
    }

    let train_n = alloc[0];
    let gen_n = alloc[1];
    let zero = TrainEngine::Zero3(train_n);
    let actor = &df.actor;
    let actor_train = w.total_updates() as f64
        * perf.train_time(
            actor,
            &ParallelSpec::new(1, 1, train_n),
            &devices(train_n),
            w.minibatch(),
            w.seq_len(),
            zero,
        );

    // Generation on dedicated GPUs: full memory for weights + KV cache.
    let tg = fit_gen_tp(perf, actor, 0.0, 2e9)?.min(gen_n);
    let kv_budget = usable - memory::gen_param_bytes_per_gpu(actor, 1, tg);
    let replicas = (gen_n / tg).max(1);
    let bd = perf.generation_time(
        actor,
        1,
        tg,
        replicas,
        &devices(gen_n),
        w.global_batch,
        w.prompt_len,
        w.response_len,
        kv_budget,
        true,
    );

    // Weight sync: broadcast the whole model from the training set to the
    // generation set, layer by layer (two copies of actor weights).
    let union_devs = devices(train_n + gen_n);
    let m_bytes = actor.param_bytes_bf16();
    let layers = actor.layers as f64;
    let transition = layers
        * perf.comm.collective_time(
            &perf.cluster,
            &union_devs,
            CollectiveKind::Broadcast,
            m_bytes / layers,
        );

    // Preparation: critic / reference / reward (/ cost) on their own sets
    // run in parallel → stage latency is the slowest.
    let mut prep: f64 = 0.0;
    let mut critic_train = 0.0;
    for (i, &r) in roles.iter().filter(|&&r| r != Role::Actor).enumerate() {
        let g = alloc[2 + i];
        let model = df.model(r);
        let spec = if r.is_trained() {
            ParallelSpec::new(1, 1, g)
        } else {
            // Inference-only: minimal TP that fits, rest data-parallel.
            let mp = pow2s(perf.cluster.machine.gpus.min(g))
                .find(|&t| model.params() as f64 * 2.0 / t as f64 <= usable)?;
            ParallelSpec::new(1, mp, (g / mp).max(1))
        };
        let devs_r = devices(spec.world());
        let passes = if r == Role::Reward { df.algo.generation_passes() as f64 } else { 1.0 };
        let t = passes * perf.infer_time(model, &spec, &devs_r, w.global_batch, w.seq_len());
        prep = prep.max(t);
        if r == Role::Critic {
            let zero_c = TrainEngine::Zero3(g);
            critic_train = w.total_updates() as f64
                * perf.train_time(
                    model,
                    &ParallelSpec::new(1, 1, g),
                    &devices(g),
                    w.minibatch(),
                    w.seq_len(),
                    zero_c,
                );
        }
    }

    Some(Estimate {
        system: System::OpenRlhf,
        generation: df.algo.generation_passes() as f64 * bd.total() + transition,
        preparation: prep,
        // Actor and critic train in parallel on disjoint sets.
        training: actor_train.max(critic_train),
        transition,
    })
}

/// NeMo-Aligner: split placement, identical 3D layout for training and
/// generation (shared weights, no transition), no KV cache.
fn nemo(perf: &PerfModel, df: &DataflowSpec, n: usize) -> Option<Estimate> {
    if df.algo == AlgoKind::ReMax {
        return None; // the paper: NeMo-Aligner doesn't support ReMax
    }
    let w = &df.workload;
    let usable = perf.usable_gpu_bytes();
    if n < 2 {
        return None;
    }
    let half = n / 2;
    let machine = perf.cluster.machine.gpus;

    // Actor (+ reference) half: minimal-fit 3D layout for training.
    let actor = &df.actor;
    let pick_layout = |model: &ModelConfig, g: usize, extra: f64| -> Option<ParallelSpec> {
        for t in pow2s(machine.min(g)) {
            for p in pow2s(g / t) {
                if !model.layers.is_multiple_of(p) || !g.is_multiple_of(p * t) {
                    continue;
                }
                let spec = ParallelSpec::new(p, t, g / (p * t));
                let state =
                    memory::train_state_bytes_per_gpu(model, &spec, TrainEngine::Megatron3D);
                let act = memory::activation_bytes_per_gpu(model, &spec, w.seq_len() as f64);
                if state + act + extra <= usable {
                    return Some(spec);
                }
            }
        }
        None
    };
    let ref_resident = df.reference.params() as f64 * 2.0 / half as f64;
    let a_spec = pick_layout(actor, half, ref_resident)?;
    let devs_half = devices(half);
    let actor_train = w.total_updates() as f64
        * perf.train_time(
            actor,
            &a_spec,
            &devs_half,
            w.minibatch(),
            w.seq_len(),
            TrainEngine::Megatron3D,
        );
    // Generation: the *same* 3D layout as training (t_g = t, p_g = p;
    // shared weights, Table 1), through NeMo 0.2's generation path,
    // which lacks an efficient KV cache (§8.2: "Due to the lack of
    // KVCache in generation engine, NeMo-Aligner's main performance
    // bottleneck lies in the generation stage"). A *fully* cache-less
    // engine would recompute the whole prefix for every decoded token
    // (60–95× end-to-end gaps — worse than the paper reports), while a
    // vLLM-grade cache would be only ~3× slower; NeMo's measured 12.5×
    // average gap sits between, so the engine is modeled as KV decode
    // plus a calibrated fraction of full prefix recompute (cache
    // rebuilds / unmanaged fragmentation). See DESIGN.md.
    const NEMO_RECOMPUTE_FRACTION: f64 = 0.12;
    let a_state = memory::train_state_bytes_per_gpu(actor, &a_spec, TrainEngine::Megatron3D);
    let kv_budget = (usable - ref_resident - a_state).max(1e9);
    let bd = perf.generation_time(
        actor,
        a_spec.p,
        a_spec.t,
        a_spec.d,
        &devs_half,
        w.global_batch,
        w.prompt_len,
        w.response_len,
        kv_budget,
        true,
    );
    let bd_recompute = perf.generation_time(
        actor,
        a_spec.p,
        a_spec.t,
        a_spec.d,
        &devs_half,
        w.global_batch,
        w.prompt_len,
        w.response_len,
        kv_budget,
        false,
    );
    let generation = bd.total() + NEMO_RECOMPUTE_FRACTION * bd_recompute.decode;

    // Critic + reward (+ cost) half.
    let critic_resident: f64 = df
        .roles()
        .iter()
        .filter(|&&r| matches!(r, Role::Reward | Role::Cost))
        .map(|&r| df.model(r).params() as f64 * 2.0 / half as f64)
        .sum();
    let c_spec = pick_layout(&df.critic, half, critic_resident)?;
    let critic_train = w.total_updates() as f64
        * perf.train_time(
            &df.critic,
            &c_spec,
            &devs_half,
            w.minibatch(),
            w.seq_len(),
            TrainEngine::Megatron3D,
        );

    // Preparation: ref (actor half) vs critic+reward(+cost) (other half).
    let infer_of = |model: &ModelConfig, spec: &ParallelSpec| {
        perf.infer_time(model, spec, &devices(spec.world()), w.global_batch, w.seq_len())
    };
    let ref_mp = pow2s(machine.min(half))
        .find(|&t| df.reference.params() as f64 * 2.0 / t as f64 <= usable)?;
    let ref_spec = ParallelSpec::new(1, ref_mp, (half / ref_mp).max(1));
    let prep_left = infer_of(&df.reference, &ref_spec);
    let mut prep_right = infer_of(&df.critic, &c_spec);
    for &r in df.roles().iter().filter(|&&r| matches!(r, Role::Reward | Role::Cost)) {
        let mp = pow2s(machine.min(half))
            .find(|&t| df.model(r).params() as f64 * 2.0 / t as f64 <= usable)?;
        let spec = ParallelSpec::new(1, mp, (half / mp).max(1));
        prep_right += infer_of(df.model(r), &spec);
    }

    Some(Estimate {
        system: System::NemoAligner,
        generation,
        preparation: prep_left.max(prep_right),
        training: actor_train.max(critic_train),
        transition: 0.0,
    })
}

/// HybridFlow via the Algorithm 1 search.
fn hybridflow(perf: &PerfModel, df: &DataflowSpec, n: usize) -> Option<Estimate> {
    let mapper = Mapper::new(perf.clone(), df.clone(), n);
    let best = mapper.search()?;
    Some(Estimate {
        system: System::HybridFlow,
        generation: best.costs.generation,
        preparation: best.costs.preparation,
        training: best.costs.training,
        transition: best.costs.transition,
    })
}

/// Estimates one system's iteration latency breakdown, or `None` if the
/// models do not fit at this cluster size.
pub fn estimate(system: System, perf: &PerfModel, df: &DataflowSpec, n: usize) -> Option<Estimate> {
    match system {
        System::DeepSpeedChat => ds_chat(perf, df, n),
        System::OpenRlhf => open_rlhf(perf, df, n),
        System::NemoAligner => nemo(perf, df, n),
        System::HybridFlow => hybridflow(perf, df, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_modelspec::RlhfWorkload;
    use hf_simcluster::ClusterSpec;

    fn setting(model: ModelConfig, gpus: usize) -> (PerfModel, DataflowSpec) {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(gpus));
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model, RlhfWorkload::paper());
        (perf, df)
    }

    #[test]
    fn all_systems_produce_estimates_for_7b_on_16() {
        let (perf, df) = setting(ModelConfig::llama_7b(), 16);
        for sys in System::all() {
            let e = estimate(sys, &perf, &df, 16).unwrap_or_else(|| panic!("{sys:?} failed"));
            assert!(e.total() > 0.0, "{sys:?}");
            assert!(e.generation > 0.0, "{sys:?}");
        }
    }

    #[test]
    fn hybridflow_beats_all_baselines() {
        // The headline result (§8.2): HybridFlow outperforms every
        // baseline at every feasible scale.
        for (model, gpus) in [
            (ModelConfig::llama_7b(), 16),
            (ModelConfig::llama_7b(), 32),
            (ModelConfig::llama_13b(), 32),
        ] {
            let (perf, df) = setting(model.clone(), gpus);
            let hf = estimate(System::HybridFlow, &perf, &df, gpus).expect("hybridflow fits");
            for sys in [System::DeepSpeedChat, System::OpenRlhf, System::NemoAligner] {
                if let Some(e) = estimate(sys, &perf, &df, gpus) {
                    assert!(
                        hf.total() < e.total(),
                        "{} on {gpus} GPUs: HybridFlow {:.1}s vs {} {:.1}s",
                        model.name,
                        hf.total(),
                        sys.label(),
                        e.total()
                    );
                }
            }
        }
    }

    #[test]
    fn nemo_generation_dominates_its_iteration() {
        // §8.2: NeMo's generation stage accounts for the bulk (up to
        // ~81%) of its iteration time.
        let (perf, df) = setting(ModelConfig::llama_7b(), 16);
        let e = estimate(System::NemoAligner, &perf, &df, 16).unwrap();
        let share = e.generation / e.total();
        assert!(share > 0.6, "generation share = {share}");
        assert_eq!(e.transition, 0.0, "shared weights → no transition");
    }

    #[test]
    fn nemo_does_not_support_remax() {
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(16));
        let df =
            DataflowSpec::uniform(AlgoKind::ReMax, ModelConfig::llama_7b(), RlhfWorkload::paper());
        assert!(estimate(System::NemoAligner, &perf, &df, 16).is_none());
    }

    #[test]
    fn transition_ordering_hybridflow_smallest() {
        let (perf, df) = setting(ModelConfig::llama_13b(), 32);
        let hf = estimate(System::HybridFlow, &perf, &df, 32).unwrap();
        let ds = estimate(System::DeepSpeedChat, &perf, &df, 32).unwrap();
        let or = estimate(System::OpenRlhf, &perf, &df, 32).unwrap();
        assert!(hf.transition < ds.transition, "{} vs {}", hf.transition, ds.transition);
        assert!(hf.transition < or.transition, "{} vs {}", hf.transition, or.transition);
    }

    #[test]
    fn seventy_b_needs_a_large_cluster() {
        let (perf, df) = setting(ModelConfig::llama_70b(), 16);
        assert!(estimate(System::DeepSpeedChat, &perf, &df, 16).is_none());
        let (perf, df) = setting(ModelConfig::llama_70b(), 128);
        assert!(estimate(System::HybridFlow, &perf, &df, 128).is_some());
    }
}
