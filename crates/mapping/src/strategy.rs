//! `auto_parallel` (paper Algorithm 2 / Appendix C): pick the best
//! parallelism strategy for one model on a given device count.
//!
//! Enumerates power-of-two tensor-parallel sizes up to the machine width
//! and pipeline sizes dividing the layer count, checks memory
//! feasibility (including the memory other colocated models keep
//! resident), and scores candidates with the analytic simulators. For
//! the actor, the generation tensor-parallel size `t_g ≤ t` is chosen
//! jointly, with the KV cache allocated best-effort from the remaining
//! GPU memory (§8.4) and the transition charged per the 3D-HybridEngine.

use hf_hybridengine::{transition_time, EngineMode};
use hf_modelspec::{memory, ModelConfig, PerfModel, RlhfWorkload, TrainEngine};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_simcluster::DeviceId;

use crate::dataflow::Role;

/// The actor's generation-stage choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenChoice {
    /// Generation pipeline-parallel size (1 in this implementation, as
    /// in vLLM 0.3.x which the paper builds on).
    pub pg: usize,
    /// Generation tensor-parallel size.
    pub tg: usize,
    /// Estimated generation latency per pass (seconds).
    pub(crate) latency: f64,
    /// Estimated train→generation transition time (seconds).
    pub(crate) transition: f64,
    /// Maximum concurrent sequences per generation replica.
    pub max_concurrent: usize,
}

/// A chosen parallelism strategy plus its estimated latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStrategy {
    /// Training/inference 3D layout.
    pub spec: ParallelSpec,
    /// Latency of one training update on a mini-batch (seconds), 0 for
    /// inference-only roles.
    pub(crate) train_latency: f64,
    /// Latency of one forward pass over the global batch (seconds).
    pub(crate) infer_latency: f64,
    /// Generation choice (actor only).
    pub gen: Option<GenChoice>,
    /// Model-state bytes resident per GPU under this strategy.
    pub(crate) state_bytes_per_gpu: f64,
}

fn pow2_up_to(max: usize) -> impl Iterator<Item = usize> {
    (0..=max.ilog2() as usize).map(|e| 1usize << e).filter(move |&v| v <= max)
}

/// Calibration of the CPU-bound verifier-pool cost model
/// ([`Role::RewardEvaluator`]). The pool runs on the host CPUs of the
/// machines backing an allocation, so throughput scales with the
/// allocation's *host share*, not with GPU FLOPs; constants mirror the
/// `hf-rewards` sandbox defaults at production verifier scale.
mod verifier {
    /// Sandbox slots contributed per allocated GPU's host-CPU share.
    pub(crate) const SLOTS_PER_GPU: usize = 16;
    /// Mean virtual seconds per verifier task (sandbox spawn + check).
    pub(crate) const TASK_MEAN_S: f64 = 0.15;
    /// Tail surcharge per batch: one straggler cancellation + retry at
    /// the per-task budget (the p99 the pool's cancellation policy
    /// bounds the batch to).
    pub(crate) const TAIL_S: f64 = 0.5;
    /// Host memory pinned by the pool (sandbox images + queues) —
    /// charged against GPU memory only nominally, since the pool holds
    /// no device state.
    pub(crate) const STATE_BYTES: f64 = 256e6;
}

/// Latency of one verifier-pool pass over the global batch on the host
/// CPUs backing `n` allocated GPUs: FIFO waves over the pool's slots
/// plus the cancellation-bounded tail. Monotone non-increasing in `n`,
/// which makes it its own admissible bound in [`role_cost_bounds`];
/// with it, GRPO's search places the pool off the GPU critical path
/// (`grpo_search_places_the_verifier_pool_off_the_gpu_critical_path`).
/// PPO, ReMax and Safe-RLHF have no CPU-bound role, so none of their
/// plans depends on it.
pub(crate) fn verifier_eval_latency(n: usize, workload: &RlhfWorkload) -> f64 {
    let slots = (n.max(1) * verifier::SLOTS_PER_GPU) as f64;
    let tasks = workload.global_batch as f64;
    (tasks / slots).ceil() * verifier::TASK_MEAN_S + verifier::TAIL_S
}

/// A memory-feasible `(p, t, d)` layout for one role on `n` GPUs.
struct LayoutCandidate {
    spec: ParallelSpec,
    /// Model-state bytes resident per GPU under this layout.
    state: f64,
}

/// Enumerates every layout `auto_parallel` considers for `(role, n)`
/// that passes the memory check under `resident_other` bytes of
/// colocation pressure. Shared by [`auto_parallel`] (which scores them)
/// and [`role_cost_bounds`] (which takes component-wise minima), so the
/// two walk exactly the same candidate space.
fn feasible_layouts(
    perf: &PerfModel,
    model: &ModelConfig,
    role: Role,
    n: usize,
    resident_other: f64,
    workload: &RlhfWorkload,
) -> Vec<LayoutCandidate> {
    let usable = perf.usable_gpu_bytes();
    let machine = perf.cluster.machine.gpus;
    let mut out = Vec::new();
    for t in pow2_up_to(machine.min(n)) {
        for p in pow2_up_to(n / t) {
            if !model.layers.is_multiple_of(p) || !n.is_multiple_of(p * t) {
                continue;
            }
            let d = n / (p * t);
            let spec = ParallelSpec::new(p, t, d);
            let state = if role.is_trained() {
                memory::train_state_bytes_per_gpu(model, &spec, TrainEngine::Megatron3D)
            } else {
                memory::infer_param_bytes_per_gpu(model, spec.mp())
            };
            // Activation head-room for one training micro-batch.
            let act = if role.is_trained() {
                memory::activation_bytes_per_gpu(model, &spec, workload.seq_len() as f64)
            } else {
                0.0
            };
            if state + act + resident_other > usable {
                continue;
            }
            out.push(LayoutCandidate { spec, state });
        }
    }
    out
}

/// Per-GPU KV-cache budget for generating with `t_g` on a layout whose
/// training state takes `state` bytes, under `resident_other` bytes of
/// colocation pressure. (The training BF16 weights overlap the
/// generation shard under the strided method — add back the
/// double-counted overlap, approximated by the training parameter
/// bytes.)
fn kv_budget(
    perf: &PerfModel,
    model: &ModelConfig,
    cand: &LayoutCandidate,
    tg: usize,
    resident_other: f64,
) -> f64 {
    perf.usable_gpu_bytes()
        - resident_other
        - cand.state
        - memory::gen_param_bytes_per_gpu(model, 1, tg)
        + memory::infer_param_bytes_per_gpu(model, cand.spec.mp())
}

/// Enumerates the actor's feasible generation choices for one training
/// layout: all `t_g ≤ t` whose KV budget is positive, with latency and
/// transition charged by the simulators.
fn gen_candidates(
    perf: &PerfModel,
    model: &ModelConfig,
    cand: &LayoutCandidate,
    n: usize,
    resident_other: f64,
    workload: &RlhfWorkload,
) -> Vec<GenChoice> {
    let devices: Vec<DeviceId> = (0..n).map(DeviceId).collect();
    let spec = cand.spec;
    let mut out = Vec::new();
    for tg in pow2_up_to(spec.t) {
        let grouping = GenGrouping::new(spec, 1, tg, GroupingMethod::Strided);
        let replicas = grouping.gen_replicas_total();
        let budget = kv_budget(perf, model, cand, tg, resident_other);
        if budget <= 0.0 {
            continue;
        }
        let bd = perf.generation_time(
            model,
            1,
            tg,
            replicas,
            &devices,
            workload.global_batch,
            workload.prompt_len,
            workload.response_len,
            budget,
            true,
        );
        let trans = transition_time(
            EngineMode::HybridFlow,
            model,
            &spec,
            &grouping,
            &devices,
            &perf.cluster,
            &perf.comm,
        );
        out.push(GenChoice {
            pg: 1,
            tg,
            latency: bd.total(),
            transition: trans,
            max_concurrent: bd.max_concurrent,
        });
    }
    out
}

/// Searches the best strategy for `model` in `role` on `n` contiguous
/// GPUs, with `resident_other` bytes per GPU already claimed by
/// colocated models. Returns `None` if nothing fits.
pub(crate) fn auto_parallel(
    perf: &PerfModel,
    model: &ModelConfig,
    role: Role,
    n: usize,
    resident_other: f64,
    workload: &RlhfWorkload,
) -> Option<ModelStrategy> {
    if role.is_cpu_bound() {
        // The verifier pool runs no GPU forward pass: any allocation is
        // memory-feasible (host state only), the "layout" is pure data
        // parallelism over the hosts, and latency comes from the pool
        // model rather than the analytic simulators.
        return Some(ModelStrategy {
            spec: ParallelSpec::new(1, 1, n),
            train_latency: 0.0,
            infer_latency: verifier_eval_latency(n, workload),
            gen: None,
            state_bytes_per_gpu: verifier::STATE_BYTES / n as f64,
        });
    }
    let devices: Vec<DeviceId> = (0..n).map(DeviceId).collect();
    let mut best: Option<(f64, ModelStrategy)> = None;

    for cand in feasible_layouts(perf, model, role, n, resident_other, workload) {
        let spec = cand.spec;
        let state = cand.state;
        let train_latency = if role.is_trained() {
            perf.train_time(
                model,
                &spec,
                &devices,
                workload.minibatch(),
                workload.seq_len(),
                TrainEngine::Megatron3D,
            )
        } else {
            0.0
        };
        let infer_latency = if role == Role::Actor {
            0.0 // the actor does not run a preparation-stage pass
        } else {
            perf.infer_time(model, &spec, &devices, workload.global_batch, workload.seq_len())
        };

        let gen = if role == Role::Actor {
            let best_gen = gen_candidates(perf, model, &cand, n, resident_other, workload)
                .into_iter()
                .min_by(|a, b| (a.latency + a.transition).total_cmp(&(b.latency + b.transition)));
            match best_gen {
                Some(g) => Some(g),
                None => continue, // no feasible generation layout
            }
        } else {
            None
        };

        let objective = match role {
            Role::Actor => {
                let g = gen.expect("actor has gen");
                train_latency * workload.total_updates() as f64 + g.latency + g.transition
            }
            Role::Critic => train_latency * workload.total_updates() as f64 + infer_latency,
            _ => infer_latency,
        };
        let strat =
            ModelStrategy { spec, train_latency, infer_latency, gen, state_bytes_per_gpu: state };
        if best.as_ref().map(|(b, _)| objective < *b).unwrap_or(true) {
            best = Some((objective, strat));
        }
    }
    best.map(|(_, s)| s)
}

/// Component-wise best-case latencies for one role on `n` GPUs — an
/// admissible (optimistic) lower bound on what any strategy
/// `auto_parallel` can return for this `(role, n)` pair under *any*
/// `resident_other ≥ 0`.
///
/// Admissibility: raising `resident_other` only shrinks the feasible
/// layout set (the memory filter is monotone in it) and only shrinks
/// each layout's KV budget, which can only slow generation (more,
/// smaller waves). Train and infer latencies depend on the layout
/// alone, not on pressure, so their minima over the zero-pressure
/// candidate space bound every reachable strategy; generation and
/// transition use [`PerfModel::generation_floor`] and 0, which are
/// layout- and budget-independent floors. If the zero-pressure
/// candidate space is empty, it is empty at every pressure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoleCostBounds {
    /// Floor on the single-pass generation latency (actor only, else 0).
    pub(crate) gen_latency: f64,
    /// Floor on the train→generation transition time (actor only, else
    /// 0; the transition floor is 0).
    pub(crate) transition: f64,
    /// Minimum one-update training latency (trained roles, else 0).
    pub(crate) train_latency: f64,
    /// Minimum preparation-stage forward latency (non-actor, else 0).
    pub(crate) infer_latency: f64,
}

/// Computes [`RoleCostBounds`] for `(role, n)`, or `None` if no layout
/// is feasible even at zero pressure (in which case every allocation
/// giving this role `n` GPUs is infeasible outright).
pub fn role_cost_bounds(
    perf: &PerfModel,
    model: &ModelConfig,
    role: Role,
    n: usize,
    workload: &RlhfWorkload,
) -> Option<RoleCostBounds> {
    if role.is_cpu_bound() {
        // Exact cost (pressure-independent), hence trivially admissible.
        return Some(RoleCostBounds {
            gen_latency: 0.0,
            transition: 0.0,
            train_latency: 0.0,
            infer_latency: verifier_eval_latency(n, workload),
        });
    }
    let devices: Vec<DeviceId> = (0..n).map(DeviceId).collect();
    let mut mins: Option<(f64, f64)> = None; // (train, infer)

    for cand in feasible_layouts(perf, model, role, n, 0.0, workload) {
        // An actor layout with no KV-feasible `t_g` can never yield a
        // strategy (a cheap memory check — no simulation).
        if role == Role::Actor
            && !pow2_up_to(cand.spec.t).any(|tg| kv_budget(perf, model, &cand, tg, 0.0) > 0.0)
        {
            continue;
        }
        let train_latency = if role.is_trained() {
            perf.train_time(
                model,
                &cand.spec,
                &devices,
                workload.minibatch(),
                workload.seq_len(),
                TrainEngine::Megatron3D,
            )
        } else {
            0.0
        };
        let infer_latency = if role == Role::Actor {
            0.0
        } else {
            perf.infer_time(model, &cand.spec, &devices, workload.global_batch, workload.seq_len())
        };
        mins = Some(match mins {
            None => (train_latency, infer_latency),
            Some((t, i)) => (t.min(train_latency), i.min(infer_latency)),
        });
    }

    let (train_latency, infer_latency) = mins?;
    let gen_latency = if role == Role::Actor {
        perf.generation_floor(
            model,
            n,
            workload.global_batch,
            workload.prompt_len,
            workload.response_len,
        )
    } else {
        0.0
    };
    Some(RoleCostBounds { gen_latency, transition: 0.0, train_latency, infer_latency })
}

/// Best-case resident state bytes per GPU for a model given `n` GPUs
/// (used to seed colocation budgets and `get_min_alloc`).
pub(crate) fn min_state_bytes_per_gpu(model: &ModelConfig, role: Role, n: usize) -> f64 {
    if role.is_cpu_bound() {
        return verifier::STATE_BYTES / n as f64;
    }
    let p = model.params() as f64;
    if role.is_trained() {
        p * memory::TRAIN_STATE_BYTES_PER_PARAM / n as f64
    } else {
        p * memory::INFER_BYTES_PER_PARAM / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_simcluster::ClusterSpec;

    fn perf(gpus: usize) -> PerfModel {
        PerfModel::new(ClusterSpec::a100_with_gpus(gpus))
    }

    #[test]
    fn finds_a_strategy_for_7b_on_8_gpus() {
        let s = auto_parallel(
            &perf(8),
            &ModelConfig::llama_7b(),
            Role::Actor,
            8,
            0.0,
            &RlhfWorkload::paper(),
        )
        .expect("7B must fit on 8 GPUs");
        assert_eq!(s.spec.world(), 8);
        let g = s.gen.expect("actor gets a generation choice");
        assert!(g.tg <= s.spec.t);
        assert!(g.latency > 0.0);
    }

    #[test]
    fn generation_tp_is_smaller_than_training_tp_for_7b() {
        // §8.4's headline: the actor should generate with a smaller TP
        // size than it trains with.
        let s = auto_parallel(
            &perf(16),
            &ModelConfig::llama_7b(),
            Role::Actor,
            16,
            0.0,
            &RlhfWorkload::paper(),
        )
        .unwrap();
        let g = s.gen.unwrap();
        assert!(
            g.tg < s.spec.mp().min(8),
            "expected t_g < training MP, got t_g={} with {}",
            g.tg,
            s.spec
        );
    }

    #[test]
    fn seventy_b_needs_more_than_8_gpus() {
        let none = auto_parallel(
            &perf(8),
            &ModelConfig::llama_70b(),
            Role::Actor,
            8,
            0.0,
            &RlhfWorkload::paper(),
        );
        assert!(none.is_none(), "70B training cannot fit 8×80GB");
        let some = auto_parallel(
            &perf(32),
            &ModelConfig::llama_70b(),
            Role::Actor,
            32,
            0.0,
            &RlhfWorkload::paper(),
        );
        assert!(some.is_some(), "70B must fit on 32 GPUs");
    }

    #[test]
    fn inference_roles_prefer_small_mp() {
        let s = auto_parallel(
            &perf(16),
            &ModelConfig::llama_7b(),
            Role::Reward,
            16,
            0.0,
            &RlhfWorkload::paper(),
        )
        .unwrap();
        assert!(s.train_latency == 0.0);
        assert!(s.infer_latency > 0.0);
        // A 7B inference-only model fits on one GPU; DP-heavy layouts
        // minimize forward latency.
        assert!(s.spec.mp() <= 2, "got {}", s.spec);
    }

    #[test]
    fn colocation_pressure_shrinks_feasible_space() {
        // With most memory claimed by colocated models, strategies that
        // fit at zero pressure disappear.
        let p = perf(8);
        let free = auto_parallel(
            &p,
            &ModelConfig::llama_13b(),
            Role::Actor,
            8,
            0.0,
            &RlhfWorkload::paper(),
        );
        let squeezed = auto_parallel(
            &p,
            &ModelConfig::llama_13b(),
            Role::Actor,
            8,
            p.usable_gpu_bytes() * 0.9,
            &RlhfWorkload::paper(),
        );
        assert!(free.is_some());
        assert!(squeezed.is_none());
    }
}

#[cfg(test)]
mod hardware_tests {
    use super::*;
    use hf_simcluster::{ClusterSpec, GpuSpec};

    /// §6's closing note: the mapping machinery extends to other devices
    /// by swapping the simulator's GPU spec — nothing else changes.
    #[test]
    fn smaller_gpus_force_larger_model_parallelism() {
        let w = RlhfWorkload::paper();
        let model = ModelConfig::llama_13b();
        let a80 = auto_parallel(
            &PerfModel::new(ClusterSpec::a100_with_gpus(16)),
            &model,
            Role::Actor,
            16,
            0.0,
            &w,
        )
        .expect("13B fits 16x80GB");
        let mut c40 = ClusterSpec::a100_with_gpus(16);
        c40.gpu = GpuSpec::a100_40g();
        let a40 = auto_parallel(&PerfModel::new(c40), &model, Role::Actor, 16, 0.0, &w)
            .expect("13B fits 16x40GB with more sharding");
        assert!(
            a40.spec.mp() >= a80.spec.mp(),
            "40GB must shard at least as much: {} vs {}",
            a40.spec,
            a80.spec
        );
        assert!(a40.state_bytes_per_gpu <= 40e9 * 0.9);
    }

    #[test]
    fn h100_strategies_predict_faster_iterations() {
        let w = RlhfWorkload::paper();
        let model = ModelConfig::llama_13b();
        let a100 = auto_parallel(
            &PerfModel::new(ClusterSpec::a100_with_gpus(32)),
            &model,
            Role::Actor,
            32,
            0.0,
            &w,
        )
        .unwrap();
        let h100 = auto_parallel(
            &PerfModel::new(ClusterSpec::h100_with_gpus(32)),
            &model,
            Role::Actor,
            32,
            0.0,
            &w,
        )
        .unwrap();
        assert!(h100.train_latency < a100.train_latency);
        assert!(h100.gen.unwrap().latency < a100.gen.unwrap().latency);
    }
}
