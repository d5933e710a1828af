//! Per-GPU memory footprints (drives `get_min_alloc`, §6 Line 9, and the
//! best-effort KV-cache budget of Figure 15).
//!
//! Mixed precision follows §8.1: BF16 parameters (2 B), FP32 gradients
//! (4 B), FP32 Adam moments + master weights (12 B) — 18 B per trainable
//! parameter, matching Megatron-LM's distributed-optimizer accounting.

use hf_parallel::ParallelSpec;

use crate::config::ModelConfig;

/// Bytes per trainable parameter: BF16 weight + FP32 grad + FP32 Adam
/// m/v + FP32 master copy.
pub const TRAIN_STATE_BYTES_PER_PARAM: f64 = 18.0;

/// Bytes per inference-only parameter (BF16).
pub const INFER_BYTES_PER_PARAM: f64 = 2.0;

/// Activation bytes per token per layer per hidden unit held during
/// training, assuming activation checkpointing (inputs kept per layer
/// plus attention workspace) — all engines compared here recompute.
pub(crate) const ACT_BYTES_PER_TOKEN_PER_LAYER: f64 = 8.0;

/// Which engine shards the training state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainEngine {
    /// Megatron-style 3D parallelism with a distributed optimizer: model
    /// states divided by `p·t`, optimizer additionally by `d`.
    Megatron3D,
    /// ZeRO-3 data parallelism over this many ranks (DeepSpeed-Chat /
    /// OpenRLHF actor training): parameters, gradients and optimizer
    /// states all divided by the world, parameters all-gathered for every
    /// forward and backward pass.
    Zero3(usize),
}

/// Training-state bytes per GPU for `model` under `spec` and `engine`.
pub fn train_state_bytes_per_gpu(
    model: &ModelConfig,
    spec: &ParallelSpec,
    engine: TrainEngine,
) -> f64 {
    let p_total = model.params() as f64;
    match engine {
        TrainEngine::Megatron3D => {
            let per_mp = p_total / spec.mp() as f64;
            // BF16 params + FP32 grads resident per model-parallel shard;
            // optimizer states (m, v, master) sharded again over DP.
            per_mp * (2.0 + 4.0) + per_mp * 12.0 / spec.d as f64
        }
        TrainEngine::Zero3(world) => {
            let s = 1.0 / world as f64;
            p_total * (2.0 * s + 4.0 * s + 12.0 * s)
        }
    }
}

/// Activation bytes per GPU for one training micro-batch of
/// `micro_tokens` tokens: `34 · tokens · hidden · layers/p / t` (Megatron
/// selective-recompute estimate, ~34 B per token per layer per hidden
/// unit, sharded by TP).
pub fn activation_bytes_per_gpu(
    model: &ModelConfig,
    spec: &ParallelSpec,
    micro_tokens: f64,
) -> f64 {
    let layers_per_stage = model.layers as f64 / spec.p as f64;
    micro_tokens * model.hidden as f64 * layers_per_stage * ACT_BYTES_PER_TOKEN_PER_LAYER
        / spec.t as f64
}

/// Inference-only parameter bytes per GPU under a `(p, t)` model split.
pub fn infer_param_bytes_per_gpu(model: &ModelConfig, mp: usize) -> f64 {
    model.params() as f64 * INFER_BYTES_PER_PARAM / mp as f64
}

/// Generation-stage parameter bytes per GPU for a `p_g·t_g` shard.
pub fn gen_param_bytes_per_gpu(model: &ModelConfig, pg: usize, tg: usize) -> f64 {
    infer_param_bytes_per_gpu(model, pg * tg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megatron_memory_shrinks_with_mp() {
        let m = ModelConfig::llama_70b();
        let small =
            train_state_bytes_per_gpu(&m, &ParallelSpec::new(4, 8, 1), TrainEngine::Megatron3D);
        let big =
            train_state_bytes_per_gpu(&m, &ParallelSpec::new(1, 8, 4), TrainEngine::Megatron3D);
        assert!(small < big);
    }

    #[test]
    fn zero3_divides_all_states() {
        let m = ModelConfig::llama_7b();
        let z8 = TrainEngine::Zero3(8);
        let bytes = train_state_bytes_per_gpu(&m, &ParallelSpec::new(1, 1, 8), z8);
        let expect = m.params() as f64 * 18.0 / 8.0;
        assert!((bytes - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn gen_params_match_shard_fraction() {
        let m = ModelConfig::llama_13b();
        let b = gen_param_bytes_per_gpu(&m, 1, 4);
        assert!((b - m.param_bytes_bf16() / 4.0).abs() < 1.0);
    }
}
