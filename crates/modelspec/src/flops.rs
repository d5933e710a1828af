//! FLOP and byte accounting for transformer forward/backward passes.
//!
//! Follows the standard accounting used by llm-analysis \[42\] and the
//! LLM-inference roofline survey \[84\] the paper cites: a matrix multiply
//! of shapes `(m×k)·(k×n)` costs `2mkn` FLOPs; the backward pass costs
//! twice the forward; attention score/value products add a
//! context-length-dependent term.

use crate::config::ModelConfig;

/// Matmul FLOPs for one token through all layers (weights only, no
/// attention-context term): `2 · matmul_params`.
pub fn matmul_flops_per_token(m: &ModelConfig) -> f64 {
    // Norm parameters do no matmul; embedding lookup is free; the LM head
    // is a vocab×hidden matmul.
    let layer_matmul = m.layer_params() - 2 * m.hidden as u64;
    2.0 * (layer_matmul * m.layers as u64 + (m.vocab * m.hidden) as u64) as f64
}

/// Attention score+value FLOPs for one token attending over `context`
/// positions: `4 · layers · hidden · context` (QKᵀ and A·V, causal).
pub fn attn_flops_per_token(m: &ModelConfig, context: f64) -> f64 {
    4.0 * m.layers as f64 * m.hidden as f64 * context
}

/// Forward FLOPs for a full sequence of `seq_len` tokens (causal
/// attention averages to `seq_len/2` context per token).
pub fn forward_flops_per_seq(m: &ModelConfig, seq_len: usize) -> f64 {
    let s = seq_len as f64;
    s * matmul_flops_per_token(m) + s * attn_flops_per_token(m, s / 2.0)
}

/// Training (forward + backward) FLOPs for a full sequence: 3× forward.
pub fn train_flops_per_seq(m: &ModelConfig, seq_len: usize) -> f64 {
    3.0 * forward_flops_per_seq(m, seq_len)
}

/// Forward FLOPs for decoding a single token with a KV cache, attending
/// over `context` cached positions.
pub fn decode_flops_per_token(m: &ModelConfig, context: f64) -> f64 {
    matmul_flops_per_token(m) + attn_flops_per_token(m, context)
}

/// KV-cache bytes for one sequence of `seq_len` positions.
pub fn kv_cache_bytes(m: &ModelConfig, seq_len: usize) -> f64 {
    m.kv_bytes_per_token() * seq_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_flops_close_to_2p_per_token() {
        // For short sequences the 2·P rule of thumb dominates.
        let m = ModelConfig::llama_7b();
        let per_token = forward_flops_per_seq(&m, 128) / 128.0;
        let two_p = 2.0 * m.params() as f64;
        assert!((per_token - two_p).abs() / two_p < 0.1, "{per_token:e} vs {two_p:e}");
    }

    #[test]
    fn train_is_three_times_forward() {
        let m = ModelConfig::llama_13b();
        let f = forward_flops_per_seq(&m, 2048);
        let t = train_flops_per_seq(&m, 2048);
        assert!((t - 3.0 * f).abs() < 1e-3 * t);
    }

    #[test]
    fn attention_term_grows_with_context() {
        let m = ModelConfig::llama_7b();
        let short = forward_flops_per_seq(&m, 1024) / 1024.0;
        let long = forward_flops_per_seq(&m, 8192) / 8192.0;
        assert!(long > short);
    }

    #[test]
    fn kv_cache_scales_linearly() {
        let m = ModelConfig::llama_70b();
        assert!((kv_cache_bytes(&m, 2048) - 2048.0 * m.kv_bytes_per_token()).abs() < 1.0);
    }
}
