//! Llama-family model architecture descriptions (paper §8.1: "Each model
//! is a Llama model with sizes ranging from 7B to 70B").

/// Architecture of a decoder-only transformer LM.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name, e.g. `"llama-7b"`.
    pub name: String,
    /// Number of transformer layers.
    pub layers: usize,
    /// Hidden (model) dimension.
    pub hidden: usize,
    /// Feed-forward intermediate dimension (SwiGLU: three matrices).
    pub ffn: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Number of key/value heads (grouped-query attention).
    pub kv_heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
}

impl ModelConfig {
    /// Llama-2 7B.
    pub fn llama_7b() -> Self {
        ModelConfig {
            name: "llama-7b".into(),
            layers: 32,
            hidden: 4096,
            ffn: 11008,
            heads: 32,
            kv_heads: 32,
            vocab: 32000,
        }
    }

    /// Llama-2 13B.
    pub fn llama_13b() -> Self {
        ModelConfig {
            name: "llama-13b".into(),
            layers: 40,
            hidden: 5120,
            ffn: 13824,
            heads: 40,
            kv_heads: 40,
            vocab: 32000,
        }
    }

    /// Llama-family 34B (CodeLlama-34B shape; grouped-query attention).
    pub fn llama_34b() -> Self {
        ModelConfig {
            name: "llama-34b".into(),
            layers: 48,
            hidden: 8192,
            ffn: 22016,
            heads: 64,
            kv_heads: 8,
            vocab: 32000,
        }
    }

    /// Llama-2 70B (grouped-query attention).
    pub fn llama_70b() -> Self {
        ModelConfig {
            name: "llama-70b".into(),
            layers: 80,
            hidden: 8192,
            ffn: 28672,
            heads: 64,
            kv_heads: 8,
            vocab: 32000,
        }
    }

    /// The evaluation's model-scale ladder (§8.2).
    pub fn paper_sizes() -> Vec<ModelConfig> {
        vec![Self::llama_7b(), Self::llama_13b(), Self::llama_34b(), Self::llama_70b()]
    }

    /// A by-name lookup for the paper sizes.
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        Self::paper_sizes().into_iter().find(|m| m.name == name)
    }

    /// A deliberately tiny config for functional tests.
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny".into(),
            layers: 4,
            hidden: 64,
            ffn: 128,
            heads: 4,
            kv_heads: 4,
            vocab: 64,
        }
    }

    /// Head dimension `hidden / heads`.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Parameters in one transformer layer (attention + SwiGLU MLP +
    /// norms).
    pub fn layer_params(&self) -> u64 {
        let h = self.hidden as u64;
        let kv_frac = self.kv_heads as u64;
        let heads = self.heads as u64;
        // Q and O projections are h×h; K and V are h×(h·kv/heads).
        let attn = 2 * h * h + 2 * h * h * kv_frac / heads;
        let mlp = 3 * h * self.ffn as u64;
        let norms = 2 * h;
        attn + mlp + norms
    }

    /// Embedding + LM-head parameters (untied, as in Llama).
    pub fn embedding_params(&self) -> u64 {
        2 * self.vocab as u64 * self.hidden as u64
    }

    /// Total parameter count.
    pub fn params(&self) -> u64 {
        self.layer_params() * self.layers as u64 + self.embedding_params()
    }

    /// Model size in bytes at BF16 precision.
    pub fn param_bytes_bf16(&self) -> f64 {
        self.params() as f64 * 2.0
    }

    /// KV-cache bytes per sequence position (both K and V, all layers,
    /// BF16).
    pub fn kv_bytes_per_token(&self) -> f64 {
        2.0 * self.layers as f64 * self.kv_heads as f64 * self.head_dim() as f64 * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_match_published_sizes() {
        // Published totals: 6.74B, 13.0B, 33.7B (34B class), 69.0B (70B).
        let cases = [
            (ModelConfig::llama_7b(), 6.74e9, 0.02),
            (ModelConfig::llama_13b(), 13.0e9, 0.02),
            (ModelConfig::llama_34b(), 33.7e9, 0.03),
            (ModelConfig::llama_70b(), 69.0e9, 0.02),
        ];
        for (m, expect, tol) in cases {
            let p = m.params() as f64;
            assert!(
                (p - expect).abs() / expect < tol,
                "{}: {p:.3e} vs published {expect:.3e}",
                m.name
            );
        }
    }

    #[test]
    fn kv_cache_is_smaller_with_gqa() {
        let m7 = ModelConfig::llama_7b();
        let m70 = ModelConfig::llama_70b();
        // 7B MHA: 2·32·4096·2 bytes/token. 70B GQA: 2·80·8·128·2.
        assert!((m7.kv_bytes_per_token() - 524288.0).abs() < 1.0);
        assert!((m70.kv_bytes_per_token() - 327680.0).abs() < 1.0);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(ModelConfig::by_name("llama-13b").unwrap().layers, 40);
        assert!(ModelConfig::by_name("gpt-5").is_none());
    }

    #[test]
    fn layers_divisible_by_paper_pp_sizes() {
        // Auto-parallel explores p up to 8; all ladder models must split.
        for m in ModelConfig::paper_sizes() {
            for p in [1, 2, 4, 8] {
                assert_eq!(m.layers % p, 0, "{} layers {} p {p}", m.name, m.layers);
            }
        }
    }
}
