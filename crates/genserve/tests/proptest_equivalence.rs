//! The engine's defining property: continuous batching, paged-cache
//! budgets, preemption-by-recompute, and prefix sharing are pure
//! scheduling — for any cache budget and block size, every request's
//! output is identical to running `TinyLm::generate` on it alone.

use hf_genserve::{GenConfig, GenRequest, GenServer};
use hf_nn::{LmConfig, TinyLm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 20;

fn lm() -> TinyLm {
    TinyLm::new(LmConfig { vocab: VOCAB, hidden: 10, ffn: 16, layers: 2 }, 7)
}

fn requests() -> impl Strategy<Value = Vec<GenRequest>> {
    // A shared pool of short prompts makes identical prefixes (and so
    // prefix-cache hits) likely across requests in one batch.
    let prompt = proptest::collection::vec(0usize..VOCAB, 1..10);
    let req =
        (prompt, 1usize..12, 0u32..2, 0u64..1 << 48).prop_map(|(prompt, max_new, greedy, seed)| {
            GenRequest {
                prompt,
                max_new_tokens: max_new,
                temperature: if greedy == 0 { 0.0 } else { 1.0 },
                seed,
                stop_tokens: Vec::new(),
            }
        });
    proptest::collection::vec(req, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_output_identical_to_sequential_generate(
        reqs in requests(),
        block_tokens in 1usize..7,
        // Budget in blocks over the minimum any single request needs,
        // from "constant preemption" to "never preempt".
        extra_blocks in 0usize..24,
        max_batch in 1usize..9,
    ) {
        let lm = lm();
        let slot_bytes = lm.decode_start().cache_bytes();
        // The scheduler requires every request to fit alone.
        let min_blocks = reqs
            .iter()
            .map(|r| (r.prompt.len() + r.max_new_tokens - 1).div_ceil(block_tokens))
            .max()
            .unwrap();
        let cfg = GenConfig {
            block_tokens,
            cache_budget_bytes: (min_blocks + extra_blocks) * block_tokens * slot_bytes,
            max_batch,
        };
        let mut server = GenServer::new(cfg);
        server.install_weights(&lm);
        let (outs, report) = server.generate(&reqs).unwrap();
        prop_assert_eq!(outs.len(), reqs.len());
        for (i, (o, r)) in outs.iter().zip(reqs.iter()).enumerate() {
            let mut rng = StdRng::seed_from_u64(r.seed);
            let expect = lm.generate(&r.prompt, r.max_new_tokens, r.temperature, &mut rng);
            prop_assert_eq!(
                &o.tokens,
                &expect,
                "request {} diverged (block_tokens {}, budget {} blocks, batch {}, \
                 preemptions {}, prefix hits {})",
                i, block_tokens, min_blocks + extra_blocks, max_batch,
                report.preemptions, report.prefix_hit_tokens
            );
        }
    }

    #[test]
    fn stop_tokens_truncate_the_sequential_output(
        prompt in proptest::collection::vec(0usize..VOCAB, 1..8),
        max_new in 1usize..12,
        stop in 0usize..VOCAB,
        seed in 0u64..1 << 48,
    ) {
        let lm = lm();
        let mut server = GenServer::new(GenConfig::default());
        server.install_weights(&lm);
        let req = GenRequest {
            prompt: prompt.clone(),
            max_new_tokens: max_new,
            temperature: 1.0,
            seed,
            stop_tokens: vec![stop],
        };
        let (outs, _) = server.generate(std::slice::from_ref(&req)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let full = lm.generate(&prompt, max_new, 1.0, &mut rng);
        // The engine's output is the sequential output truncated just
        // after the first stop token (if any).
        let expect = match full.iter().position(|t| *t == stop) {
            Some(p) => &full[..=p],
            None => &full[..],
        };
        prop_assert_eq!(&outs[0].tokens, expect);
    }
}
