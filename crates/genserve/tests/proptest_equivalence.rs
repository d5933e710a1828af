//! The engine's defining property: continuous batching, paged-cache
//! budgets, preemption-by-recompute, and prefix sharing are pure
//! scheduling — for any cache budget and block size, every request's
//! output is identical to running `TinyLm::generate` on it alone, and
//! the log-prob it records with each token is the forward's.

use hf_genserve::{EngineReport, GenConfig, GenOutput, GenRequest, GenServer};
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

/// A server over `lm` whose budget is `extra_blocks` over the fewest
/// blocks that let every request of `reqs` run alone (the scheduler
/// requires each to fit alone).
fn tight_server(
    lm: &TinyLm,
    reqs: &[GenRequest],
    block_tokens: usize,
    extra_blocks: usize,
    max_batch: usize,
) -> GenServer {
    let min_blocks = reqs
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens - 1).div_ceil(block_tokens))
        .max()
        .unwrap();
    let slot_bytes = lm.decode_start().cache_bytes();
    let mut server = GenServer::new(GenConfig {
        block_tokens,
        cache_budget_bytes: (min_blocks + extra_blocks) * block_tokens * slot_bytes,
        max_batch,
    });
    server.install_weights(lm);
    server
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
        let server = tight_server(&lm, &reqs, block_tokens, extra_blocks, max_batch);
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
                i, block_tokens, report.num_blocks, max_batch,
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

/// Every output's `logps[i]` is, bit for bit, the untempered log-prob
/// `TinyLm::log_probs` gives `tokens[i]` after the prompt and the tokens
/// before it.
fn logps_are_the_forward(
    lm: &TinyLm,
    reqs: &[GenRequest],
    outs: &[GenOutput],
    report: &EngineReport,
) -> Result<(), TestCaseError> {
    for (i, (o, r)) in outs.iter().zip(reqs).enumerate() {
        prop_assert_eq!(o.logps.len(), o.tokens.len(), "request {}: one log-prob per token", i);
        if o.tokens.is_empty() {
            continue;
        }
        let want = lm.log_probs(&[&r.prompt[..], &o.tokens[..]].concat());
        let want: Vec<u32> = want[r.prompt.len() - 1..].iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = o.logps.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(
            got,
            want,
            "request {} (temperature {}, preemptions {}, prefix hits {})",
            i,
            r.temperature,
            report.preemptions,
            report.prefix_hit_tokens
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn logps_are_the_forward_log_probs(
        // Requests draw from three prompts: identical prompts share
        // prefix blocks.
        pool in proptest::collection::vec(proptest::collection::vec(0usize..VOCAB, 1..9), 3),
        picks in proptest::collection::vec(
            // A stop id past the vocab is no stop token.
            (0usize..3, 1usize..10, 0usize..3, 0u64..1 << 48, 0usize..2 * VOCAB),
            1..8,
        ),
        block_tokens in 1usize..5,
        // From "constant preemption" to "rarely".
        extra_blocks in 0usize..6,
        max_batch in 1usize..9,
    ) {
        let lm = lm();
        let reqs: Vec<GenRequest> = picks
            .into_iter()
            .map(|(p, max_new, temp, seed, stop)| GenRequest {
                prompt: pool[p].clone(),
                max_new_tokens: max_new,
                // 0.7 samples from tempered logits: the recorded
                // log-probs must still be the untempered ones.
                temperature: [0.0, 0.7, 1.0][temp],
                seed,
                stop_tokens: (stop < VOCAB).then_some(stop).into_iter().collect(),
            })
            .collect();
        let server = tight_server(&lm, &reqs, block_tokens, extra_blocks, max_batch);
        let (outs, report) = server.generate(&reqs).unwrap();
        logps_are_the_forward(&lm, &reqs, &outs, &report)?;
    }
}

#[test]
fn logps_are_the_forward_log_probs_through_every_path() {
    // One fixed case that takes every path the proptest above may
    // miss: preemption by recompute, prefix-cache resumption, a stop
    // token that cuts a response short, and every temperature.
    let lm = lm();
    let prompt = vec![3usize, 1, 4, 1, 5, 9];
    let mut reqs: Vec<GenRequest> = (0..6)
        .map(|i| GenRequest {
            prompt: prompt.clone(),
            max_new_tokens: 10,
            temperature: [0.0, 0.7, 1.0][i % 3],
            seed: 0xC0DE + i as u64,
            stop_tokens: Vec::new(),
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(reqs[4].seed);
    let full = lm.generate(&prompt, 10, reqs[4].temperature, &mut rng);
    reqs[4].stop_tokens = vec![full[3]];
    let server = tight_server(&lm, &reqs, 2, 1, 4);
    let (outs, report) = server.generate(&reqs).unwrap();
    assert!(report.preemptions > 0, "the budget was sized to preempt: {report:?}");
    assert!(report.prefix_hit_tokens > 0, "identical prompts share blocks: {report:?}");
    assert!(outs[4].tokens.len() < 10, "the stop token cuts request 4 short");
    logps_are_the_forward(&lm, &reqs, &outs, &report).unwrap();
}
