//! hf-genserve: paged-KV continuous-batching generation engine — this
//! reproduction's substitute for vLLM (the paper's rollout engine).
//!
//! Rollout generation dominates RLHF iteration time (paper Fig. 15);
//! HybridFlow serves it with vLLM's iteration-level continuous batching
//! over a paged KV cache rather than decoding one prompt at a time
//! (the per-sequence inefficiency §8.2 attributes to NeMo-Aligner).
//! This crate rebuilds that engine over the in-tree model substrate:
//!
//! * [`BlockManager`] — fixed-size blocks of [`hf_nn::DecodeState`]
//!   snapshots, free-list allocation, per-sequence block tables,
//!   refcounted prefix sharing, all accounted against a byte budget.
//! * [`GenConfig::generate`] — an FCFS continuous-batching scheduler
//!   with preemption-by-recompute over a borrowed `TinyLm`, driving
//!   `TinyLm::decode_step_batch_reading` one token per sequence per
//!   step, with EOS/stop-token support and variable-length outputs;
//!   [`GenConfig::begin`] hands out the same loop one [`GenSession`]
//!   step at a time.
//!
//! Scheduling is semantically invisible: for any cache budget, block
//! size, batch composition, preemption pattern, or prefix-sharing hit,
//! each request's output is byte-identical to running
//! `TinyLm::generate` on it alone (the equivalence proptest enforces
//! exactly this), and the log-prob recorded with each sampled token
//! ([`GenOutput::logps`]) is bit for bit the forward's.
//!
//! In the RLHF loop each actor rank keeps one [`GenConfig`] and decodes
//! the replica it trains: the engine borrows the weights for the call
//! and holds no copy of them (a [`GenServer`] does, for callers with no
//! model of their own to lend). Admission
//! leaves a watermark of `max(1, num_blocks / 16)` blocks in a non-empty
//! batch, so a fresh admission does not preempt on the next step, and a
//! head that does not fit stops admission
//! (`a_head_that_does_not_fit_blocks_the_queue_behind_it`). Snapshot
//! storage is backed lazily and per session: pooling it across
//! `generate` calls was measured to raise peak RSS. One pass over the
//! weights serves the whole batch, which is where the ≥2× tokens/s over
//! the per-sequence baseline comes from (`hf-bench genserve_throughput`,
//! under a budget that forces preemptions). The actor's
//! `generate_sequences` charges each step `batch / mp` tokens of virtual
//! time and records it as a `genserve.step` span on the `gpu-<n>/genserve`
//! sub-track, with `genserve.rollout.*` counters, samples and digests,
//! which the telemetry summary prints under `genserve:`.

#![warn(missing_docs)]

mod block;
mod engine;

pub use block::BlockManager;
pub use engine::{
    EngineReport, GenConfig, GenError, GenOutput, GenRequest, GenServer, GenSession, StepTrace,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hf_nn::{LmConfig, TinyLm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lm() -> TinyLm {
        TinyLm::new(LmConfig { vocab: 24, hidden: 12, ffn: 20, layers: 2 }, 42)
    }

    fn req(prompt: &[usize], max_new: usize, seed: u64) -> GenRequest {
        GenRequest {
            prompt: prompt.to_vec(),
            max_new_tokens: max_new,
            temperature: 1.0,
            seed,
            stop_tokens: Vec::new(),
        }
    }

    /// FNV-1a of the whole report (`Debug` form: every count, every step
    /// trace, both step maps). The constants the tests below compare it
    /// to were recorded with the eagerly backed block store, before
    /// storage became lazy: backing is invisible to scheduling.
    fn report_digest(report: &EngineReport) -> u64 {
        format!("{report:?}")
            .bytes()
            .fold(0xcbf29ce484222325, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3))
    }

    fn sequential(lm: &TinyLm, r: &GenRequest) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(r.seed);
        lm.generate(&r.prompt, r.max_new_tokens, r.temperature, &mut rng)
    }

    #[test]
    fn matches_sequential_generation_with_ample_cache() {
        let lm = lm();
        let cfg = GenConfig::default();
        let reqs: Vec<GenRequest> =
            (0..5).map(|i| req(&[1 + i, 2, 3 + i], 8 + i, i as u64)).collect();
        let (outs, report) = cfg.generate(&lm, &reqs).unwrap();
        for (o, r) in outs.iter().zip(reqs.iter()) {
            assert_eq!(o.tokens, sequential(&lm, r));
        }
        assert_eq!(report.preemptions, 0);
        assert!(report.peak_batch >= 2, "requests must actually batch");
    }

    #[test]
    fn report_tracks_first_token_and_finish_steps() {
        let lm = lm();
        let cfg = GenConfig::default();
        let mut reqs: Vec<GenRequest> =
            (0..3).map(|i| req(&[1 + i, 2, 3], 4 + i, i as u64)).collect();
        // A zero-length request never runs a step and must not appear.
        reqs.push(req(&[1, 2], 0, 9));
        let (outs, report) = cfg.generate(&lm, &reqs).unwrap();
        assert!(outs[3].tokens.is_empty());
        for (id, r) in reqs.iter().enumerate().take(3) {
            let first = report.first_token_step[&id];
            let finish = report.finish_step[&id];
            assert!(first <= finish, "req {id}: first {first} after finish {finish}");
            // The final retirement happens in a pass with no decode
            // step after it, so `finish` may equal `steps`.
            assert!(finish <= report.steps);
            // TTFT ordering: the first sample can only happen once the
            // whole prompt has been fed (prompt_len steps at minimum).
            assert!(first + 1 >= r.prompt.len() as u64);
        }
        assert!(!report.first_token_step.contains_key(&3));
        assert!(!report.finish_step.contains_key(&3));
    }

    #[test]
    fn preemption_under_tight_budget_is_invisible() {
        let lm = lm();
        let slot_bytes = lm.decode_start().cache_bytes();
        // Room for ~2.5 sequences of 12 slots → the third forces
        // preemption-by-recompute.
        let cfg =
            GenConfig { block_tokens: 4, cache_budget_bytes: 7 * 4 * slot_bytes, max_batch: 8 };
        let reqs: Vec<GenRequest> =
            (0..4).map(|i| req(&[5 + i, 9, 2, 7], 8, 100 + i as u64)).collect();
        let (outs, report) = cfg.generate(&lm, &reqs).unwrap();
        assert!(report.preemptions > 0, "budget was sized to force preemption");
        for (o, r) in outs.iter().zip(reqs.iter()) {
            assert_eq!(o.tokens, sequential(&lm, r), "preemption must not change output");
        }
        assert_eq!(report_digest(&report), 0x20303805b5974cfd, "{report:?}");
    }

    #[test]
    fn identical_prompts_share_prefix_blocks() {
        let lm = lm();
        // max_batch 1 serializes the requests, so sharing must come
        // from reclaimable cached blocks of already-finished requests.
        let cfg = GenConfig { block_tokens: 2, max_batch: 1, ..GenConfig::default() };
        let prompt = [3usize, 1, 4, 1, 5, 9, 2, 6];
        let reqs: Vec<GenRequest> = (0..3).map(|i| req(&prompt, 6, i as u64)).collect();
        let (outs, report) = cfg.generate(&lm, &reqs).unwrap();
        assert!(report.prefix_hit_tokens > 0, "identical prompts must hit the prefix cache");
        for (o, r) in outs.iter().zip(reqs.iter()) {
            assert_eq!(o.tokens, sequential(&lm, r), "prefix sharing must not change output");
        }
        assert_eq!(report_digest(&report), 0x4128d24656730a6e, "{report:?}");
    }

    #[test]
    fn boundary_admission_does_not_overpromise_reclaimable_blocks() {
        // Regression (hf-audit satellite): admission computed headroom as
        // `free_blocks() - promised`, where `free_blocks()` counts
        // reclaimable cached blocks — including the candidate's *own*
        // shared prefix blocks, which admission is about to resurrect.
        // Counting those both as reusable and as evictable admitted a
        // sequence into capacity that didn't exist, and the very same
        // step preempted it again (admit/preempt churn).
        //
        // Scenario: 6 one-token blocks, max_batch 2. R0 is a long runner
        // that will need all 6 blocks; R1 registers a 3-block prefix and
        // finishes; R2 shares that whole prefix (needed=1) exactly when
        // free_blocks()==3 consists only of R2's own shared blocks.
        let lm = lm();
        let slot_bytes = lm.decode_start().cache_bytes();
        let cfg = GenConfig { block_tokens: 1, cache_budget_bytes: 6 * slot_bytes, max_batch: 2 };
        let reqs = vec![req(&[1], 6, 11), req(&[2, 3, 4], 1, 12), req(&[2, 3, 4, 5], 1, 13)];
        let (outs, report) = cfg.generate(&lm, &reqs).unwrap();
        for (o, r) in outs.iter().zip(reqs.iter()) {
            assert_eq!(o.tokens, sequential(&lm, r));
        }
        assert_eq!(report.preemptions, 0, "honest accounting never needs to preempt here");
        for (i, t) in report.traces.iter().enumerate() {
            assert!(
                !(t.admitted > 0 && t.preempted > 0),
                "step {i}: admit/preempt churn — admission over-promised"
            );
        }
        assert_eq!(report_digest(&report), 0x6aefc1b593ed04cf, "{report:?}");
    }

    #[test]
    fn stop_tokens_end_generation_early() {
        let lm = lm();
        let cfg = GenConfig::default();
        let mut r = req(&[1, 2, 3], 32, 7);
        let full = sequential(&lm, &r);
        // Stop on the third token the unconstrained run produces.
        r.stop_tokens = vec![full[2]];
        let first_hit = full.iter().position(|t| *t == full[2]).unwrap();
        let (outs, _) = cfg.generate(&lm, std::slice::from_ref(&r)).unwrap();
        assert_eq!(outs[0].tokens, full[..=first_hit], "stop token is kept, tail dropped");
        assert!(outs[0].tokens.len() < full.len());
    }

    #[test]
    fn zero_max_new_tokens_yields_empty_output() {
        let lm = lm();
        let cfg = GenConfig::default();
        let (outs, report) = cfg.generate(&lm, &[req(&[1, 2], 0, 0)]).unwrap();
        assert!(outs[0].tokens.is_empty());
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn oversized_request_reports_cache_too_small() {
        let lm = lm();
        let slot_bytes = lm.decode_start().cache_bytes();
        let cfg =
            GenConfig { block_tokens: 2, cache_budget_bytes: 2 * 2 * slot_bytes, max_batch: 4 };
        let err = cfg.generate(&lm, &[req(&[1, 2, 3], 16, 0)]).unwrap_err();
        assert!(matches!(err, GenError::CacheTooSmall { needed_blocks: 9, num_blocks: 2 }));
    }

    #[test]
    fn missing_weights_and_empty_prompt_are_errors() {
        let s = GenServer::new(GenConfig::default());
        assert_eq!(s.generate(&[req(&[1], 2, 0)]).unwrap_err(), GenError::NoWeights);
        let err = GenConfig::default().generate(&lm(), &[req(&[], 2, 0)]).unwrap_err();
        assert_eq!(err, GenError::EmptyPrompt);
    }
}
