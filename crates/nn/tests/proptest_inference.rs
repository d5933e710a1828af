//! The inference forward against its references, bit for bit: the
//! tape-free `log_probs_stacked` / `values_stacked` against the tape
//! they used to build, and the stage forward over stacked segments
//! against the same stage over each sequence alone.

// A local all-reduce stand-in: hf-nn sits below the runtime and its sync layer.
#![allow(clippy::disallowed_types)]

use std::sync::{Barrier, Mutex};

use hf_nn::{LmConfig, ShardedLm, StageOutput, TinyLm};
use proptest::prelude::*;

/// The model shapes of the end-to-end benchmark's workloads.
const SHAPES: [LmConfig; 3] = [
    LmConfig { vocab: 32, hidden: 32, ffn: 64, layers: 4 },
    LmConfig { vocab: 16, hidden: 32, ffn: 64, layers: 4 },
    LmConfig { vocab: 32, hidden: 8, ffn: 16, layers: 2 },
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One to five sequences of 2 to 70 tokens — below, at and past the lane
/// width and `STACK_ROWS` — as raw draws, folded into a vocabulary later.
fn ragged() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..1 << 16, 2..71), 1..6)
}

fn in_vocab(raw: &[Vec<usize>], vocab: usize) -> Vec<Vec<usize>> {
    raw.iter().map(|s| s.iter().map(|t| t % vocab).collect()).collect()
}

/// `forward_stage_stacked` of every tensor shard of a one-stage model
/// over `seqs`, the shards on a thread each and their partials joined by
/// a local sum in shard order; shard 0's `(logits, values)`.
fn tp_forward(shards: &[ShardedLm], seqs: &[&[usize]]) -> (Vec<f32>, Vec<f32>) {
    let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
    let ids = seqs.concat();
    let (slots, barrier) = (Mutex::new(vec![Vec::new(); shards.len()]), Barrier::new(shards.len()));
    let run = |rank: usize| {
        let all_reduce = |partial: &[f32]| {
            slots.lock().unwrap()[rank] = partial.to_vec();
            barrier.wait();
            let mut sum = vec![0.0f32; partial.len()];
            for part in slots.lock().unwrap().iter() {
                sum.iter_mut().zip(part).for_each(|(s, p)| *s += p);
            }
            // Nobody overwrites a slot before every peer has summed it.
            barrier.wait();
            sum
        };
        shards[rank].forward_stage_stacked(shards[rank].embed(&ids), &lens, all_reduce)
    };
    let out = std::thread::scope(|scope| {
        let peers: Vec<_> = (1..shards.len()).map(|r| scope.spawn(move || run(r))).collect();
        let out = run(0);
        peers.into_iter().for_each(|p| drop(p.join().expect("a peer shard panicked")));
        out
    });
    match out {
        StageOutput::Final { logits, values } => (logits.data().to_vec(), values.data().to_vec()),
        StageOutput::Hidden(_) => unreachable!("one stage finalizes"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_grad_passes_are_the_tape_bit_for_bit(raw in ragged(), shape in 0usize..3, seed in 0u64..64) {
        let cfg = SHAPES[shape];
        let lm = TinyLm::new(cfg, seed);
        let seqs = in_vocab(&raw, cfg.vocab);
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let (logps, values) = (lm.log_probs_stacked(&refs), lm.values_stacked(&refs));
        for (s, seq) in refs.iter().enumerate() {
            let (fp, lp) = lm.next_token_log_probs(&[seq]);
            prop_assert_eq!(bits(&logps[s]), bits(fp.tape.value(lp).data()), "log-probs of {}", s);
            let fp = lm.forward(seq);
            prop_assert_eq!(bits(&values[s]), bits(fp.tape.value(fp.values).data()), "values of {}", s);
        }
    }

    #[test]
    fn a_stacked_stage_pass_is_each_sequence_alone(raw in ragged(), shape in 0usize..3, t in 1usize..=2) {
        let cfg = SHAPES[shape];
        let lm = TinyLm::new(cfg, 5);
        let shards: Vec<ShardedLm> = (0..t).map(|i| ShardedLm::from_full(&lm, 0, 1, i, t)).collect();
        let seqs = in_vocab(&raw, cfg.vocab);
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let (logits, values) = tp_forward(&shards, &refs);
        let mut row = 0;
        for seq in &refs {
            let (alone_logits, alone_values) = tp_forward(&shards, &[seq]);
            let rows = row..row + seq.len();
            prop_assert_eq!(bits(&values[rows.clone()]), bits(&alone_values), "values, t = {}", t);
            let rows = rows.start * cfg.vocab..rows.end * cfg.vocab;
            prop_assert_eq!(bits(&logits[rows]), bits(&alone_logits), "logits, t = {}", t);
            row += seq.len();
        }
        prop_assert_eq!(row, values.len());
    }
}
