//! The inference forward against its references, bit for bit: the
//! tape-free `log_probs_stacked` / `values_stacked` over any read window
//! against the tape they used to build over every position, and the
//! stage forward over stacked segments against the same stage over each
//! sequence alone.

// A local all-reduce stand-in: hf-nn sits below the runtime and its sync layer.
#![allow(clippy::disallowed_types)]
// `&[0..len]` is one sequence's read window.
#![allow(clippy::single_range_in_vec_init)]

use std::ops::Range;
use std::sync::{Barrier, Mutex};

use hf_nn::{Head, LmConfig, ShardedLm, StageOutput, TinyLm};
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

/// A window of `0..n` drawn from `raw`: empty, one row, or any run.
fn window(raw: usize, n: usize) -> Range<usize> {
    let start = raw % (n + 1);
    start..start + (raw >> 8) % (n - start + 1)
}

/// `forward_stage_stacked` of every tensor shard of a one-stage model
/// over `seqs`, `head` at every position, the shards on a thread each and
/// their partials joined by a local sum in shard order; shard 0's output.
fn tp_forward(shards: &[ShardedLm], seqs: &[&[usize]], head: Head) -> Vec<f32> {
    let lens: Vec<usize> = seqs.iter().map(|s| s.len()).collect();
    let every: Vec<Range<usize>> = lens.iter().map(|&len| 0..len).collect();
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
        shards[rank].forward_stage_stacked(
            shards[rank].embed(&ids),
            &lens,
            &every,
            head,
            all_reduce,
        )
    };
    let out = std::thread::scope(|scope| {
        let peers: Vec<_> = (1..shards.len()).map(|r| scope.spawn(move || run(r))).collect();
        let out = run(0);
        peers.into_iter().for_each(|p| drop(p.join().expect("a peer shard panicked")));
        out
    });
    match out {
        StageOutput::Final(out) => out.data().to_vec(),
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
        // Each sequence read at a window drawn from its own tokens.
        let reads: Vec<Range<usize>> = raw.iter().map(|s| window(s[0], s.len() - 1)).collect();
        let (logps, values) = (lm.log_probs_stacked(&refs, &reads), lm.values_stacked(&refs, &reads));
        for (s, seq) in refs.iter().enumerate() {
            let (fp, lp) = lm.next_token_log_probs(&[seq], &[0..seq.len() - 1]);
            let all = fp.tape.value(lp);
            prop_assert_eq!(bits(&logps[s]), bits(&all.data()[reads[s].clone()]), "log-probs of {}", s);
            let fp = lm.forward(seq);
            let all = fp.tape.value(fp.values);
            prop_assert_eq!(bits(&values[s]), bits(&all.data()[reads[s].clone()]), "values of {}", s);
        }
    }

    #[test]
    fn a_stacked_stage_pass_is_each_sequence_alone(raw in ragged(), shape in 0usize..3, t in 1usize..=2) {
        let cfg = SHAPES[shape];
        let lm = TinyLm::new(cfg, 5);
        let shards: Vec<ShardedLm> = (0..t).map(|i| ShardedLm::from_full(&lm, 0, 1, i, t)).collect();
        let seqs = in_vocab(&raw, cfg.vocab);
        let refs: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
        let [logits, values] = [Head::Logits, Head::Values].map(|h| tp_forward(&shards, &refs, h));
        let mut row = 0;
        for seq in &refs {
            let [alone_logits, alone_values] = [Head::Logits, Head::Values].map(|h| tp_forward(&shards, &[seq], h));
            let rows = row..row + seq.len();
            prop_assert_eq!(bits(&values[rows.clone()]), bits(&alone_values), "values, t = {}", t);
            let rows = rows.start * cfg.vocab..rows.end * cfg.vocab;
            prop_assert_eq!(bits(&logits[rows]), bits(&alone_logits), "logits, t = {}", t);
            row += seq.len();
        }
        prop_assert_eq!(row, values.len());
    }
}
