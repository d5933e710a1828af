//! Megatron-style model-parallel inference executing for real: a 2×2
//! (pipeline × tensor) grid of threads, each holding only its weight
//! shard, computing the forward pass with genuine all-reduce collectives
//! inside each TP group and point-to-point activation hand-offs between
//! pipeline stages — and matching the single-process full model.

#![allow(clippy::needless_range_loop)] // grid indices mirror the rank math

use std::sync::Arc;
use std::thread;

use hybridflow::nn::{Head, LmConfig, ShardedLm, StageOutput, TinyLm};
use hybridflow::simcluster::{
    ClusterSpec, CommCostModel, CommGroup, Communicator, DeviceId, VirtualClock,
};

#[test]
fn threaded_2d_model_parallel_matches_full_model() {
    let (p, t) = (2usize, 2usize);
    let lm = TinyLm::new(LmConfig::tiny(), 99);
    let ids = vec![4usize, 17, 2, 9, 27];

    // Reference: the full single-process forward.
    let fp = lm.forward(&ids);
    let full_logits = fp.tape.value(fp.logits).data().to_vec();
    let full_values = fp.tape.value(fp.values).data().to_vec();

    // Grid: rank = p_idx · t + t_idx on device rank.
    let cluster = Arc::new(ClusterSpec::a100_with_gpus(p * t));
    let cost = CommCostModel::default();
    // One communicator group per TP row, one per pipeline column.
    let tp_groups: Vec<CommGroup> =
        (0..p).map(|pi| CommGroup::new((0..t).map(|ti| DeviceId(pi * t + ti)).collect())).collect();
    let pp_groups: Vec<CommGroup> =
        (0..t).map(|ti| CommGroup::new((0..p).map(|pi| DeviceId(pi * t + ti)).collect())).collect();

    let close = |a: &[f32], b: &[f32]| {
        a.len() == b.len()
            && a.iter()
                .zip(b.iter())
                .all(|(x, y)| (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())))
    };
    // One grid pass per head: a stage forms the head its caller reads.
    for (head, full) in [(Head::Logits, &full_logits), (Head::Values, &full_values)] {
        let mut handles = Vec::new();
        for pi in 0..p {
            for ti in 0..t {
                let shard = ShardedLm::from_full(&lm, pi, p, ti, t);
                let comm =
                    Communicator::new(tp_groups[pi].clone(), ti, cluster.clone(), cost.clone());
                let pp =
                    Communicator::new(pp_groups[ti].clone(), pi, cluster.clone(), cost.clone());
                let ids = ids.clone();
                handles.push(thread::spawn(move || {
                    let mut clock = VirtualClock::new();
                    // Stage input: embed on stage 0, receive activations
                    // otherwise (every TP rank of a stage gets a copy from
                    // its column-peer on the previous stage).
                    let h_in = if pi == 0 {
                        shard.embed(&ids)
                    } else {
                        let (rows, cols, data): (usize, usize, Vec<f32>) =
                            pp.recv_from(&mut clock, pi - 1);
                        hybridflow::nn::Tensor::new(data, rows, cols)
                    };
                    #[allow(clippy::single_range_in_vec_init)] // one sequence's read window
                    let every = [0..ids.len()];
                    let out = shard.forward_stage_stacked(h_in, &[ids.len()], &every, head, |x| {
                        comm.all_reduce_sum(&mut clock, x)
                    });
                    match out {
                        StageOutput::Hidden(hn) => {
                            let bytes = (hn.len() * 4) as f64;
                            pp.send_to(
                                &clock,
                                pi + 1,
                                (hn.rows(), hn.cols(), hn.data().to_vec()),
                                bytes,
                            );
                            None
                        }
                        StageOutput::Final(out) => Some((out.data().to_vec(), clock.now())),
                    }
                }));
            }
        }

        let mut finals = Vec::new();
        for h in handles {
            if let Some(f) = h.join().unwrap() {
                finals.push(f);
            }
        }
        assert_eq!(finals.len(), t, "every last-stage TP rank finalizes");
        for (out, clock) in &finals {
            assert!(close(out, full), "TP/PP {head:?} diverge from full model");
            assert!(*clock > 0.0, "collectives and hand-offs must cost virtual time");
        }
        // Both last-stage TP ranks agree exactly (same all-reduced stream).
        assert_eq!(finals[0].0, finals[1].0);
    }
}

#[test]
fn model_parallel_shards_hold_fractional_memory() {
    let lm = TinyLm::new(LmConfig::tiny(), 5);
    let full = lm.flat().len();
    let shard = ShardedLm::from_full(&lm, 0, 2, 1, 4);
    assert!(
        shard.resident_params() < full / 2,
        "a 2×4 grid shard must hold well under half the model ({} vs {full})",
        shard.resident_params()
    );
}
