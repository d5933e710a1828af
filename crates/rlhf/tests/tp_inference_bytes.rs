//! A `tp_inference` pass puts its real rows on the wire and nothing more.
//! hf-nn holds activations in 8-row lane panels, the last one padded; the
//! padding must never reach a TP all-reduce or a pipeline hand-off, nor
//! the bytes either is charged for. An 11-row chunk of 7-token rows is one
//! 77-row stage pass (nine full panels and five rows of a tenth). Pinned
//! on 1-2-2 (two tensor shards) and 2-1-2 (two pipeline stages).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hf_core::{Controller, DataProto, Protocol, RankCtx, Worker, WorkerLayout};
use hf_nn::LmConfig;
use hf_parallel::ParallelSpec;
use hf_rlhf::{CriticWorker, WorkerHyper};
use hf_simcluster::{ClusterSpec, ResourcePool};

/// Rows of a data-parallel group's chunk.
const CHUNK: usize = 11;
/// Tokens of each row's prompt and response.
const PROMPT: usize = 3;
const RESPONSE: usize = 4;

/// What one rank's `compute_values` put through its communicators.
#[derive(Debug, PartialEq, Eq)]
struct Moved {
    tp_rounds: u64,
    tp_bytes: u64,
    pp_bytes: u64,
}

/// `compute_values` with `tp_inference` on a critic group of `spec`, a
/// chunk of [`CHUNK`] rows per data-parallel group: every rank's pipeline
/// stage and what it moved.
fn compute_values(spec: ParallelSpec) -> Vec<(u64, Moved)> {
    let (cfg, world) = (LmConfig::tiny(), spec.world());
    let hyper = WorkerHyper { tp_inference: true, ..WorkerHyper::default() };
    let seen: Arc<Vec<[AtomicU64; 4]>> = Arc::new((0..world).map(|_| Default::default()).collect());
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(world));
    let pool = ResourcePool::contiguous(0, world);
    let group = ctrl
        .spawn_group("critic", &pool, WorkerLayout::train_only(spec), |_r| {
            let (mut critic, seen) = (CriticWorker::new(cfg, hyper.clone()), seen.clone());
            Box::new(move |method: &str, data: DataProto, ctx: &mut RankCtx| {
                let read = |ctx: &RankCtx| {
                    [ctx.comms.tp.rounds(), ctx.comms.tp.bytes(), ctx.comms.pp.bytes()]
                };
                let before = read(ctx);
                let reply = critic.execute(method, data, ctx);
                let slot = &seen[ctx.rank];
                for (s, (after, before)) in slot.iter().zip(read(ctx).into_iter().zip(before)) {
                    s.store(after - before, Ordering::Relaxed);
                }
                slot[3].store(ctx.coords().p_idx as u64, Ordering::Relaxed);
                reply
            })
        })
        .expect("spawn the critic group");
    let rows = spec.d * CHUNK;
    let mut batch = DataProto::with_rows(rows);
    batch.insert_tokens("prompts", vec![3; rows * PROMPT], PROMPT);
    batch.insert_tokens("responses", vec![5; rows * RESPONSE], RESPONSE);
    group.call_sync("compute_values", &batch, Protocol::ThreeD).expect("compute_values");
    (seen.iter())
        .map(|s| {
            let [tp_rounds, tp_bytes, pp_bytes, stage] =
                s.each_ref().map(|a| a.load(Ordering::Relaxed));
            (stage, Moved { tp_rounds, tp_bytes, pp_bytes })
        })
        .collect()
}

#[test]
fn a_ragged_tp_pass_moves_its_rows_and_no_padding() {
    // `compute_values` feeds every token of every row.
    let rows = (CHUNK * (PROMPT + RESPONSE)) as u64;
    assert_ne!(rows % 8, 0, "the stacked pass must end in a padded panel");
    let layer = rows * LmConfig::tiny().hidden as u64 * 4;
    // 1-2-2: each rank joins its four layers with its TP peer.
    for (stage, moved) in compute_values(ParallelSpec::new(1, 2, 2)) {
        assert_eq!(stage, 0);
        assert_eq!(moved, Moved { tp_rounds: 4, tp_bytes: 4 * layer, pp_bytes: 0 });
    }
    // 2-1-2: two layers a stage, each joined in a one-rank TP group; stage 0
    // hands the stream on.
    for (stage, moved) in compute_values(ParallelSpec::new(2, 1, 2)) {
        let pp_bytes = if stage == 0 { layer } else { 0 };
        assert_eq!(moved, Moved { tp_rounds: 2, tp_bytes: 2 * layer, pp_bytes }, "stage {stage}");
    }
}
