//! ZeRO-3 refactoring invariance: the sharded actor must produce a
//! learning trajectory *bit-identical* to the replicated actor (same
//! seeds, same data), because reduce-scatter + shard-local Adam is
//! elementwise-equal to all-reduce + full Adam. Memory residency,
//! however, must genuinely shrink to 1/world.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hf_core::{Controller, DataProto, Protocol, RankCtx, Result, Worker, WorkerLayout};
use hf_nn::LmConfig;
use hf_parallel::ParallelSpec;
use hf_resilience::collect_state;
use hf_rlhf::env::make_prompts;
use hf_rlhf::workers::{ActorWorker, WorkerHyper};
use hf_rlhf::ZeroParamStore;
use hf_simcluster::{ClusterSpec, ResourcePool};

fn run_actor_trajectory(zero: bool, iters: u64) -> Vec<f32> {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 1, 4);
    let layout = WorkerLayout::train_only(spec);
    let pool = ResourcePool::contiguous(0, 4);
    let cfg = LmConfig::tiny();
    let hyper = WorkerHyper::default();
    let group = if zero {
        ctrl.spawn_group("actor", &pool, layout, |_r| {
            Box::new(ActorWorker::zero(cfg, hyper.clone())) as Box<dyn Worker>
        })
        .unwrap()
    } else {
        ctrl.spawn_group("actor", &pool, layout, |_r| {
            Box::new(ActorWorker::new(cfg, hyper.clone())) as Box<dyn Worker>
        })
        .unwrap()
    };

    let mut out = Vec::new();
    for i in 0..iters {
        // Generate, self-score with a trivial advantage, update.
        let prompts = make_prompts(8, 6, 6, cfg.vocab as u32, i);
        let mut batch = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
        let rows = batch.rows();
        let (logp, w) = {
            let (l, w) = batch.f32("logp_old").unwrap();
            (l.to_vec(), w)
        };
        // Advantage = +1 where logp below median (push up rare tokens) —
        // any deterministic function works for the equivalence check.
        let adv: Vec<f32> = logp.iter().map(|&l| if l < -3.0 { 1.0 } else { -0.5 }).collect();
        batch.insert_f32("advantages", adv, w);
        let m = group.call_sync("update_actor", &batch, Protocol::ThreeD).unwrap();
        let (loss, _) = m.f32("actor_loss").unwrap();
        out.push(loss.iter().sum::<f32>() / loss.len() as f32);
        assert_eq!(rows, 8);
    }
    // Final weights fingerprint, assembled from the `save_shard` replies.
    let st = collect_state(&group).unwrap();
    out.push(st.params.iter().map(|p| p.abs()).sum::<f32>());
    // Optimizer-state fingerprint: the checkpoint must carry the Adam
    // moments that were actually stepped. The ZeRO actor's retired
    // full-state save once delegated to its inner (never-stepped) worker
    // and emitted all-zero moments — a restore then silently reset Adam.
    out.push(st.opt_m.iter().map(|x| x.abs()).sum::<f32>());
    out.push(st.opt_v.iter().map(|x| x.abs()).sum::<f32>());
    out
}

#[test]
fn zero3_actor_matches_replicated_actor_bit_for_bit() {
    let replicated = run_actor_trajectory(false, 4);
    let zero = run_actor_trajectory(true, 4);
    assert_eq!(replicated, zero, "ZeRO-3 must be a pure refactoring");
}

#[test]
fn zero3_store_resident_memory_is_sharded() {
    let full = vec![0.5f32; 1000];
    let s = ZeroParamStore::new(&full, 0, 4, 0.01);
    assert_eq!(s.resident_param_bytes(), 250 * 4);
}

#[test]
fn zero3_rejects_model_parallel_layouts() {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let layout = WorkerLayout::train_only(spec);
    let pool = ResourcePool::contiguous(0, 4);
    let cfg = LmConfig::tiny();
    let group = ctrl
        .spawn_group("actor", &pool, layout, |_r| {
            Box::new(ActorWorker::zero(cfg, WorkerHyper::default())) as Box<dyn Worker>
        })
        .unwrap();
    let prompts = make_prompts(4, 6, 6, cfg.vocab as u32, 0);
    let err = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD);
    assert!(err.is_err(), "mp > 1 must be rejected");
}

/// A worker adding to a shared count the world communicator's rounds
/// each of its calls ran.
struct WorldRounds(ActorWorker, Arc<AtomicU64>);

impl Worker for WorldRounds {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        let before = ctx.comms.world.rounds();
        let out = self.0.execute(method, data, ctx);
        self.1.fetch_add(ctx.comms.world.rounds() - before, Ordering::Relaxed);
        out
    }
}

#[test]
fn zero3_save_and_restore_gather_no_weights() {
    // `save_shard` replies from the store and `load_checkpoint`
    // overwrites the weights, so neither all-gathers them — a first-call
    // save included, which cuts the store from the initial weights.
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    let cfg = LmConfig::tiny();
    let rounds = Arc::new(AtomicU64::new(0));
    let counted = rounds.clone();
    let group = ctrl
        .spawn_group("actor", &ResourcePool::contiguous(0, 4), layout, move |_r| {
            Box::new(WorldRounds(ActorWorker::zero(cfg, WorkerHyper::default()), counted.clone()))
                as Box<dyn Worker>
        })
        .unwrap();
    let rounds = || rounds.load(Ordering::Relaxed);
    let initial = collect_state(&group).unwrap();
    assert_eq!(rounds(), 0, "a first-call save_shard gathers nothing");

    // A call that reads the weights gathers them: one round a rank.
    let prompts = make_prompts(8, 6, 6, cfg.vocab as u32, 0);
    let mut batch = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
    assert_eq!(rounds(), 4);
    let (_, w) = batch.f32("logp_old").unwrap();
    batch.insert_f32("advantages", vec![1.0; batch.rows() * w], w);
    group.call_sync("update_actor", &batch, Protocol::ThreeD).unwrap();
    let trained = collect_state(&group).unwrap();
    let after_update = rounds();
    assert_ne!(trained.params, initial.params, "the update moved the weights");

    group.call_sync("load_checkpoint", &initial.to_load_input(), Protocol::OneToAll).unwrap();
    assert_eq!(rounds(), after_update, "a restore gathers nothing");
    let restored = collect_state(&group).unwrap();
    assert_eq!(rounds(), after_update, "a save gathers nothing");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (got, want) in [
        (&restored.params, &initial.params),
        (&restored.opt_m, &initial.opt_m),
        (&restored.opt_v, &initial.opt_v),
    ] {
        assert_eq!(bits(got), bits(want), "the restored state, saved again");
    }
    // The restored weights are what the next call gathers and samples.
    let again = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
    assert_eq!(again.tokens("responses").unwrap(), batch.tokens("responses").unwrap());
}
