//! Property: a sharded checkpoint round-trips **exactly** across
//! resharding. Train an actor under a random (p,t,d) layout — ZeRO-3 or
//! replicated — save a sharded checkpoint, restore it into a *different*
//! random layout on a differently-colocated pool (possibly switching
//! between ZeRO and replicated sharding), re-save from the target, and
//! the two assembled states — parameters, both Adam moments, step
//! count, generation RNG round — must be byte-for-byte equal.

use std::sync::atomic::{AtomicU64, Ordering};

use hf_core::{Controller, Protocol, Worker, WorkerGroup, WorkerLayout};
use hf_nn::LmConfig;
use hf_parallel::ParallelSpec;
use hf_resilience::{AssembledState, CheckpointStore};
use hf_rlhf::env::make_prompts;
use hf_rlhf::workers::{ActorWorker, WorkerHyper};
use hf_simcluster::{ClusterSpec, ResourcePool};
use proptest::prelude::*;

fn fresh_store() -> CheckpointStore {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("hf-proptest-ckpt-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

fn lm_cfg() -> LmConfig {
    let mut cfg = LmConfig::tiny();
    cfg.layers = 4; // divisible by every pipeline degree in the matrix
    cfg
}

fn spawn_actor(ctrl: &Controller, zero: bool, spec: ParallelSpec, offset: usize) -> WorkerGroup {
    let layout = WorkerLayout::train_only(spec);
    let pool = ResourcePool::contiguous(offset, spec.world());
    let cfg = lm_cfg();
    let hyper = WorkerHyper::default();
    if zero {
        ctrl.spawn_group("actor", &pool, layout, move |_r| {
            Box::new(ActorWorker::zero(cfg, hyper.clone())) as Box<dyn Worker>
        })
        .unwrap()
    } else {
        ctrl.spawn_group("actor", &pool, layout, move |_r| {
            Box::new(ActorWorker::new(cfg, hyper.clone())) as Box<dyn Worker>
        })
        .unwrap()
    }
}

/// Broadcasts the committed `step` into `group` through
/// `load_checkpoint`, as a system restore does for each of its groups.
fn restore(store: &CheckpointStore, group: &WorkerGroup, step: u64) {
    let st = store.load_group(step, group.name()).unwrap();
    group.call_sync("load_checkpoint", &st.to_load_input(), Protocol::OneToAll).unwrap();
}

/// Two generate+update rounds so parameters, both Adam moments, the
/// step count, and the RNG round are all non-trivial.
fn train(group: &WorkerGroup) {
    let cfg = lm_cfg();
    for i in 0..2u64 {
        let prompts = make_prompts(4, 6, 6, cfg.vocab as u32, i);
        let mut batch = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
        let (logp, w) = {
            let (l, w) = batch.f32("logp_old").unwrap();
            (l.to_vec(), w)
        };
        let adv: Vec<f32> = logp.iter().map(|&l| if l < -3.0 { 1.0 } else { -0.5 }).collect();
        batch.insert_f32("advantages", adv, w);
        group.call_sync("update_actor", &batch, Protocol::ThreeD).unwrap();
    }
}

/// A layout plus sharding mode; ZeRO requires a pure-DP (1,1,d) layout.
fn scenario() -> impl Strategy<Value = ((usize, usize, usize), bool)> {
    (
        prop_oneof![
            Just((1usize, 1usize, 2usize)),
            Just((1, 2, 2)),
            Just((1, 1, 4)),
            Just((2, 1, 2)),
            Just((2, 2, 2)),
        ],
        any::<bool>(),
    )
        .prop_map(|((p, t, d), z)| ((p, t, d), z && p * t == 1))
}

fn round_trip(
    src: ((usize, usize, usize), bool),
    dst: ((usize, usize, usize), bool),
    dst_offset: usize,
) -> (AssembledState, AssembledState) {
    let store = fresh_store();
    let ((sp, st_, sd), src_zero) = src;
    let ((dp, dt, dd), dst_zero) = dst;

    // Source system: train, then commit a sharded checkpoint.
    let src_spec = ParallelSpec::new(sp, st_, sd);
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(src_spec.world()));
    let g = spawn_actor(&ctrl, src_zero, src_spec, 0);
    train(&g);
    store.save_group(&g, 1).unwrap();
    store.commit_at(1, &["actor"], 0.0).unwrap();
    let saved = store.load_group(1, "actor").unwrap();
    drop(g);
    drop(ctrl);

    // Target system: different layout, differently-colocated pool,
    // possibly the other sharding mode. Restore, then re-save.
    let dst_spec = ParallelSpec::new(dp, dt, dd);
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(dst_spec.world() + dst_offset));
    let g = spawn_actor(&ctrl, dst_zero, dst_spec, dst_offset);
    restore(&store, &g, 1);
    store.save_group(&g, 2).unwrap();
    store.commit_at(2, &["actor"], 0.0).unwrap();
    let resaved = store.load_group(2, "actor").unwrap();
    (saved, resaved)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn checkpoint_round_trips_exactly_across_resharding(
        src in scenario(),
        dst in scenario(),
        dst_offset in 0usize..2,
    ) {
        let (saved, resaved) = round_trip(src, dst, dst_offset);
        prop_assert!(saved.opt_t > 0, "training must have stepped the optimizer");
        prop_assert!(saved.gen_round > 0, "training must have advanced the RNG round");
        prop_assert_eq!(
            saved, resaved,
            "restore into {:?} (offset {}) must preserve every byte saved from {:?}",
            dst, dst_offset, src
        );
    }
}

/// The ZeRO wrapper's historical latent bug, pinned: restoring a
/// checkpoint must rebuild the shard store, or the next gather silently
/// resurrects the pre-restore weights.
#[test]
fn zero_restore_survives_a_subsequent_gather() {
    let store = fresh_store();
    let spec = ParallelSpec::new(1, 1, 2);
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(2));
    let g = spawn_actor(&ctrl, true, spec, 0);
    train(&g);
    store.save_group(&g, 1).unwrap();
    store.commit_at(1, &["actor"], 0.0).unwrap();
    let saved = store.load_group(1, "actor").unwrap();

    // Keep training (diverging from the checkpoint), restore, then run a
    // method that gathers from the store before re-saving.
    train(&g);
    restore(&store, &g, 1);
    let prompts = make_prompts(4, 6, 6, lm_cfg().vocab as u32, 99);
    g.call_sync(
        "compute_log_prob",
        &{
            let mut b = g.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
            let w = b.f32("logp_old").unwrap().1;
            let rows = b.rows();
            b.insert_f32("advantages", vec![0.0; rows * w], w);
            b
        },
        Protocol::ThreeD,
    )
    .unwrap();
    store.save_group(&g, 2).unwrap();
    store.commit_at(2, &["actor"], 0.0).unwrap();
    let after = store.load_group(2, "actor").unwrap();
    assert_eq!(saved.params, after.params, "gather must serve the restored weights");
    assert_eq!(saved.opt_m, after.opt_m, "shard-local Adam m must be restored");
    assert_eq!(saved.opt_v, after.opt_v, "shard-local Adam v must be restored");
    assert_eq!(saved.opt_t, after.opt_t);
}

/// Elastic re-mapping's reshard path, pinned deterministically: a
/// checkpoint saved under a larger layout restores into a *strictly
/// smaller* (p,t,d) — fewer ranks on every axis, the 8→7-style shrink
/// after a device loss — and re-saving from the survivors preserves
/// every byte. Coverage verification must depend only on the *saving*
/// layout's shard tiling, never on the restoring world.
#[test]
fn restore_into_strictly_smaller_layout() {
    type Layout = ((usize, usize, usize), bool);
    let combos: [(Layout, Layout); 5] = [
        (((2, 2, 2), false), ((1, 2, 2), false)),
        (((2, 2, 2), false), ((1, 1, 2), false)),
        (((1, 2, 2), false), ((1, 1, 2), false)),
        (((1, 1, 4), true), ((1, 1, 2), true)),
        (((1, 2, 2), false), ((1, 1, 1), false)),
    ];
    for (src, dst) in combos {
        let (saved, resaved) = round_trip(src, dst, 0);
        assert_eq!(saved, resaved, "shrinking restore {src:?} -> {dst:?} must be exact");
    }
}

#[test]
fn replicated_save_restores_into_zero_and_back() {
    let (saved, resaved) = round_trip(((1, 2, 2), false), ((1, 1, 4), true), 1);
    assert_eq!(saved, resaved);
    let (saved, resaved) = round_trip(((1, 1, 4), true), ((1, 2, 2), false), 0);
    assert_eq!(saved, resaved);
}
