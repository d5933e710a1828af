//! A train→generation transition and its replica check allocate no
//! buffer of a training shard's size on any rank: the all-gather shares
//! the rank's shard instead of copying it, and `gen_matches` reads the
//! gathered shards in place instead of placing a generation shard.
//!
//! Counted by a counting global allocator, per thread and only at or
//! above a byte threshold, so each rank thread counts its own
//! region-scale buffers; its own test binary, so no other test's
//! allocations are counted either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread;

use hf_hybridengine::{ActorShards, HybridEngineRank};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec, ShardLayout};
use hf_simcluster::{ClusterSpec, CommCostModel, CommGroup, Communicator, DeviceId, VirtualClock};
use hf_telemetry::Telemetry;

struct Counting;

thread_local! {
    /// Allocations of at least this many bytes are counted (0: none).
    static AT_LEAST: Cell<usize> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // A const-initialised, drop-free thread local never fails to
    // access; `try_with` keeps the allocator panic-free regardless.
    let _ = AT_LEAST.try_with(|at_least| {
        if at_least.get() > 0 && size >= at_least.get() {
            let _ = LARGE.try_with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; counting only reads and
// bumps thread-local integers and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Region-scale allocations each rank of actor 1-4-2 → `t_g = 2` makes
/// in one `to_generation_traced` + `gen_matches` under `method`.
fn large_allocations_per_rank(method: GroupingMethod) -> Vec<u64> {
    let spec = ParallelSpec::new(1, 4, 2);
    let grouping = GenGrouping::new(spec, 1, 2, method);
    // 4 layers of 1024 parameters: a 4 KiB training shard per rank.
    let layout = ShardLayout::uniform(4, 1024);
    let params: Arc<Vec<f32>> = Arc::new((0..layout.total_params()).map(|i| i as f32).collect());
    let shards = ActorShards::scatter(&params, layout.clone(), grouping);
    let cluster = Arc::new(ClusterSpec::a100_with_gpus(spec.world()));
    let mut groups: Vec<(Vec<usize>, CommGroup)> = Vec::new();
    for rank in 0..spec.world() {
        let ranks = grouping.gather_group(rank);
        if !groups.iter().any(|(g, _)| *g == ranks) {
            let devices = ranks.iter().map(|&r| DeviceId(r)).collect();
            groups.push((ranks, CommGroup::new(devices)));
        }
    }
    let handles: Vec<_> = (0..spec.world())
        .map(|rank| {
            let (pos, group) = (groups.iter())
                .find_map(|(ranks, g)| Some((ranks.iter().position(|&r| r == rank)?, g.clone())))
                .expect("every rank has a gather group");
            let comm = Communicator::new(group, pos, cluster.clone(), CommCostModel::default());
            let train = shards.train_buf(rank).to_vec();
            let shard_bytes = train.len() * 4;
            let mut engine = HybridEngineRank::new(rank, grouping, layout.clone(), train);
            let params = params.clone();
            thread::spawn(move || {
                let telemetry = Telemetry::disabled();
                let mut clock = VirtualClock::new();
                clock.advance(1.0);
                AT_LEAST.with(|c| c.set(shard_bytes));
                engine.to_generation_traced(&comm, &mut clock, &telemetry, "gpu-0", 0, 1.0);
                let matched = engine.gen_matches(&params);
                AT_LEAST.with(|c| c.set(0));
                assert!(matched, "rank {rank}: the gathered shards equal the replica");
                LARGE.with(Cell::get)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
}

#[test]
fn a_transition_and_its_check_copy_no_shard() {
    for method in [GroupingMethod::Strided, GroupingMethod::Vanilla] {
        let large = large_allocations_per_rank(method);
        assert!(
            large.iter().all(|&n| n == 0),
            "{method:?}: allocations of at least a training shard's bytes, per rank: {large:?}"
        );
    }
}
