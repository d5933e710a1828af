//! A pipelined step's heap allocations on the driver thread do not grow
//! with the run: the driver reads only the timeline entries its step
//! added, so step 60 costs what step 10 does — not two string copies
//! more for every call recorded since the controller was built.
//!
//! Counted by a counting global allocator, per thread, so the device
//! threads' allocations are not counted; its own test binary, so no
//! other test's allocations are either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{PipelineConfig, PipelinedPpo, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, ResourcePool};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised, drop-free thread local never fails to
    // access; `try_with` keeps the allocator panic-free regardless.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; counting only bumps a
// thread-local integer and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Steps run; the early and late steps compared.
const STEPS: u64 = 62;
const EARLY: usize = 10;
const LATE: usize = 60;
/// Allocations a late step may make beyond an early one: the amortised
/// doubling of the controller's timeline and of the driver's three
/// stage-interval lists can land in either step, a reallocation each.
const SLACK: u64 = 8;

#[test]
fn a_pipelined_steps_driver_allocations_do_not_grow_with_the_run() {
    // Colocated actor 1-2-2 with a strided HybridEngine grouping, as in
    // `pipeline_determinism`: twelve awaited calls a step.
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let gen = GenGrouping::new(ParallelSpec::new(1, 2, 2), 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        true,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    let mut driver = PipelinedPpo::new(PipelineConfig { staleness: 1, gen_chunks: 2 });
    let mut per_step = Vec::new();
    for iter in 0..STEPS {
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let before = ALLOCS.with(Cell::get);
        driver.step(&sys, &ctrl, &prompts).unwrap();
        per_step.push(ALLOCS.with(Cell::get) - before);
    }
    let recorded = ctrl.timeline().len();
    assert!(recorded >= 10 * LATE, "the run recorded only {recorded} calls");
    let (early, late) = (per_step[EARLY], per_step[LATE]);
    assert!(
        late <= early + SLACK,
        "step {LATE} made {late} allocations, step {EARLY} {early} (slack {SLACK}); \
         {recorded} calls on the timeline; every step: {per_step:?}"
    );
    driver.flush(&sys, &ctrl).unwrap();
    let _ = ctrl.shutdown();
}
