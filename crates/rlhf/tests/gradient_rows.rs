//! A steady-state update allocates no gradient row: every buffer of
//! `param_count + 1` values on the gradient path — a rank's rows, the
//! tree sum's spares, the DP all-reduce's result, the sum the optimizer
//! stepped on — comes from and goes back to the controller's one free
//! list (`hf_simcluster::RowPool`), so after the first iterations no
//! rank thread allocates one, and none frees one for glibc to trim.
//!
//! Counted on every thread by `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::GLOBAL;
use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rlhf::env::make_prompts;
use hf_rlhf::{ppo_iteration, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, ResourcePool};

/// Iterations run before counting: the list fills while its rows are
/// first needed.
const WARM: u64 = 3;
/// Iterations counted.
const COUNTED: u64 = 8;

#[test]
fn steady_state_updates_allocate_no_gradient_row() {
    // `pipeline_alloc`'s system on the barrier driver: colocated actor
    // 1-2-2 (strided HybridEngine grouping) and critic, both updated
    // every iteration through a model-parallel fold and a DP all-reduce.
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
    let row_bytes = (cfg.lm.param_count() + 1) * 4;
    let prompts =
        |iter| make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
    for iter in 0..WARM {
        ppo_iteration(&sys, &ctrl, &prompts(iter)).unwrap();
    }
    GLOBAL.count_size(row_bytes);
    for iter in WARM..WARM + COUNTED {
        ppo_iteration(&sys, &ctrl, &prompts(iter)).unwrap();
    }
    let rows = GLOBAL.sized();
    let _ = ctrl.shutdown();
    assert!(
        rows <= COUNTED,
        "{rows} allocations of a {row_bytes}-byte gradient row in {COUNTED} iterations \
         (at most one an iteration)"
    );
}
