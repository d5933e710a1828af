//! How many times a call puts a thread to sleep. On one CPU, a rank
//! hand-off that parks on the futex costs a sleep and a wake; one that
//! yields costs a fraction of that. An 8-rank no-op call, pinned to one
//! CPU, is held to at most 2 voluntary context switches over the whole
//! process (every futex park that sleeps counts one).
//!
//! Its own test binary, so no other test's threads are counted.

#![cfg(target_os = "linux")]

use hf_core::{Controller, DataProto, Protocol, RankCtx, Worker, WorkerLayout};
use hf_parallel::ParallelSpec;
use hf_simcluster::{ClusterSpec, ResourcePool};

/// Pins the calling thread to the last CPU it may run on; threads it
/// spawns afterwards inherit the mask.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `size` bytes that
    // outlives the call; pid 0 is the calling thread.
    assert_eq!(unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) }, 0);
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, b)| **b != 0).expect("a CPU");
    let mut one = [0u64; 16];
    one[word] = 1 << (63 - bits.leading_zeros());
    // SAFETY: as above, with a read-only mask of one CPU.
    assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
}

/// `voluntary_ctxt_switches` summed over the process's live threads.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}

#[test]
fn an_eight_rank_call_makes_at_most_two_voluntary_switches() {
    const WARMUP: usize = 200;
    const CALLS: usize = 2_000;
    pin_to_one_cpu();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(8));
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 8));
    let echo = ctrl
        .spawn_group("echo", &ResourcePool::contiguous(0, 8), layout, |_r| -> Box<dyn Worker> {
            Box::new(|_m: &str, d: DataProto, _c: &mut RankCtx| Ok(d))
        })
        .unwrap();
    let empty = DataProto::empty();
    for _ in 0..WARMUP {
        echo.call_sync("echo", &empty, Protocol::AllToAll).unwrap();
    }
    let before = voluntary_switches();
    for _ in 0..CALLS {
        echo.call_sync("echo", &empty, Protocol::AllToAll).unwrap();
    }
    let per_call = (voluntary_switches() - before) as f64 / CALLS as f64;
    ctrl.shutdown().unwrap();
    assert!(per_call <= 2.0, "{per_call:.2} voluntary context switches per 8-rank call (budget 2)");
}
