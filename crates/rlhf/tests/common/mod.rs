//! Shared by the fault-scenario test targets: the watchdog no injected
//! failure may outlive, a fresh checkpoint store, and the 4-GPU
//! colocated placement every scenario starts from.
#![allow(dead_code)] // each test target uses its own subset

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{CheckpointStore, FaultInjector};
use hf_rlhf::Placement;
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

/// Injected-failure tests must never hang: runs `f` on a worker thread
/// and fails loudly if it exceeds `secs` (a deadlock would otherwise
/// wedge the whole suite). A panic inside `f` is re-raised as itself,
/// not reported as a deadlock.
#[allow(clippy::disallowed_methods)] // the watchdog times the sync layer, so it stays outside it
pub fn with_watchdog<F: FnOnce() + Send + 'static>(secs: u64, f: F) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // Disconnected means the closure panicked: join propagates it.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => h.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("deadlock: scenario exceeded {secs}s"),
    }
}

/// An empty checkpoint store in a per-process temp directory.
pub fn fresh_store(tag: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hf-rlhf-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).unwrap()
}

/// Every model colocated on GPUs 0–3, actor 1-2-2 with a (1,1) strided
/// generation grouping.
pub fn placement_4gpu(critic: bool, cost: bool) -> Placement {
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(ResourcePool::contiguous(0, 4), WorkerLayout::with_gen(gen), critic, cost)
}

/// A 4-GPU controller with telemetry on, and `fault` armed if given.
pub fn controller_4gpu(fault: Option<Arc<FaultInjector>>) -> Controller {
    let (cluster, cost) = (ClusterSpec::a100_with_gpus(4), CommCostModel::default());
    match fault {
        Some(f) => Controller::with_faults(cluster, cost, Telemetry::enabled(), f),
        None => Controller::with_telemetry(cluster, cost, Telemetry::enabled()),
    }
}
