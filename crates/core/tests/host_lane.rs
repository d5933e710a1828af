//! Host-lane workers (`Worker::lane` = `Lane::Host`): a device thread
//! keeps a second virtual clock for its node's host CPUs. A host-lane
//! call keeps its place in the device's FIFO mailbox but runs on that
//! clock, so in virtual time it overlaps the GPU work queued around it.

// The watchdog stays outside the layer under test.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hf_core::{
    Controller, CoreError, DataProto, ExecFault, ExecSite, FaultHook, Lane, LostRank, Protocol,
    RankCtx, Result, TimelineEntry, Worker, WorkerLayout,
};
use hf_parallel::ParallelSpec;
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;

/// A closure worker whose calls run on the host lane.
struct OnHost<F>(F);

impl<F> Worker for OnHost<F>
where
    F: FnMut(&str, DataProto, &mut RankCtx) -> Result<DataProto> + Send,
{
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        (self.0)(method, data, ctx)
    }

    fn lane(&self) -> Lane {
        Lane::Host
    }
}

fn pure_dp(d: usize) -> WorkerLayout {
    WorkerLayout::train_only(ParallelSpec::new(1, 1, d))
}

/// Charges `seconds`, then replies with its place in the order the
/// device threads ran calls (`seq`).
fn ticket(
    seconds: f64,
    seq: &Arc<AtomicUsize>,
) -> impl FnMut(&str, DataProto, &mut RankCtx) -> Result<DataProto> {
    let seq = seq.clone();
    move |_m: &str, _d: DataProto, c: &mut RankCtx| {
        c.charge(seconds);
        let mut out = DataProto::with_rows(1);
        out.insert_f32("seq", vec![seq.fetch_add(1, Ordering::SeqCst) as f32], 1);
        Ok(out)
    }
}

fn seq_of(reply: &DataProto) -> f32 {
    reply.f32("seq").unwrap().0[0]
}

fn entry(ctrl: &Controller, group: &str, method: &str) -> TimelineEntry {
    let timeline = ctrl.timeline();
    timeline.into_iter().find(|e| e.group == group && e.method == method).unwrap()
}

/// Runs `body` on its own thread and fails the test if it has not
/// returned after 30 s: a kill must abort its peers, not hang them.
fn within_30s(body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(30)).expect("must not deadlock");
    handle.join().unwrap();
}

#[test]
fn a_host_call_overlaps_the_gpu_call_queued_before_it_but_runs_after_it() {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(1));
    let rpc = CommCostModel::default().rpc_dispatch_time();
    let seq = Arc::new(AtomicUsize::new(0));
    let pool = ResourcePool::contiguous(0, 1);
    let gpu = ctrl.spawn_group("gpu", &pool, pure_dp(1), |_| Box::new(ticket(1.0, &seq))).unwrap();
    let host = ctrl
        .spawn_group("host", &pool, pure_dp(1), |_| Box::new(OnHost(ticket(0.5, &seq))))
        .unwrap();

    let empty = DataProto::empty();
    let first = gpu.call("first", &empty, Protocol::OneToAll).unwrap();
    let scored = host.call("score", &empty, Protocol::OneToAll).unwrap();
    let second = gpu.call("second", &empty, Protocol::OneToAll).unwrap();
    let order: Vec<f32> = [first, scored, second].map(|f| seq_of(&f.wait().unwrap())).into();
    assert_eq!(order, [0.0, 1.0, 2.0], "the mailbox keeps its FIFO order across lanes");

    // In virtual time the host call runs from its RPC's arrival, beside
    // the GPU call queued ahead of it, and the GPU's clock never sees it.
    let scored = entry(&ctrl, "host", "score");
    assert_eq!(scored.started, scored.dispatched);
    assert_eq!(scored.completed, rpc + 0.5);
    assert_eq!(entry(&ctrl, "gpu", "first").completed, rpc + 1.0);
    assert_eq!(entry(&ctrl, "gpu", "second").completed, rpc + 1.0 + 1.0);
}

#[test]
fn a_gpu_call_issued_on_a_host_future_starts_at_its_finish() {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(1));
    let rpc = CommCostModel::default().rpc_dispatch_time();
    let seq = Arc::new(AtomicUsize::new(0));
    let pool = ResourcePool::contiguous(0, 1);
    let host = ctrl
        .spawn_group("host", &pool, pure_dp(1), |_| Box::new(OnHost(ticket(2.0, &seq))))
        .unwrap();
    let gpu = ctrl.spawn_group("gpu", &pool, pure_dp(1), |_| Box::new(ticket(1.0, &seq))).unwrap();

    let scored = host.call("score", &DataProto::empty(), Protocol::OneToAll).unwrap();
    let consumed = gpu.call_on("consume", &scored, Protocol::OneToAll).unwrap();
    consumed.wait().unwrap();
    scored.wait().unwrap();

    // The GPU idles until the host lane's reply exists, then runs (the
    // reply is on its own device: no pull).
    let finish = entry(&ctrl, "host", "score").completed;
    assert_eq!(finish, rpc + 2.0);
    let consumed = entry(&ctrl, "gpu", "consume");
    assert_eq!(consumed.started, finish);
    assert_eq!(consumed.completed, finish + 1.0);
}

/// Kills rank `rank` of `group` on its first call of `method`.
struct KillOnFirst {
    group: &'static str,
    method: &'static str,
    rank: usize,
}

impl FaultHook for KillOnFirst {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        let mut f = ExecFault::none();
        let hit = (site.group, site.method, site.rank) == (self.group, self.method, self.rank);
        if hit && site.call_index == 1 {
            f.kill = Some(format!("injected kill of {} rank {}", self.group, self.rank));
        }
        f
    }
}

#[test]
fn a_killed_host_rank_is_one_lost_rank_and_poisons_its_groups() {
    within_30s(|| {
        let ctrl = Controller::with_faults(
            ClusterSpec::a100_with_gpus(2),
            CommCostModel::default(),
            Telemetry::disabled(),
            Arc::new(KillOnFirst { group: "verifier", method: "score", rank: 1 }),
        );
        let pool = ResourcePool::contiguous(0, 2);
        // Rank 0 waits in a barrier for rank 1, whose kill must release it.
        let verifier = ctrl
            .spawn_group("verifier", &pool, pure_dp(2), |_| {
                Box::new(OnHost(|_m: &str, _d: DataProto, c: &mut RankCtx| {
                    let mut clock = c.clock;
                    c.comms.world.barrier(&mut clock);
                    c.clock = clock;
                    Ok(DataProto::empty())
                }))
            })
            .unwrap();
        let gpu = ctrl
            .spawn_group("gpu", &pool, pure_dp(2), |_| {
                Box::new(|_m: &str, d: DataProto, _c: &mut RankCtx| Ok(d))
            })
            .unwrap();

        let err = verifier.call("score", &DataProto::empty(), Protocol::AllToAll).unwrap().wait();
        assert!(matches!(err, Err(CoreError::WorkerPanicked(_))), "{err:?}");
        let lost = ctrl.lost_ranks();
        assert_eq!(lost.len(), 1, "the aborted peer is not a loss: {lost:?}");
        let LostRank { device, group, rank, .. } = &lost[0];
        assert_eq!((*device, group.as_str(), *rank), (DeviceId(1), "verifier", 1));

        // The dead rank fails fast; the GPU lane of its device serves on.
        let again = verifier.call("score", &DataProto::empty(), Protocol::AllToAll).unwrap().wait();
        assert!(matches!(again, Err(CoreError::PeerFailed(_))), "{again:?}");
        assert!(gpu.call_sync("echo", &DataProto::empty(), Protocol::AllToAll).is_ok());
    });
}
