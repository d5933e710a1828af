//! The runtime through its public API: spawning and echoing, the rank
//! context's groups, colocated and disjoint pools on the virtual clock,
//! panics and injected faults as errors and lost ranks, deadlines and
//! probes, provenance pulls, despawn, and the method registry.

// The tests' watchdogs stay outside the layer under test.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Duration;

use hf_core::{
    CallPolicy, Controller, CoreError, DataProto, ExecFault, ExecSite, FaultHook, Protocol,
    RankCtx, Worker, WorkerGroup, WorkerLayout,
};
use hf_parallel::ParallelSpec;
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;

fn echo_worker() -> Box<dyn Worker> {
    Box::new(|_m: &str, d: DataProto, _c: &mut RankCtx| Ok(d))
}

fn controller(gpus: usize) -> Controller {
    Controller::new(ClusterSpec::a100_with_gpus(gpus))
}

fn batch(rows: usize) -> DataProto {
    let mut d = DataProto::with_rows(rows);
    d.insert_f32("v", (0..rows).map(|v| v as f32).collect(), 1);
    d
}

#[test]
fn spawn_and_echo_round_trip() {
    let ctrl = controller(8);
    let pool = ResourcePool::contiguous(0, 8);
    let layout = WorkerLayout::train_only(ParallelSpec::new(2, 2, 2));
    let g = ctrl.spawn_group("echo", &pool, layout, |_r| echo_worker()).unwrap();
    let out = g.call_sync("any", &batch(8), Protocol::ThreeD).unwrap();
    assert_eq!(out.f32("v").unwrap().0, batch(8).f32("v").unwrap().0);
    assert!(ctrl.clock() > 0.0, "RPC dispatch must cost virtual time");
}

#[test]
fn rank_context_has_correct_groups() {
    let ctrl = controller(8);
    let pool = ResourcePool::contiguous(0, 8);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 4, 2));
    let g = ctrl
        .spawn_group("probe", &pool, layout, |_r| {
            Box::new(|_m: &str, _d: DataProto, c: &mut RankCtx| {
                let mut out = DataProto::with_rows(1);
                out.insert_f32(
                    "sizes",
                    vec![
                        c.comms.world.size() as f32,
                        c.comms.tp.size() as f32,
                        c.comms.dp.size() as f32,
                    ],
                    3,
                );
                Ok(out)
            })
        })
        .unwrap();
    let out = g.call_sync("probe", &DataProto::empty(), Protocol::AllToAll).unwrap();
    let (s, w) = out.f32("sizes").unwrap();
    assert_eq!(w, 3);
    for r in 0..8 {
        assert_eq!(&s[r * 3..r * 3 + 3], &[8.0, 4.0, 2.0], "rank {r}");
    }
}

#[test]
fn workers_do_real_collectives() {
    // Each rank contributes its rank; a world all-reduce must yield
    // the sum on every rank.
    let ctrl = controller(4);
    let pool = ResourcePool::contiguous(0, 4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    let g = ctrl
        .spawn_group("allreduce", &pool, layout, |rank| {
            Box::new(move |_m: &str, _d: DataProto, c: &mut RankCtx| {
                let mut clock = c.clock;
                let s = c.comms.world.all_reduce_sum(&mut clock, &[rank as f32]);
                c.clock = clock;
                let mut out = DataProto::with_rows(1);
                out.insert_f32("sum", vec![s[0]], 1);
                Ok(out)
            })
        })
        .unwrap();
    let out = g.call_sync("m", &DataProto::empty(), Protocol::AllToAll).unwrap();
    let (s, _) = out.f32("sum").unwrap();
    assert_eq!(s, &[6.0, 6.0, 6.0, 6.0]);
}

#[test]
fn colocated_groups_time_share_sequentially() {
    // Two groups on the same pool: worker A charges 1s, worker B
    // charges 2s; after both run, the shared device clock is >= 3s.
    let ctrl = controller(2);
    let pool = ResourcePool::contiguous(0, 2);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let a = ctrl
        .spawn_group("a", &pool, layout, |_r| {
            Box::new(|_m: &str, _d: DataProto, c: &mut RankCtx| {
                c.charge(1.0);
                Ok(DataProto::empty())
            })
        })
        .unwrap();
    let b = ctrl
        .spawn_group("b", &pool, layout, |_r| {
            Box::new(|_m: &str, _d: DataProto, c: &mut RankCtx| {
                c.charge(2.0);
                Ok(DataProto::empty())
            })
        })
        .unwrap();
    let fa = a.call("run", &DataProto::empty(), Protocol::OneToAll).unwrap();
    let fb = b.call("run", &DataProto::empty(), Protocol::OneToAll).unwrap();
    fa.wait().unwrap();
    fb.wait().unwrap();
    assert!(ctrl.clock() >= 3.0, "clock = {}", ctrl.clock());
}

#[test]
fn disjoint_groups_run_in_parallel_virtual_time() {
    // Two groups on disjoint pools each charge 5s; issued
    // concurrently, total virtual time stays ~5s, not 10s.
    let ctrl = controller(4);
    let slow = |_r: usize| -> Box<dyn Worker> {
        Box::new(|_m: &str, _d: DataProto, c: &mut RankCtx| {
            c.charge(5.0);
            Ok(DataProto::empty())
        })
    };
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let a = ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, slow).unwrap();
    let b = ctrl.spawn_group("b", &ResourcePool::contiguous(2, 2), layout, slow).unwrap();
    let fa = a.call("run", &DataProto::empty(), Protocol::OneToAll).unwrap();
    let fb = b.call("run", &DataProto::empty(), Protocol::OneToAll).unwrap();
    fa.wait().unwrap();
    fb.wait().unwrap();
    let t = ctrl.clock();
    assert!(t < 6.0, "parallel execution must overlap: clock = {t}");
    assert!(t >= 5.0);
}

#[test]
fn sequential_calls_accumulate_time() {
    let ctrl = controller(2);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let a = ctrl
        .spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| {
            Box::new(|_m: &str, _d: DataProto, c: &mut RankCtx| {
                c.charge(1.0);
                Ok(DataProto::empty())
            })
        })
        .unwrap();
    for _ in 0..3 {
        a.call_sync("run", &DataProto::empty(), Protocol::OneToAll).unwrap();
    }
    assert!(ctrl.clock() >= 3.0);
}

#[test]
fn worker_panic_becomes_error_not_crash() {
    let ctrl = controller(2);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let g = ctrl
        .spawn_group("flaky", &ResourcePool::contiguous(0, 2), layout, |_r| {
            Box::new(|m: &str, _d: DataProto, _c: &mut RankCtx| {
                if m == "boom" {
                    panic!("injected failure");
                }
                Ok(DataProto::empty())
            })
        })
        .unwrap();
    let err = g.call_sync("boom", &DataProto::empty(), Protocol::OneToAll);
    assert!(matches!(err, Err(CoreError::WorkerPanicked(_))), "{err:?}");
    // The device thread must still serve subsequent calls.
    assert!(g.call_sync("ok", &DataProto::empty(), Protocol::OneToAll).is_ok());
    // Shutdown joins cleanly: caught worker panics never take down
    // device threads.
    ctrl.shutdown().unwrap();
}

/// The satellite fix for the latent hang: a rank that panics while
/// its peer is blocked inside an all-reduce must poison the group so
/// the peer unwinds with `PeerFailed` instead of waiting forever.
#[test]
fn panic_mid_all_reduce_unblocks_peers_with_peer_failed() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let ctrl = controller(2);
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("half-dead", &ResourcePool::contiguous(0, 2), layout, |rank| {
                Box::new(move |_m: &str, _d: DataProto, c: &mut RankCtx| {
                    if rank == 0 {
                        panic!("rank 0 dies before the collective");
                    }
                    // Rank 1 blocks in the rendezvous until rank 0's
                    // panic poisons the group.
                    let mut clock = c.clock;
                    let s = c.comms.world.all_reduce_sum(&mut clock, &[1.0]);
                    c.clock = clock;
                    let mut out = DataProto::with_rows(1);
                    out.insert_f32("s", s, 1);
                    Ok(out)
                })
            })
            .unwrap();
        let fut = g.call("step", &DataProto::empty(), Protocol::AllToAll).unwrap();
        let err = fut.wait();
        // Root cause (the panic) wins over the cascaded PeerFailed.
        assert!(matches!(err, Err(CoreError::WorkerPanicked(_))), "{err:?}");
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(30)).expect("collective must abort, not deadlock");
    body.join().unwrap();
}

struct KillOnCall {
    method: &'static str,
    rank: usize,
    nth: u64,
}

impl FaultHook for KillOnCall {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        let mut f = ExecFault::none();
        if site.method == self.method && site.rank == self.rank && site.call_index == self.nth {
            f.kill = Some(format!("injected kill of rank {}", self.rank));
        }
        f
    }
}

#[test]
fn injected_kill_marks_rank_dead_and_poisons_peers() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let ctrl = Controller::with_faults(
            ClusterSpec::a100_with_gpus(2),
            CommCostModel::default(),
            Telemetry::disabled(),
            Arc::new(KillOnCall { method: "step", rank: 0, nth: 1 }),
        );
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("victim", &ResourcePool::contiguous(0, 2), layout, |_r| {
                Box::new(move |m: &str, _d: DataProto, c: &mut RankCtx| {
                    if m == "step" {
                        let mut clock = c.clock;
                        c.comms.world.barrier(&mut clock);
                        c.clock = clock;
                    }
                    Ok(DataProto::empty())
                })
            })
            .unwrap();
        let err = g.call_sync("step", &DataProto::empty(), Protocol::AllToAll);
        assert!(
            matches!(err, Err(CoreError::WorkerPanicked(_))),
            "killed rank is the root cause: {err:?}"
        );
        // Every later RPC to the dead rank fails fast as PeerFailed.
        let err = g.call_sync("other", &DataProto::empty(), Protocol::AllToAll);
        assert!(matches!(err, Err(CoreError::PeerFailed(_))), "{err:?}");
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("injected kill must abort the collective, not deadlock");
    body.join().unwrap();
}

struct DropFirst {
    method: &'static str,
    times: std::sync::atomic::AtomicU64,
}

impl FaultHook for DropFirst {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        use std::sync::atomic::Ordering;
        let mut f = ExecFault::none();
        if site.method == self.method {
            let left = self.times.load(Ordering::SeqCst);
            if left > 0
                && self
                    .times
                    .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                f.drop_rpc = true;
            }
        }
        f
    }
}

#[test]
fn transient_drops_are_retried_with_backoff() {
    let telemetry = Telemetry::enabled();
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(1),
        CommCostModel::default(),
        telemetry.clone(),
        Arc::new(DropFirst { method: "flaky", times: std::sync::atomic::AtomicU64::new(2) }),
    );
    ctrl.set_policy(CallPolicy { max_retries: 3, ..CallPolicy::default() });
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 1));
    let g = ctrl
        .spawn_group("net", &ResourcePool::contiguous(0, 1), layout, |_r| echo_worker())
        .unwrap();
    let before = ctrl.clock();
    let out = g.call_sync("flaky", &batch(2), Protocol::Dp);
    assert!(out.is_ok(), "{out:?}");
    assert_eq!(telemetry.counter("resilience.retries"), 2);
    assert_eq!(telemetry.counter("resilience.rpc_dropped"), 2);
    assert!(ctrl.clock() > before, "retries charge virtual backoff");
    // With retries exhausted, the transient error surfaces.
    let ctrl2 = Controller::with_faults(
        ClusterSpec::a100_with_gpus(1),
        CommCostModel::default(),
        Telemetry::disabled(),
        Arc::new(DropFirst { method: "flaky", times: std::sync::atomic::AtomicU64::new(9) }),
    );
    let g2 = ctrl2
        .spawn_group("net", &ResourcePool::contiguous(0, 1), layout, |_r| echo_worker())
        .unwrap();
    let err = g2.call_sync("flaky", &batch(2), Protocol::Dp);
    assert!(matches!(err, Err(CoreError::Transient(_))), "{err:?}");
}

#[test]
fn wait_deadline_times_out_on_stuck_worker() {
    let ctrl = controller(1);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 1));
    let g = ctrl
        .spawn_group("slow", &ResourcePool::contiguous(0, 1), layout, |_r| {
            Box::new(|m: &str, _d: DataProto, _c: &mut RankCtx| {
                if m == "stall" {
                    // Wall-clock stall (not virtual): models a wedged
                    // worker the deadline must bound.
                    std::thread::sleep(Duration::from_millis(300));
                }
                Ok(DataProto::empty())
            })
        })
        .unwrap();
    let fut = g.call("stall", &DataProto::empty(), Protocol::OneToAll).unwrap();
    let err = fut.wait_deadline(Duration::from_millis(20));
    assert!(matches!(err, Err(CoreError::Timeout(_))), "{err:?}");
    // The worker eventually finishes; the device keeps serving.
    assert!(g.call_sync("ok", &DataProto::empty(), Protocol::OneToAll).is_ok());
}

#[test]
fn try_ready_probes_without_blocking_or_consuming() {
    let ctrl = controller(1);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 1));
    let g = ctrl
        .spawn_group("sleepy", &ResourcePool::contiguous(0, 1), layout, |_r| {
            Box::new(|m: &str, d: DataProto, _c: &mut RankCtx| {
                if m == "slow" {
                    // Wall-clock delay so the controller observably
                    // sees "not ready yet" before the reply lands.
                    std::thread::sleep(Duration::from_millis(100));
                }
                Ok(d)
            })
        })
        .unwrap();
    let fut = g.call("slow", &batch(2), Protocol::Dp).unwrap();
    assert!(!fut.try_ready(), "reply cannot be queued before the worker ran");
    // Poll until the reply lands, then wait() must return instantly
    // with the full output — the probe consumed nothing.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !fut.try_ready() {
        assert!(std::time::Instant::now() < deadline, "worker never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(fut.try_ready(), "readiness is sticky until collected");
    let out = fut.wait().unwrap();
    assert_eq!(out.f32("v").unwrap().0, batch(2).f32("v").unwrap().0);
}

#[test]
fn overlapping_pools_are_rejected() {
    let ctrl = controller(4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker()).unwrap();
    let err = ctrl.spawn_group("b", &ResourcePool::contiguous(1, 2), layout, |_r| echo_worker());
    assert!(matches!(err, Err(CoreError::Config(_))));
    // Identical pool (colocation) is fine.
    assert!(ctrl
        .spawn_group("c", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker())
        .is_ok());
}

#[test]
fn pool_layout_size_mismatch_rejected() {
    let ctrl = controller(4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    let err = ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker());
    assert!(matches!(err, Err(CoreError::Config(_))));
}

#[test]
fn provenance_charges_inter_model_pull() {
    // A batch produced on device 0 and consumed on devices 2-3 must
    // cost p2p time.
    let ctrl = controller(4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let a = ctrl
        .spawn_group("prod", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker())
        .unwrap();
    let b = ctrl
        .spawn_group("cons", &ResourcePool::contiguous(2, 2), layout, |_r| echo_worker())
        .unwrap();
    let mut big = DataProto::with_rows(1024);
    big.insert_f32("x", vec![0.0; 1024 * 1024], 1024);
    let out = a.call_sync("produce", &big, Protocol::Dp).unwrap();
    assert_eq!(out.src_device(), Some(0));
    let t0 = ctrl.clock();
    b.call_sync("consume", &out, Protocol::Dp).unwrap();
    assert!(ctrl.clock() > t0, "consuming remote data must cost time");
}

#[test]
fn a_reply_unioned_into_a_controller_batch_is_pulled_from_its_device() {
    // The barrier driver's preparation pattern: a reply collected on
    // devices 0-1 is unioned into a batch the controller built, and the
    // union carries the reply's source device, so a consumer on devices
    // 2-3 pulls the whole batch; the controller's batch alone pulls
    // nothing.
    let telemetry = Telemetry::enabled();
    let ctrl = Controller::with_telemetry(
        ClusterSpec::a100_with_gpus(4),
        CommCostModel::default(),
        telemetry.clone(),
    );
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let prod = ctrl
        .spawn_group("prod", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker())
        .unwrap();
    let cons = ctrl
        .spawn_group("cons", &ResourcePool::contiguous(2, 2), layout, |_r| echo_worker())
        .unwrap();
    let mut reply_input = DataProto::with_rows(4);
    reply_input.insert_f32("x", vec![1.0; 4 * 8], 8);
    let reply = prod.call_sync("produce", &reply_input, Protocol::Dp).unwrap();
    let controller_batch = batch(4);
    let mut merged = controller_batch.clone();
    merged.union(reply).unwrap();
    assert_eq!(merged.src_device(), Some(0), "the union takes the reply's source device");

    let pulled = || telemetry.counter("p2p.pull_bytes");
    let before = pulled();
    cons.call_sync("consume", &controller_batch, Protocol::Dp).unwrap();
    assert_eq!(pulled(), before, "the controller's own batch is not pulled");
    cons.call_sync("consume", &merged, Protocol::Dp).unwrap();
    assert_eq!(pulled() - before, merged.bytes() as u64, "every rank pulls its chunk");
}

#[test]
fn despawn_frees_the_pool_for_an_overlapping_respawn() {
    // The elastic re-mapping teardown path: kill-free despawn of a
    // 4-device group, then respawn onto a *partially overlapping*
    // 3-device pool on the same live controller.
    let ctrl = controller(4);
    let layout4 = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    let g = ctrl
        .spawn_group("m", &ResourcePool::contiguous(0, 4), layout4, |_r| echo_worker())
        .unwrap();
    g.call_sync("warm", &batch(4), Protocol::Dp).unwrap();
    ctrl.despawn_group(g);
    let layout3 = WorkerLayout::train_only(ParallelSpec::new(1, 1, 3));
    let g2 = ctrl
        .spawn_group("m", &ResourcePool::contiguous(0, 3), layout3, |_r| echo_worker())
        .unwrap();
    let out = g2.call_sync("run", &batch(3), Protocol::Dp).unwrap();
    assert_eq!(out.f32("v").unwrap().0, batch(3).f32("v").unwrap().0);
    ctrl.shutdown().unwrap();
}

#[test]
fn injected_kill_is_recorded_as_a_lost_rank() {
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(4),
        CommCostModel::default(),
        Telemetry::disabled(),
        Arc::new(KillOnCall { method: "step", rank: 1, nth: 1 }),
    );
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    let g = ctrl
        .spawn_group("victim", &ResourcePool::contiguous(0, 4), layout, |_r| echo_worker())
        .unwrap();
    let err = g.call_sync("step", &batch(4), Protocol::Dp);
    assert!(err.is_err());
    let lost = ctrl.lost_ranks();
    assert_eq!(lost.len(), 1, "only the killed rank is a loss, not its peers: {lost:?}");
    assert_eq!(lost[0].group, "victim");
    assert_eq!(lost[0].rank, 1);
    assert_eq!(ctrl.lost_devices(), vec![DeviceId(1)]);
}

#[test]
fn originating_panic_is_a_loss_but_cascaded_aborts_are_not() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let ctrl = controller(2);
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("half-dead", &ResourcePool::contiguous(0, 2), layout, |rank| {
                Box::new(move |_m: &str, _d: DataProto, c: &mut RankCtx| {
                    if rank == 0 {
                        panic!("rank 0 dies");
                    }
                    let mut clock = c.clock;
                    c.comms.world.all_reduce_sum(&mut clock, &[1.0]);
                    c.clock = clock;
                    Ok(DataProto::empty())
                })
            })
            .unwrap();
        let _ = g.call("step", &DataProto::empty(), Protocol::AllToAll).unwrap().wait();
        let lost = ctrl.lost_ranks();
        assert_eq!(lost.len(), 1, "the cascaded abort on rank 1 is not a loss: {lost:?}");
        assert_eq!(lost[0].rank, 0);
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(30)).expect("must not deadlock");
    body.join().unwrap();
}

/// Two collective calls are queued on each rank before the first is
/// awaited (the pipelined driver's micro-batch updates do this); rank
/// 0 is killed on the first. Rank 1's second call finds its
/// communicator already aborted — a cascade, not a second loss.
#[test]
fn queued_call_on_an_aborted_communicator_is_not_a_lost_rank() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let ctrl = Controller::with_faults(
            ClusterSpec::a100_with_gpus(2),
            CommCostModel::default(),
            Telemetry::disabled(),
            Arc::new(KillOnCall { method: "step", rank: 0, nth: 1 }),
        );
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("victim", &ResourcePool::contiguous(0, 2), layout, |_r| {
                Box::new(|_m: &str, _d: DataProto, c: &mut RankCtx| {
                    let mut clock = c.clock;
                    c.comms.world.barrier(&mut clock);
                    c.clock = clock;
                    Ok(DataProto::empty())
                })
            })
            .unwrap();
        let first = g.call("step", &DataProto::empty(), Protocol::AllToAll).unwrap();
        let second = g.call("step", &DataProto::empty(), Protocol::AllToAll).unwrap();
        assert!(matches!(first.wait(), Err(CoreError::WorkerPanicked(_))));
        assert!(matches!(second.wait(), Err(CoreError::PeerFailed(_))));
        let lost = ctrl.lost_ranks();
        assert_eq!(lost.len(), 1, "only the killed rank is a loss: {lost:?}");
        assert_eq!(lost[0].rank, 0);
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(Duration::from_secs(30)).expect("must not deadlock");
    body.join().unwrap();
}

fn setup() -> (Controller, WorkerGroup) {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(2));
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let g =
        ctrl.spawn_group("m", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker()).unwrap();
    (ctrl, g)
}

#[test]
fn register_then_invoke_uses_bound_protocol() {
    let (_ctrl, g) = setup();
    g.register("step", Protocol::Dp);
    let mut d = DataProto::with_rows(4);
    d.insert_f32("x", vec![1.0, 2.0, 3.0, 4.0], 1);
    let out = g.invoke_sync("step", &d).unwrap();
    // (collected outputs carry provenance metadata; compare payloads)
    assert_eq!(out.f32("x").unwrap(), d.f32("x").unwrap(), "DP echo must round-trip");
}

#[test]
fn invoke_unregistered_method_errors() {
    let (_ctrl, g) = setup();
    let err = g.invoke_sync("nope", &DataProto::empty());
    assert!(matches!(err, Err(CoreError::Config(_))), "{err:?}");
}

#[test]
fn re_registering_overrides_protocol() {
    let (_ctrl, g) = setup();
    g.register("step", Protocol::OneToAll).register("step", Protocol::Dp);
    let mut d = DataProto::with_rows(2);
    d.insert_f32("x", vec![1.0, 2.0], 1);
    // Under OneToAll the echo would duplicate rows (2 ranks × 2 rows);
    // under Dp it round-trips.
    let out = g.invoke_sync("step", &d).unwrap();
    assert_eq!(out.rows(), 2);
}

#[test]
fn timeline_records_calls_in_order() {
    let (ctrl, g) = setup();
    g.register("a", Protocol::OneToAll);
    g.invoke_sync("a", &DataProto::empty()).unwrap();
    g.invoke_sync("a", &DataProto::empty()).unwrap();
    let tl = ctrl.timeline();
    assert_eq!(tl.len(), 2);
    assert_eq!(tl[0].group, "m");
    assert_eq!(tl[0].method, "a");
    assert!(tl[0].completed >= tl[0].dispatched);
    assert!(tl[1].dispatched >= tl[0].dispatched);
    ctrl.clear_timeline();
    assert!(ctrl.timeline().is_empty());
}

#[test]
fn timeline_positions_are_absolute_across_a_clear() {
    let (ctrl, g) = setup();
    g.register("a", Protocol::OneToAll).register("b", Protocol::OneToAll);
    g.invoke_sync("a", &DataProto::empty()).unwrap();
    g.invoke_sync("b", &DataProto::empty()).unwrap();
    let (all, end) = ctrl.timeline_from(0);
    assert_eq!((all, end), (ctrl.timeline(), 2), "position 0 is the whole timeline");
    let (tail, _) = ctrl.timeline_from(1);
    assert_eq!(tail.iter().map(|e| e.method.as_str()).collect::<Vec<_>>(), ["b"]);
    ctrl.clear_timeline();
    g.invoke_sync("a", &DataProto::empty()).unwrap();
    // The call after the clear is position 2, not 0; the cleared ones
    // are gone, wherever a reader asks from.
    let (since, end) = ctrl.timeline_from(2);
    assert_eq!((since.len(), since[0].method.as_str(), end), (1, "a", 3));
    assert_eq!(ctrl.timeline_from(0), (ctrl.timeline(), 3));
    assert_eq!(ctrl.timeline().len(), 1);
    assert_eq!(ctrl.timeline_from(3), (Vec::new(), 3), "the end yields nothing");
    assert_eq!(ctrl.timeline_from(usize::MAX), (Vec::new(), 3), "past the end yields nothing");
}

#[test]
fn futures_can_be_waited_out_of_order() {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
    let a =
        ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker()).unwrap();
    let b =
        ctrl.spawn_group("b", &ResourcePool::contiguous(2, 2), layout, |_r| echo_worker()).unwrap();
    let mut d = DataProto::with_rows(2);
    d.insert_f32("x", vec![5.0, 6.0], 1);
    let fa = a.call("m", &d, Protocol::Dp).unwrap();
    let fb = b.call("m", &d, Protocol::Dp).unwrap();
    // Wait b before a: the dataflow is asynchronous, order is free.
    assert_eq!(fb.wait().unwrap().f32("x").unwrap(), d.f32("x").unwrap());
    assert_eq!(fa.wait().unwrap().f32("x").unwrap(), d.f32("x").unwrap());
}
