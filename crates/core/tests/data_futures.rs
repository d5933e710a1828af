//! Data futures as call arguments (`WorkerGroup::call_on`): the clock
//! rule, the mailbox order, the bytes every rank reads, and how a failed
//! producer reaches its consumers.

// The watchdog and the tests' bookkeeping stay outside the layer under test.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hf_core::{
    CallPolicy, Controller, CoreError, DataProto, ExecFault, ExecSite, FaultHook, Protocol,
    RankCtx, Worker, WorkerGroup, WorkerLayout,
};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;
use proptest::prelude::*;

fn batch(rows: usize) -> DataProto {
    let mut d = DataProto::with_rows(rows);
    d.insert_f32("v", (0..rows * 3).map(|v| v as f32).collect(), 3);
    d.insert_tokens("ids", (0..rows as u32).collect(), 1);
    d
}

fn pure_dp(d: usize) -> WorkerLayout {
    WorkerLayout::train_only(ParallelSpec::new(1, 1, d))
}

/// Echoes its input after charging `seconds` of virtual time.
fn charging(seconds: f64) -> impl FnMut(usize) -> Box<dyn Worker> {
    move |_rank| {
        Box::new(move |_m: &str, d: DataProto, c: &mut RankCtx| {
            c.charge(seconds);
            Ok(d)
        })
    }
}

/// Runs `body` on its own thread and fails the test if it has not
/// returned after 30 s: a deadlock must not hang the suite.
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
fn a_call_on_a_future_starts_when_its_input_exists() {
    let cluster = ClusterSpec::a100_with_gpus(4);
    let cost = CommCostModel::default();
    let rpc = cost.rpc_dispatch_time();
    let data = batch(64);
    let pull = cost.p2p_time(&cluster, DeviceId(0), DeviceId(2), (data.bytes() / 2) as f64);
    assert!(pull > 0.0);

    // (producer's compute, expected start of the consumer): behind a slow
    // producer the consumer starts when the reply exists; behind a fast
    // one, when its own RPC arrives.
    for (compute, starts_at) in [(5.0, rpc + 5.0), (0.0, rpc)] {
        let ctrl = Controller::new(cluster.clone());
        let prod = ctrl.spawn_group(
            "prod",
            &ResourcePool::contiguous(0, 2),
            pure_dp(2),
            charging(compute),
        );
        let cons =
            ctrl.spawn_group("cons", &ResourcePool::contiguous(2, 2), pure_dp(2), charging(1.0));
        let (prod, cons) = (prod.unwrap(), cons.unwrap());

        let produced = prod.call("produce", &data, Protocol::Dp).unwrap();
        let consumed = cons.call_on("consume", &produced, Protocol::Dp).unwrap();
        assert_eq!(ctrl.clock(), 0.0, "issuing never advances the controller clock");
        let reply = produced.wait().unwrap();
        assert_eq!(consumed.wait().unwrap().f32("v").unwrap(), reply.f32("v").unwrap());

        let timeline = ctrl.timeline();
        let (p, c) = (&timeline[0], &timeline[1]);
        assert_eq!((p.dispatched, p.started, p.completed), (rpc, rpc, rpc + compute));
        assert_eq!(c.dispatched, p.dispatched, "one dispatch instant");
        assert_eq!(c.started, starts_at);
        assert_eq!(c.completed, starts_at + pull + 1.0);

        // The same reply carried by the controller: the RPC follows the
        // wait instead of overlapping the producer.
        let t0 = ctrl.clock();
        cons.call_sync("consume", &reply, Protocol::Dp).unwrap();
        assert!((ctrl.clock() - (t0 + rpc + pull + 1.0)).abs() < 1e-12);
    }
}

#[test]
fn colocated_producer_and_consumer_neither_deadlock_nor_reorder() {
    within_30s(|| {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(2));
        let pool = ResourcePool::contiguous(0, 2);
        let log: Arc<Mutex<Vec<(usize, String)>>> = Arc::default();
        let logging = |name: &'static str| {
            let log = log.clone();
            move |rank: usize| -> Box<dyn Worker> {
                let log = log.clone();
                Box::new(move |m: &str, d: DataProto, c: &mut RankCtx| {
                    if m == "slow" && rank == 0 {
                        // Rank 1's consumer really waits for this reply.
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    c.charge(1.0);
                    log.lock().unwrap().push((rank, format!("{name}::{m}")));
                    Ok(d)
                })
            }
        };
        let a = ctrl.spawn_group("a", &pool, pure_dp(2), logging("a")).unwrap();
        let b = ctrl.spawn_group("b", &pool, pure_dp(2), logging("b")).unwrap();

        let first = a.call("slow", &batch(4), Protocol::Dp).unwrap();
        let second = b.call_on("reads", &first, Protocol::Dp).unwrap();
        let third = a.call_on("reads", &second, Protocol::Dp).unwrap();
        let fourth = a.call("after", &batch(4), Protocol::Dp).unwrap();
        // Waited out of order: the data flows without the controller.
        fourth.wait().unwrap();
        assert_eq!(third.wait().unwrap().f32("v").unwrap(), batch(4).f32("v").unwrap());
        second.wait().unwrap();
        first.wait().unwrap();

        let log = log.lock().unwrap();
        for rank in 0..2 {
            let order: Vec<&str> =
                log.iter().filter(|(r, _)| *r == rank).map(|(_, m)| m.as_str()).collect();
            assert_eq!(order, ["a::slow", "b::reads", "a::reads", "a::after"], "rank {rank}");
        }
        // Four calls of 1 s time-share each device: no pull (the reply is
        // read where it was made or from the device next to it), no
        // second dispatch.
        assert!(ctrl.clock() >= 4.0 && ctrl.clock() < 4.001, "{}", ctrl.clock());
        ctrl.shutdown().unwrap();
    });
}

/// Keeps every rank's input, by method.
type Seen = Arc<Mutex<Vec<(String, usize, DataProto)>>>;

fn recording(seen: &Seen) -> impl FnMut(usize) -> Box<dyn Worker> {
    let seen = seen.clone();
    move |rank| {
        let seen = seen.clone();
        Box::new(move |m: &str, d: DataProto, _c: &mut RankCtx| {
            seen.lock().unwrap().push((m.to_string(), rank, d.clone()));
            Ok(d)
        })
    }
}

fn inputs_of(seen: &Seen, method: &str) -> Vec<(usize, DataProto)> {
    let mut inputs: Vec<_> = (seen.lock().unwrap().iter())
        .filter(|(m, _, _)| m == method)
        .map(|(_, rank, d)| (*rank, d.clone()))
        .collect();
    inputs.sort_by_key(|(rank, _)| *rank);
    inputs
}

/// A layout of `world` ranks: `shape` picks one of its `p-t-d`
/// factorizations, with a generation grouping so every protocol applies.
fn layout(world: usize, shape: usize) -> WorkerLayout {
    let mut specs = Vec::new();
    for p in [1, 2] {
        for t in [1, 2, 4] {
            if world.is_multiple_of(p * t) {
                specs.push(ParallelSpec::new(p, t, world / (p * t)));
            }
        }
    }
    let spec = specs[shape % specs.len()];
    WorkerLayout::with_gen(GenGrouping::new(spec, 1, 1, GroupingMethod::Strided))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Through `call_on`, every rank reads exactly what `wait` → `call`
    /// would have handed it — columns, provenance, row offsets.
    #[test]
    fn every_rank_reads_what_the_controller_would_have_carried(
        worlds in (0usize..4, 0usize..4), shapes in (0usize..6, 0usize..6),
        protos in (0usize..8, 0usize..8), rows_per_rank in 1usize..3, colocated in any::<bool>(),
    ) {
        let (pw, cw) = ([1, 2, 4, 8][worlds.0], [1, 2, 4, 8][worlds.1]);
        let (pl, cl) = (layout(pw, shapes.0), layout(cw, shapes.1));
        let (pp, cp) = (Protocol::all()[protos.0], Protocol::all()[protos.1]);
        let data = batch(8 * rows_per_rank);
        // A producer `call` turns down at the call site has no future.
        prop_assume!(pp.distribute(&pl, &data).is_ok());

        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(16));
        let seen = Seen::default();
        let first = if colocated && pw == cw { 0 } else { 8 };
        let prod = ctrl
            .spawn_group("prod", &ResourcePool::contiguous(0, pw), pl, recording(&seen))
            .unwrap();
        let cons = ctrl
            .spawn_group("cons", &ResourcePool::contiguous(first, cw), cl, recording(&seen))
            .unwrap();

        let produced = prod.call("produce", &data, pp).unwrap();
        let on_future = cons.call_on("on_future", &produced, cp).unwrap();
        let reply = produced.wait().unwrap();
        match cons.call("carried", &reply, cp) {
            Ok(carried) => {
                prop_assert_eq!(on_future.wait().unwrap(), carried.wait().unwrap());
                let read = inputs_of(&seen, "on_future");
                prop_assert_eq!(read.len(), cw);
                prop_assert_eq!(read, inputs_of(&seen, "carried"));
            }
            // What `call` turns down at the call site surfaces at the
            // consumer's `wait`, and no rank ran the method.
            Err(at_call) => {
                let at_wait = on_future.wait().unwrap_err();
                prop_assert!(matches!(at_call, CoreError::Config(_)), "{:?}", at_call);
                prop_assert!(matches!(at_wait, CoreError::Config(_)), "{:?}", at_wait);
                prop_assert!(inputs_of(&seen, "on_future").is_empty());
            }
        }
    }
}

#[test]
fn a_reply_the_consumer_cannot_distribute_surfaces_at_wait() {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let seen = Seen::default();
    let prod = ctrl
        .spawn_group("prod", &ResourcePool::contiguous(0, 2), pure_dp(2), recording(&seen))
        .unwrap();
    // `DP_PROTO` needs a pure data-parallel group; this one is 1-2-1.
    let tp = WorkerLayout::train_only(ParallelSpec::new(1, 2, 1));
    let cons =
        ctrl.spawn_group("cons", &ResourcePool::contiguous(2, 2), tp, recording(&seen)).unwrap();

    let produced = prod.call("produce", &batch(4), Protocol::Dp).unwrap();
    let consumed = cons.call_on("consume", &produced, Protocol::Dp).unwrap();
    let reply = produced.wait().unwrap();
    let at_call = cons.call("consume", &reply, Protocol::Dp).map(|_| ()).unwrap_err();
    let at_wait = consumed.wait().unwrap_err();
    assert!(matches!(at_call, CoreError::Config(_)), "{at_call:?}");
    assert!(matches!(at_wait, CoreError::Config(_)), "{at_wait:?}");
    assert!(at_wait.to_string().contains("DP_PROTO"), "{at_wait}");
    // From every rank, before the method: nobody ran it, nobody is lost,
    // and the group answers its next call.
    assert!(inputs_of(&seen, "consume").is_empty());
    assert!(ctrl.lost_ranks().is_empty());
    cons.call_sync("next", &batch(2), Protocol::OneToAll).unwrap();
}

#[test]
fn a_producer_rank_that_panics_fails_its_consumers_as_peers() {
    within_30s(|| {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let prod = ctrl
            .spawn_group("prod", &ResourcePool::contiguous(0, 2), pure_dp(2), |rank| {
                Box::new(move |_m: &str, d: DataProto, _c: &mut RankCtx| {
                    if rank == 1 {
                        panic!("rank 1 dies producing");
                    }
                    Ok(d)
                })
            })
            .unwrap();
        // The consumer's method is a collective: a rank that ran it while
        // its peer skipped it would hang here.
        let cons = ctrl
            .spawn_group("cons", &ResourcePool::contiguous(2, 2), pure_dp(2), |_rank| {
                Box::new(|_m: &str, d: DataProto, c: &mut RankCtx| {
                    let mut clock = c.clock;
                    c.comms.world.barrier(&mut clock);
                    c.clock = clock;
                    Ok(d)
                })
            })
            .unwrap();

        let produced = prod.call("produce", &batch(4), Protocol::Dp).unwrap();
        let consumed = cons.call_on("consume", &produced, Protocol::Dp).unwrap();
        let err = consumed.wait().unwrap_err();
        assert!(matches!(err, CoreError::PeerFailed(_)), "{err:?}");
        assert!(err.to_string().contains("input failed"), "{err}");
        assert!(matches!(produced.wait(), Err(CoreError::WorkerPanicked(_))));

        let lost = ctrl.lost_ranks();
        assert_eq!(lost.len(), 1, "the producer's rank alone: {lost:?}");
        assert_eq!((lost[0].group.as_str(), lost[0].rank), ("prod", 1));
        // The consumers are neither lost nor dead.
        cons.call_sync("next", &batch(4), Protocol::Dp).unwrap();
        ctrl.shutdown().unwrap();
    });
}

/// Drops rank 0's first `produce` RPC and keeps every site it was asked
/// about.
#[derive(Default)]
struct DropFirstProduce {
    dropped: AtomicBool,
    sites: Mutex<Vec<(String, usize, u64)>>,
}

impl FaultHook for DropFirstProduce {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        self.sites.lock().unwrap().push((site.method.to_string(), site.rank, site.call_index));
        let mut f = ExecFault::none();
        if site.method == "produce" && site.rank == 0 && !self.dropped.swap(true, Ordering::SeqCst)
        {
            f.drop_rpc = true;
        }
        f
    }
}

#[test]
fn a_transient_producer_failure_stays_transient_and_is_never_counted() {
    let hook = Arc::new(DropFirstProduce::default());
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(4),
        CommCostModel::default(),
        Telemetry::disabled(),
        hook.clone(),
    );
    let prod = ctrl.spawn_group("prod", &ResourcePool::contiguous(0, 2), pure_dp(2), charging(0.0));
    let cons = ctrl.spawn_group("cons", &ResourcePool::contiguous(2, 2), pure_dp(2), charging(0.0));
    let (prod, cons) = (prod.unwrap(), cons.unwrap());
    let issue = |prod: &WorkerGroup, cons: &WorkerGroup| {
        let produced = prod.call("produce", &batch(4), Protocol::Dp).unwrap();
        let consumed = cons.call_on("consume", &produced, Protocol::Dp).unwrap();
        (produced.wait(), consumed.wait())
    };

    let (produced, consumed) = issue(&prod, &cons);
    assert!(matches!(produced, Err(CoreError::Transient(_))), "{produced:?}");
    assert!(matches!(consumed, Err(CoreError::Transient(_))), "{consumed:?}");
    // The retry: both are issued again, and the consumer's call-indexed
    // fault plan sees its *first* call — the failed one was answered
    // before the hook and the counter.
    let (produced, consumed) = issue(&prod, &cons);
    assert_eq!(consumed.unwrap().f32("v").unwrap(), produced.unwrap().f32("v").unwrap());
    let sites = hook.sites.lock().unwrap();
    let consumes: Vec<_> = sites.iter().filter(|(m, _, _)| m == "consume").collect();
    assert_eq!(consumes.len(), 2, "{sites:?}");
    assert!(consumes.iter().all(|(_, _, index)| *index == 1), "{sites:?}");
}

#[test]
fn a_wedged_producer_rank_times_its_consumers_out() {
    within_30s(|| {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let prod = ctrl
            .spawn_group("prod", &ResourcePool::contiguous(0, 2), pure_dp(2), |rank| {
                Box::new(move |_m: &str, d: DataProto, _c: &mut RankCtx| {
                    if rank == 0 {
                        // Wall-clock stall: a wedged worker.
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    Ok(d)
                })
            })
            .unwrap();
        let cons = ctrl
            .spawn_group("cons", &ResourcePool::contiguous(2, 2), pure_dp(2), charging(0.0))
            .unwrap();

        let deadline = Duration::from_millis(20);
        ctrl.set_policy(CallPolicy { deadline: Some(deadline), ..CallPolicy::default() });
        let produced = prod.call("produce", &batch(4), Protocol::Dp).unwrap();
        let consumed = cons.call_on("consume", &produced, Protocol::Dp).unwrap();
        let err = consumed.wait().unwrap_err();
        assert!(matches!(err, CoreError::Timeout(_)), "{err:?}");

        // No consumer device is left blocked on the wedged rank: both
        // answer their next call well before it wakes up.
        ctrl.set_policy(CallPolicy::default());
        let next = cons.call("next", &batch(4), Protocol::Dp).unwrap();
        next.wait_deadline(Duration::from_millis(200)).unwrap();
        assert!(ctrl.lost_ranks().is_empty());
        let _ = produced.wait();
        ctrl.shutdown().unwrap();
    });
}
