//! The hybrid runtime: single controller + per-device worker threads.
//!
//! * **Multi-controller**: every simulated GPU is an OS thread with a
//!   FIFO mailbox (`hf_sync::channel`) and its own virtual clocks; the
//!   mailbox, the reply slots and the communicators all block through
//!   `hf-sync`, and nothing else here waits but `shutdown`'s joins and
//!   `CallInput::cut`'s `OnceLock`. Colocated model workers
//!   registered on the same device execute sequentially in mailbox
//!   order — the time-sharing semantics of §2.3 — while worker groups on
//!   disjoint [`ResourcePool`]s execute in parallel.
//! * **Single controller**: the user's thread holds a [`Controller`] and
//!   [`WorkerGroup`] handles; [`WorkerGroup::call`] distributes the
//!   input batch per the method's transfer protocol, dispatches RPCs to
//!   every rank, and returns a [`DpFuture`] immediately — the
//!   asynchronous dataflow execution of §4.1. `DpFuture::wait` collects
//!   per-rank outputs back through the protocol.
//! * **Data futures as arguments**: [`WorkerGroup::call_on`] issues a call
//!   on the *future* of another call. The RPC leaves at once; each rank,
//!   when it dequeues the message, waits for the producing call and takes
//!   `distribute(own protocol, collect(producer's protocol, replies))[rank]`
//!   — the producer's reply goes rank to rank and never passes through
//!   the controller on its way to a consumer. Every call's ranks read one
//!   shared `CallInput`, cut at issue for `call` and by the first rank to
//!   dequeue for `call_on`; the controller's `wait` and a consumer rank run
//!   the same `CallState::collect`. The reply is collected once per future
//!   on a device thread and cut once per consumer call (two `OnceLock`s);
//!   the controller collects its own copy at its own `wait`, on its own
//!   thread, because the physical-copy count is thread-local.
//!
//! Timing: a device thread keeps one virtual clock per [`Lane`] — the
//! GPU's, and its node's host CPUs' — and a call reads and advances the
//! clock of the lane its worker registered with; "device clock" below is
//! that clock. Dispatch charges an RPC latency; a rank whose input was
//! collected on another device ([`DataProto::src_device`]) is charged the
//! GPU-to-GPU pull of its chunk, modeling the direct inter-model transfer
//! of Figure 5(b) (step ⑥) rather than a central bottleneck. A call
//! issued on a future starts at `max(device clock, RPC arrival,
//! producer's latest finish)` and then pays that same pull, so the
//! controller's dispatch latency overlaps the producer's execution.
//! Controller virtual time advances to the slowest collected rank on
//! `wait`; issuing never advances it.
//!
//! A call waits only on calls issued before it, one controller issues
//! every call in one global order, and every mailbox is FIFO — so the
//! earliest unfinished call always has every rank at the head of its
//! mailbox with its input complete, and waiting on a future inside a
//! device thread cannot deadlock.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hf_simcluster::{
    panic_message, ClusterSpec, CollectiveAbort, CommCostModel, CommGroup, Communicator, DeviceId,
    ResourcePool, VirtualClock,
};
use hf_sync::channel::{unbounded, Receiver, Sender};
use hf_sync::{Condvar, Mutex};
use hf_telemetry::{cpu_track, gpu_track, SpanKind, Telemetry, CONTROLLER_TRACK};

use crate::data::DataProto;
use crate::error::{CoreError, Result};
use crate::fault::{ExecSite, FaultHook};
use crate::protocol::{Protocol, WorkerLayout};
use crate::worker::{CommSet, Lane, RankCtx, Worker};

/// (result, device virtual finish time, exec span id for the causal
/// graph — 0 when the call never reached an execute span).
type ExecReply = (Result<DataProto>, f64, u64);

/// One rank's reply to one call. A slot that keeps its value, not a
/// channel: the controller's `wait` reads it, and so does every rank of a
/// call issued on the future.
enum Slot {
    Pending,
    Done(ExecReply),
    /// Nothing to read: the message was dropped unanswered (runtime shut
    /// down mid-call), or the reply's only reader has moved it out.
    Closed,
}

struct ReplySlot {
    state: Mutex<Slot>,
    filled: Condvar,
}

/// What one call's rank messages, the controller's [`DpFuture`] and every
/// call issued on that future share.
struct CallState {
    group: Arc<str>,
    method: Arc<str>,
    layout: WorkerLayout,
    protocol: Protocol,
    /// Stamped on the collected reply as its `src_device`.
    first_collected_device: DeviceId,
    slots: Vec<ReplySlot>,
    /// Whether a call was issued on this future: its replies then have
    /// more than one reader and stay in their slots; otherwise the
    /// controller's `wait` moves them out.
    shared: AtomicBool,
    /// The collected reply and the instant it existed, as the calls
    /// issued on this future read it: built once, on the device thread of
    /// the first consumer rank to dequeue (errors already in the form a
    /// consumer reports, see [`input_failed`]).
    for_consumers: OnceLock<Result<(DataProto, f64)>>,
}

/// Every rank's reply to one call, collected through its protocol.
struct Collected {
    /// The assembled batch, or the root-cause failure among the ranks.
    out: Result<DataProto>,
    /// Virtual time the slowest rank finished.
    finish: f64,
    /// Exec span ids in rank order (the dispatch span's causal
    /// predecessors).
    exec_ids: Vec<u64>,
    /// Payload bytes `collect` physically copied on the calling thread.
    copy_bytes: u64,
}

impl CallState {
    /// Blocks until `rank` replied (at most `deadline`, when one is set).
    fn reply(&self, rank: usize, deadline: Option<Duration>) -> Result<ExecReply> {
        let slot = &self.slots[rank];
        let until = deadline.map(|d| Instant::now() + d);
        let mut state = slot.state.lock();
        let timed_out = slot.filled.wait_while(&mut state, until, |s| matches!(s, Slot::Pending));
        if let (true, Some(d)) = (timed_out, deadline) {
            return Err(CoreError::Timeout(format!(
                "{}::{} rank {rank} did not reply within {d:?}",
                self.group, self.method
            )));
        }
        match &*state {
            Slot::Done(reply) if self.shared.load(Ordering::Relaxed) => Ok(reply.clone()),
            Slot::Done(_) => match std::mem::replace(&mut *state, Slot::Closed) {
                Slot::Done(reply) => Ok(reply),
                _ => unreachable!("matched above"),
            },
            Slot::Closed => Err(CoreError::Disconnected(format!(
                "{}::{} rank {rank} reply channel closed",
                self.group, self.method
            ))),
            Slot::Pending => unreachable!("waited while pending"),
        }
    }

    /// Re-wraps a rank's error with call context, preserving the variant
    /// so callers can still classify it (transient? peer failure?).
    fn contextualize(&self, rank: usize, e: CoreError) -> CoreError {
        let m = format!("{}::{} rank {rank}: {e}", self.group, self.method);
        match e {
            CoreError::Transient(_) => CoreError::Transient(m),
            CoreError::PeerFailed(_) => CoreError::PeerFailed(m),
            CoreError::WorkerPanicked(_) => CoreError::WorkerPanicked(m),
            CoreError::Timeout(_) => CoreError::Timeout(m),
            CoreError::Config(_) => CoreError::Config(m),
            _ => CoreError::Worker(m),
        }
    }

    /// Waits every rank (each for at most `deadline`) and assembles the
    /// replies through the call's protocol, stamped with the device they
    /// were collected from — what [`DpFuture::wait`] returns to the
    /// controller and what a call issued on the future reads on its
    /// devices. `Err` only when a rank never replied (deadline elapsed,
    /// runtime gone).
    fn collect(&self, deadline: Option<Duration>) -> Result<Collected> {
        let mut outputs = Vec::with_capacity(self.slots.len());
        let mut finish = 0.0f64;
        let mut exec_ids = Vec::with_capacity(self.slots.len());
        // Root-cause selection: prefer the originating failure (panic,
        // injected kill, transient drop) over the PeerFailed aborts it
        // cascaded to the surviving ranks.
        let mut first_err: Option<CoreError> = None;
        for rank in 0..self.slots.len() {
            let (res, t, exec_id) = self.reply(rank, deadline)?;
            finish = finish.max(t);
            exec_ids.push(exec_id);
            match res {
                Ok(d) => outputs.push(d),
                Err(e) => {
                    let e = self.contextualize(rank, e);
                    let replace = match (&first_err, &e) {
                        (None, _) => true,
                        (Some(CoreError::PeerFailed(_)), CoreError::PeerFailed(_)) => false,
                        (Some(CoreError::PeerFailed(_)), _) => true,
                        _ => false,
                    };
                    if replace {
                        first_err = Some(e);
                    }
                    outputs.push(DataProto::empty());
                }
            }
        }
        let copied_before = crate::data::physical_copy_bytes();
        let out = match first_err {
            Some(e) => Err(e),
            None => self.protocol.collect(&self.layout, outputs).map(|mut out| {
                out.set_src_device(Some(self.first_collected_device.index()));
                out
            }),
        };
        let copy_bytes = crate::data::physical_copy_bytes() - copied_before;
        Ok(Collected { out, finish, exec_ids, copy_bytes })
    }
}

/// The device side of one rank's reply slot. Dropped without a reply —
/// the message never reached a live device thread — it closes the slot,
/// so no waiter is left blocked.
struct ReplyTx {
    call: Arc<CallState>,
    rank: usize,
}

impl ReplyTx {
    fn fill(&self, with: Slot) {
        let slot = &self.call.slots[self.rank];
        let mut state = slot.state.lock();
        if matches!(*state, Slot::Pending) {
            *state = with;
            drop(state);
            slot.filled.notify_all();
        }
    }

    fn send(self, reply: ExecReply) {
        self.fill(Slot::Done(reply));
    }
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        self.fill(Slot::Closed);
    }
}

/// How a consumer reports the failure of the call whose reply it was
/// issued on: a transient fault stays transient (the driver's retry
/// re-issues producer and consumers alike), an elapsed deadline stays a
/// deadline (a device waits each producer rank at most the policy's
/// deadline, as `wait` does, so a wedged producer leaves no device thread
/// blocked), anything else is a peer's failure — never this rank's loss:
/// no `LostRank`, no dead rank, and the group answers its next call.
fn input_failed(e: CoreError) -> CoreError {
    let m = format!("input failed: {e}");
    match e {
        CoreError::Transient(_) => CoreError::Transient(m),
        CoreError::Timeout(_) => CoreError::Timeout(m),
        _ => CoreError::PeerFailed(m),
    }
}

/// What every rank of one call reads as its input: one cut of the call's
/// batch by its protocol, shared by the call's ranks, so they read one
/// outcome — either all of them run the method or none enters a
/// collective. A producer's reply the consumer's protocol cannot
/// distribute (what [`WorkerGroup::call`] turns down at the call site)
/// is that outcome too: the same `Config` error at the consumer's `wait`,
/// from every rank. Cutting per rank instead cost `ppo_wide_small` 30 %
/// of its host time (measured in PR 20).
struct CallInput {
    /// The call this one was issued on ([`WorkerGroup::call_on`]) and the
    /// per-producer-rank reply deadline (the policy's, at issue time).
    producer: Option<(Arc<CallState>, Option<Duration>)>,
    /// This call's own layout and protocol.
    layout: WorkerLayout,
    protocol: Protocol,
    /// Set at issue for a batch the controller holds; for a producer's
    /// reply, once per call, by whichever of its ranks dequeues first.
    cut: OnceLock<Result<Cut>>,
}

impl CallInput {
    fn cut(&self, telemetry: &Telemetry) -> &Result<Cut> {
        self.cut.get_or_init(|| {
            let (producer, deadline) =
                self.producer.as_ref().expect("a controller batch is cut at issue");
            let collected = producer.for_consumers.get_or_init(|| {
                let c = producer.collect(*deadline).map_err(input_failed)?;
                Ok((c.out.map_err(input_failed)?, c.finish))
            });
            let (batch, ready) = collected.as_ref().map_err(Clone::clone)?;
            Cut::new(telemetry, self.protocol, &self.layout, batch, *ready)
        })
    }
}

/// A batch cut into one input per rank.
struct Cut {
    /// Each rank's input, taken once by that rank.
    inputs: Mutex<Vec<Option<DataProto>>>,
    /// Virtual time the batch existed: when the producer's slowest rank
    /// finished, 0 for a batch the controller held.
    ready: f64,
    /// Payload bytes over all ranks (the dispatch span's argument).
    bytes: usize,
    /// The device the batch was collected from: its ranks pull from it.
    src: Option<DeviceId>,
}

impl Cut {
    /// `protocol.distribute` plus the dispatch byte counters, on whichever
    /// thread cuts the batch: the controller's for [`WorkerGroup::call`], a
    /// device's for [`WorkerGroup::call_on`].
    fn new(
        telemetry: &Telemetry,
        protocol: Protocol,
        layout: &WorkerLayout,
        data: &DataProto,
        ready: f64,
    ) -> Result<Cut> {
        let copied_before = crate::data::physical_copy_bytes();
        let inputs = protocol.distribute(layout, data)?;
        let copy_bytes = crate::data::physical_copy_bytes() - copied_before;
        let bytes: usize = inputs.iter().map(|d| d.bytes()).sum();
        if telemetry.is_enabled() {
            telemetry.add_counter(&format!("protocol.{protocol:?}.dispatch_bytes"), bytes as u64);
            telemetry
                .add_counter(&format!("protocol.{protocol:?}.dispatch_copy_bytes"), copy_bytes);
        }
        Ok(Cut {
            inputs: Mutex::new(inputs.into_iter().map(Some).collect()),
            ready,
            bytes,
            src: data.src_device().map(DeviceId),
        })
    }

    fn take(&self, rank: usize) -> DataProto {
        self.inputs.lock()[rank].take().expect("a rank takes its input once")
    }
}

enum DeviceMsg {
    Register {
        key: u64,
        worker: Box<dyn Worker>,
        ctx: Box<RankCtx>,
    },
    /// Removes every trace of a worker-group key from the device:
    /// its registered worker, its dead-rank marker, its call counts.
    /// Fire-and-forget — the FIFO mailbox guarantees any `Execute`
    /// already queued for the key is processed first, and no new ones
    /// can be issued once the controller has dropped the group handle.
    Unregister {
        key: u64,
    },
    Execute {
        key: u64,
        input: Arc<CallInput>,
        dispatch_time: f64,
        /// Causal-graph id of the controller's dispatch span; device-side
        /// spans for this call list it as their cause.
        call_id: u64,
        reply: ReplyTx,
    },
    Shutdown,
}

/// Failure-handling knobs for the controller's dispatch path. The
/// default reproduces the pre-resilience behavior exactly: no deadline,
/// no retries.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallPolicy {
    /// Wall-clock budget for each rank's reply in [`DpFuture::wait`];
    /// `None` waits forever. An elapsed deadline surfaces as
    /// [`CoreError::Timeout`] — the escape hatch that bounds *any*
    /// failure mode, including ones the collective-abort path misses.
    pub deadline: Option<Duration>,
    /// How many times a retrying wait ([`WorkerGroup::wait_retrying`],
    /// and so `call_sync` / `invoke_sync`) re-dispatches a call that
    /// failed with a transient fault (a dropped RPC).
    pub max_retries: u32,
}

/// A rank the runtime knows to be permanently gone: killed by fault
/// injection or lost to a worker panic. Cascaded collective aborts on
/// surviving peers are *not* losses — only the originating rank is
/// recorded. The elastic re-mapping loop reads this registry to decide
/// which devices the next placement may still use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostRank {
    /// The device the rank ran on — excluded from future placements.
    pub device: DeviceId,
    /// Worker-group name the rank belonged to.
    pub group: String,
    /// The rank within its group.
    pub rank: usize,
    /// Why it died (injected-kill reason or panic message).
    pub(crate) reason: String,
}

struct ControllerState {
    devices: HashMap<DeviceId, Sender<DeviceMsg>>,
    handles: Vec<JoinHandle<()>>,
    pools: Vec<(String, ResourcePool)>,
    next_key: u64,
    clock: f64,
    timeline: Vec<TimelineEntry>,
    /// Entries [`Controller::clear_timeline`] removed: the absolute
    /// position of `timeline[0]`.
    cleared: usize,
    policy: CallPolicy,
}

/// One awaited worker-group call on the controller's timeline: virtual
/// dispatch and completion times plus identity — enough to render the
/// per-stage execution patterns of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Worker-group name.
    pub group: String,
    /// Method dispatched.
    pub method: String,
    /// Virtual time the call's RPC reached its ranks.
    pub dispatched: f64,
    /// Virtual time the call could start: `dispatched`, or the instant
    /// the future it was issued on resolved, whichever is later. Until
    /// then the call occupies a mailbox slot, not a device.
    pub started: f64,
    /// Virtual time the slowest rank completed.
    pub completed: f64,
}

struct ControllerInner {
    cluster: Arc<ClusterSpec>,
    cost: CommCostModel,
    telemetry: Telemetry,
    fault: Option<Arc<dyn FaultHook>>,
    /// Ranks permanently lost (kills, panics); shared with every device
    /// thread, which append as losses happen.
    lost: Arc<Mutex<Vec<LostRank>>>,
    state: Mutex<ControllerState>,
}

/// The single controller: owns the device threads and spawns worker
/// groups.
pub struct Controller {
    inner: Arc<ControllerInner>,
}

/// A rank registered on a device thread, with the lane whose clock its
/// calls run on.
type Registered = (Box<dyn Worker>, Box<RankCtx>, Lane);

/// One simulated GPU: what its thread keeps from one message to the next.
struct Device {
    id: DeviceId,
    inner: Arc<ControllerInner>,
    /// One clock and one track per lane, indexed by `Lane as usize`: the
    /// GPU's, and the host CPUs' beside it.
    clocks: [VirtualClock; 2],
    tracks: [String; 2],
    workers: HashMap<u64, Registered>,
    /// Per-(group key, method) dispatch counts, for call-indexed faults.
    call_counts: HashMap<(u64, Arc<str>), u64>,
    /// Ranks whose communicators can no longer be used — killed by fault
    /// injection, or aborted out of a collective by a peer's death: every
    /// later RPC fails fast.
    dead: HashMap<u64, String>,
}

/// Counts one injected fault of `kind`.
fn fault_injected(telemetry: &Telemetry, kind: &str) {
    telemetry.add_counter("resilience.faults_injected", 1);
    telemetry.add_counter(kind, 1);
}

impl Device {
    fn new(id: DeviceId, inner: Arc<ControllerInner>) -> Self {
        Device {
            id,
            inner,
            clocks: [VirtualClock::new(); 2],
            tracks: [gpu_track(id.index()), cpu_track(id.index())],
            workers: HashMap::new(),
            call_counts: HashMap::new(),
            dead: HashMap::new(),
        }
    }

    fn run(mut self, rx: Receiver<DeviceMsg>) {
        for msg in rx.iter() {
            match msg {
                DeviceMsg::Register { key, worker, ctx } => {
                    let lane = worker.lane();
                    self.workers.insert(key, (worker, ctx, lane));
                }
                DeviceMsg::Unregister { key } => {
                    self.workers.remove(&key);
                    self.dead.remove(&key);
                    self.call_counts.retain(|(k, _), _| *k != key);
                }
                DeviceMsg::Execute { key, input, dispatch_time, call_id, reply } => {
                    let out = self.execute(key, &input, dispatch_time, call_id, &reply.call);
                    reply.send(out);
                }
                DeviceMsg::Shutdown => break,
            }
        }
    }

    /// Runs this device's rank of `call` on `input` and returns its reply.
    fn execute(
        &mut self,
        key: u64,
        input: &CallInput,
        mut dispatch_time: f64,
        call_id: u64,
        call: &CallState,
    ) -> ExecReply {
        let Device { id: device, inner, clocks, tracks, workers, call_counts, dead } = self;
        let ControllerInner { cluster, cost, telemetry, fault, lost, .. } = &**inner;
        let (device, group, method) = (*device, &call.group, &call.method);
        let lose = |rank, reason| {
            lost.lock().push(LostRank { device, group: group.to_string(), rank, reason });
        };
        let Some((worker, ctx, lane)) = workers.get_mut(&key) else {
            let err =
                CoreError::Config(format!("no worker {key} registered on device {}", device.0));
            return (Err(err), clocks[Lane::Device as usize].now(), 0);
        };
        let (clock, track) = (&mut clocks[*lane as usize], &tracks[*lane as usize]);
        if let Some(reason) = dead.get(&key) {
            let err = CoreError::PeerFailed(format!("{method}: rank is dead: {reason}"));
            return (Err(err), clock.now(), 0);
        }
        // The call's one cut, made at issue or by its first rank here. A
        // failed input is answered before the fault hook and the call
        // counter see the call — as if it had never been issued — and by
        // every rank alike, so none enters a collective its peers skip.
        let cut = match input.cut(telemetry) {
            Ok(cut) => cut,
            Err(e) => return (Err(e.clone()), clock.now(), 0),
        };
        // The device idles (or works its mailbox down) until the batch it
        // reads exists.
        clock.sync_to(cut.ready);
        let data = cut.take(ctx.rank);
        // A rank on the device the batch was collected from reads it
        // locally.
        let src_device = cut.src.filter(|s| *s != device);
        // Consult the fault hook before delivery.
        if let Some(hook) = fault {
            let idx = call_counts.entry((key, method.clone())).or_insert(0);
            *idx += 1;
            let site = ExecSite {
                device: device.index(),
                group,
                rank: ctx.rank,
                method,
                call_index: *idx,
                now: clock.now().max(dispatch_time),
            };
            let f = hook.on_execute(&site);
            if let Some(reason) = f.kill {
                fault_injected(telemetry, "resilience.ranks_killed");
                // Poison every group the rank belongs to: peers blocked in
                // a rendezvous with it abort instead of waiting forever
                // (simulated ncclCommAbort).
                ctx.comms.poison_all(&reason);
                dead.insert(key, reason.clone());
                lose(ctx.rank, reason.clone());
                let err = CoreError::WorkerPanicked(format!("{method}: {reason}"));
                return (Err(err), clock.now(), 0);
            }
            if f.drop_rpc {
                fault_injected(telemetry, "resilience.rpc_dropped");
                let err = CoreError::Transient(format!("{method}: rpc dropped"));
                return (Err(err), clock.now(), 0);
            }
            if f.delay_s > 0.0 {
                fault_injected(telemetry, "resilience.rpc_delayed");
                dispatch_time += f.delay_s;
            }
        }
        // Span names and args are built only for a recording handle:
        // disabled telemetry costs this branch, not a string per call.
        let label = || format!("{group}::{method}");
        let span_label = if telemetry.is_enabled() { label() } else { String::new() };
        // Mailbox dequeue: time past the dispatch instant that the device
        // was busy (colocated time-sharing) or waited for the future the
        // call was issued on is queue wait.
        if clock.now() > dispatch_time {
            telemetry.span_causal(
                track,
                &span_label,
                SpanKind::QueueWait,
                dispatch_time,
                clock.now(),
                0,
                &[call_id],
                &[],
            );
        }
        clock.sync_to(dispatch_time);
        // Pull the input chunk directly from the producing GPU.
        if let Some(src) = src_device {
            let pull_start = clock.now();
            let bytes = data.bytes();
            clock.advance(cost.p2p_time(cluster, src, device, bytes as f64));
            if telemetry.is_enabled() {
                telemetry.span_causal(
                    track,
                    &span_label,
                    SpanKind::Comm,
                    pull_start,
                    clock.now(),
                    0,
                    &[call_id],
                    &[("bytes", bytes.to_string()), ("src_device", src.index().to_string())],
                );
            }
            telemetry.add_counter("p2p.pull_bytes", bytes as u64);
        }
        let exec_start = clock.now();
        let exec_id = telemetry.next_span_id();
        ctx.clock = *clock;
        ctx.cause = call_id;
        ctx.dispatch_time = dispatch_time;
        // CoW auditor (audit builds): hold a view-sharing clone of the
        // input across the call; the fingerprint must be unchanged
        // afterwards, or the worker wrote through a shared buffer instead
        // of copy-on-write.
        #[cfg(feature = "audit")]
        let (audit_input, audit_fp) = {
            let input = data.clone();
            if let Err(e) = input.audit_verify() {
                let err = CoreError::Invariant(format!("{}: malformed input: {e}", label()));
                telemetry.span_causal(
                    track,
                    &span_label,
                    SpanKind::Exec,
                    exec_start,
                    clock.now(),
                    exec_id,
                    &[call_id],
                    &[],
                );
                return (Err(err), clock.now(), exec_id);
            }
            let fp = input.audit_fingerprint();
            (input, fp)
        };
        let result = catch_unwind(AssertUnwindSafe(|| worker.execute(method, data, ctx)));
        let out = match result {
            Ok(r) => {
                *clock = ctx.clock;
                r
            }
            Err(panic) => {
                // The clock may be stale after a panic; keep the pre-call
                // time. Either way the rank left a collective contract
                // broken, so poison its groups: blocked peers unwind with
                // a collective abort (and cascade it) instead of hanging.
                let err = if let Some(abort) = panic.downcast_ref::<CollectiveAbort>() {
                    telemetry.add_counter("resilience.peer_failures", 1);
                    // An aborted communicator must be replaced, not
                    // reused: a call already queued behind this one would
                    // re-enter a collective on it, and the lifecycle
                    // auditor's panic there reads as an originating loss.
                    // Fail those calls fast.
                    dead.insert(key, abort.reason.clone());
                    CoreError::PeerFailed(format!("{method}: {}", abort.reason))
                } else {
                    let msg = panic_message(&*panic);
                    // An originating panic (not a cascaded abort) is a
                    // genuine rank loss.
                    lose(ctx.rank, msg.clone());
                    CoreError::WorkerPanicked(format!("{method}: {msg}"))
                };
                ctx.comms.poison_all(&format!(
                    "rank {} on device {} failed in {}",
                    ctx.rank,
                    device.index(),
                    label()
                ));
                Err(err)
            }
        };
        #[cfg(feature = "audit")]
        let out = match out {
            Ok(reply_batch) => {
                if audit_input.audit_fingerprint() != audit_fp {
                    Err(CoreError::Invariant(format!(
                        "{}: worker mutated a shared input buffer in place \
                         (CoW no-aliasing-after-write violation)",
                        label()
                    )))
                } else if let Err(e) = reply_batch.audit_verify() {
                    Err(CoreError::Invariant(format!("{}: malformed reply: {e}", label())))
                } else {
                    Ok(reply_batch)
                }
            }
            e => e,
        };
        telemetry.span_causal(
            track,
            &span_label,
            SpanKind::Exec,
            exec_start,
            clock.now(),
            exec_id,
            &[call_id],
            &[],
        );
        (out, clock.now(), exec_id)
    }
}

impl Controller {
    /// Creates a controller over `cluster` with the default cost model.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self::with_telemetry(cluster, CommCostModel::default(), Telemetry::disabled())
    }

    /// Creates a controller that records spans and metrics into
    /// `telemetry`. The handle is cloned into every device thread and
    /// rank context, so one trace covers the whole runtime. Recording
    /// never advances any virtual clock: enabling telemetry cannot
    /// change simulated timing.
    pub fn with_telemetry(cluster: ClusterSpec, cost: CommCostModel, telemetry: Telemetry) -> Self {
        Self::build(cluster, cost, telemetry, None)
    }

    /// Creates a controller whose device threads consult `fault` before
    /// every RPC delivery and inter-model pull — the injection point for
    /// deterministic failure scenarios (see `hf-resilience`).
    pub fn with_faults(
        cluster: ClusterSpec,
        cost: CommCostModel,
        telemetry: Telemetry,
        fault: Arc<dyn FaultHook>,
    ) -> Self {
        Self::build(cluster, cost, telemetry, Some(fault))
    }

    fn build(
        cluster: ClusterSpec,
        cost: CommCostModel,
        telemetry: Telemetry,
        fault: Option<Arc<dyn FaultHook>>,
    ) -> Self {
        let cluster = Arc::new(cluster);
        Controller {
            inner: Arc::new(ControllerInner {
                cluster,
                cost,
                telemetry,
                fault,
                lost: Arc::new(Mutex::new(Vec::new())),
                state: Mutex::new(ControllerState {
                    devices: HashMap::new(),
                    handles: Vec::new(),
                    pools: Vec::new(),
                    next_key: 0,
                    clock: 0.0,
                    timeline: Vec::new(),
                    cleared: 0,
                    policy: CallPolicy::default(),
                }),
            }),
        }
    }

    /// Replaces the failure-handling policy (deadlines and retries) for
    /// every subsequent call on every worker group.
    pub fn set_policy(&self, policy: CallPolicy) {
        self.inner.state.lock().policy = policy;
    }

    /// The cluster this controller manages.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.inner.cluster
    }

    /// The telemetry handle this controller records into (disabled
    /// unless constructed via [`Controller::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Controller virtual time (seconds): the completion time of the
    /// latest awaited call.
    pub fn clock(&self) -> f64 {
        self.inner.state.lock().clock
    }

    /// Snapshot of every awaited call since the last
    /// [`Self::clear_timeline`]: who ran what, when, for how long
    /// (virtual time). Rendered by the `stage_timeline` example into
    /// Table 1-style execution patterns.
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        self.timeline_from(0).0
    }

    /// The awaited calls from absolute position `from` on, and the
    /// position after the last of them. Positions count every call since
    /// the controller was built, so a reader that keeps the returned
    /// position copies only what was recorded since — however long the
    /// run — and a clear does not shift them: the entries it removed are
    /// not returned, and a position past the end yields none.
    pub fn timeline_from(&self, from: usize) -> (Vec<TimelineEntry>, usize) {
        let state = self.inner.state.lock();
        let skip = from.saturating_sub(state.cleared).min(state.timeline.len());
        (state.timeline[skip..].to_vec(), state.cleared + state.timeline.len())
    }

    /// Clears the recorded timeline; positions stay absolute
    /// ([`Self::timeline_from`]).
    pub fn clear_timeline(&self) {
        let mut state = self.inner.state.lock();
        state.cleared += state.timeline.len();
        state.timeline.clear();
    }

    /// Spawns a worker group onto `pool`: one worker per rank, rank `i`
    /// on `pool.devices()[i]`. Models sharing a pool are colocated
    /// (time-shared); pools must otherwise be disjoint.
    ///
    /// `factory(rank)` builds each rank's worker.
    pub fn spawn_group(
        &self,
        name: &str,
        pool: &ResourcePool,
        layout: WorkerLayout,
        mut factory: impl FnMut(usize) -> Box<dyn Worker>,
    ) -> Result<WorkerGroup> {
        if pool.len() != layout.world() {
            return Err(CoreError::Config(format!(
                "pool has {} devices but layout world is {}",
                pool.len(),
                layout.world()
            )));
        }
        for d in pool.devices() {
            if d.index() >= self.inner.cluster.total_gpus() {
                return Err(CoreError::Config(format!(
                    "device {} outside cluster of {} GPUs",
                    d.index(),
                    self.inner.cluster.total_gpus()
                )));
            }
        }
        {
            let state = self.inner.state.lock();
            for (other_name, other) in &state.pools {
                if !pool.same_devices(other) && !pool.disjoint(other) {
                    return Err(CoreError::Config(format!(
                        "pool of '{name}' partially overlaps pool of '{other_name}'; \
                         pools must be identical (colocated) or disjoint"
                    )));
                }
            }
        }

        // Build rendezvous groups for every parallel-group family.
        let spec = layout.spec;
        let dev_of = |rank: usize| pool.device(rank);
        let make_groups = |families: Vec<Vec<usize>>| -> Vec<(Vec<usize>, CommGroup)> {
            families
                .into_iter()
                .map(|ranks| {
                    let devices = ranks.iter().map(|&r| dev_of(r)).collect();
                    (ranks, CommGroup::new(devices))
                })
                .collect()
        };
        let world_groups = make_groups(vec![(0..layout.world()).collect()]);
        let tp_groups = make_groups(spec.tp_groups());
        let pp_groups = make_groups(spec.pp_groups());
        let dp_groups = make_groups(spec.dp_groups());
        let mp_groups = make_groups(spec.mp_groups());
        let gather_groups = layout.gen.map(|g| make_groups(g.gather_groups()));

        // Partition auditor (audit builds): every parallel-group family
        // must tile the world — each rank in exactly one group. A rank in
        // zero groups would have no communicator; a rank in two would
        // join two rendezvous rounds and corrupt both.
        #[cfg(feature = "audit")]
        {
            type Family<'a> = (&'a str, &'a [(Vec<usize>, CommGroup)]);
            let mut fams: Vec<Family> = vec![
                ("tp", &tp_groups),
                ("pp", &pp_groups),
                ("dp", &dp_groups),
                ("mp", &mp_groups),
            ];
            if let Some(g) = gather_groups.as_ref() {
                fams.push(("gather", g));
            }
            for (family, groups) in fams {
                let mut seen = vec![0usize; layout.world()];
                for (ranks, _) in groups {
                    for &r in ranks {
                        if r >= layout.world() {
                            return Err(CoreError::Invariant(format!(
                                "'{name}' {family} group lists rank {r} outside world {}",
                                layout.world()
                            )));
                        }
                        seen[r] += 1;
                    }
                }
                if let Some(r) = seen.iter().position(|&c| c != 1) {
                    return Err(CoreError::Invariant(format!(
                        "'{name}' {family} groups do not partition the world: \
                         rank {r} appears in {} groups",
                        seen[r]
                    )));
                }
            }
        }

        let find = |groups: &[(Vec<usize>, CommGroup)],
                    rank: usize,
                    family: &str|
         -> Result<Communicator> {
            let (pos, group) = (groups.iter())
                .find_map(|(ranks, group)| Some((ranks.iter().position(|&r| r == rank)?, group)))
                .ok_or_else(|| {
                    CoreError::Invariant(format!(
                        "rank {rank} of '{name}' belongs to no {family} group \
                         (families do not partition the world)"
                    ))
                })?;
            Ok(Communicator::new(
                group.clone(),
                pos,
                self.inner.cluster.clone(),
                self.inner.cost.clone(),
            ))
        };

        let key;
        {
            let mut state = self.inner.state.lock();
            key = state.next_key;
            state.next_key += 1;
            state.pools.push((name.to_string(), pool.clone()));
            // Ensure device threads exist.
            for &d in pool.devices() {
                if let std::collections::hash_map::Entry::Vacant(e) = state.devices.entry(d) {
                    let (tx, rx) = unbounded();
                    let device = Device::new(d, self.inner.clone());
                    let handle = std::thread::Builder::new()
                        .name(format!("gpu-{}", d.index()))
                        .spawn(move || device.run(rx))
                        .expect("spawn device thread");
                    e.insert(tx);
                    state.handles.push(handle);
                }
            }
            for rank in 0..layout.world() {
                let device = dev_of(rank);
                let comms = CommSet {
                    world: find(&world_groups, rank, "world")?,
                    tp: find(&tp_groups, rank, "tp")?,
                    pp: find(&pp_groups, rank, "pp")?,
                    dp: find(&dp_groups, rank, "dp")?,
                    mp: find(&mp_groups, rank, "mp")?,
                    gather: gather_groups.as_ref().map(|g| find(g, rank, "gather")).transpose()?,
                };
                let ctx = Box::new(RankCtx {
                    rank,
                    layout,
                    device,
                    comms,
                    clock: VirtualClock::new(),
                    telemetry: self.inner.telemetry.clone(),
                    cause: 0,
                    dispatch_time: 0.0,
                });
                let worker = factory(rank);
                state
                    .devices
                    .get(&device)
                    .expect("device thread exists")
                    .send(DeviceMsg::Register { key, worker, ctx })
                    .map_err(|_| CoreError::Disconnected("device thread died".into()))?;
            }
        }

        Ok(WorkerGroup {
            name: name.into(),
            pool: pool.clone(),
            layout,
            key,
            inner: self.inner.clone(),
            registry: Mutex::new(HashMap::new()),
        })
    }

    /// Every rank this controller knows to be permanently gone (injected
    /// kills and originating worker panics; cascaded collective aborts
    /// on surviving peers are not losses).
    pub fn lost_ranks(&self) -> Vec<LostRank> {
        self.inner.lost.lock().clone()
    }

    /// The devices hosting lost ranks, deduplicated and sorted — the set
    /// a re-mapped placement must avoid.
    pub fn lost_devices(&self) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self.inner.lost.lock().iter().map(|l| l.device).collect();
        out.sort_by_key(|d| d.index());
        out.dedup();
        out
    }

    /// Tears a worker group down *live*: unregisters its workers from
    /// their device threads and releases its pool reservation, so a new
    /// group — possibly on an overlapping-but-different pool, as elastic
    /// re-mapping requires — can be spawned on the same controller
    /// without restarting it. Consumes the handle: no call on the group
    /// can race the teardown, and the FIFO mailboxes order `Unregister`
    /// after every already-queued `Execute`.
    pub fn despawn_group(&self, group: WorkerGroup) {
        let mut state = self.inner.state.lock();
        if let Some(i) =
            state.pools.iter().position(|(n, p)| n == group.name() && p.same_devices(group.pool()))
        {
            state.pools.remove(i);
        }
        for &d in group.pool().devices() {
            if let Some(tx) = state.devices.get(&d) {
                let _ = tx.send(DeviceMsg::Unregister { key: group.key });
            }
        }
    }

    /// Stops all device threads and joins them, surfacing any device
    /// thread that died of an uncaught panic (worker panics are caught
    /// per-call, so a dead device thread is a runtime bug, not an
    /// application error). Called automatically on drop; explicit calls
    /// make shutdown errors visible.
    pub fn shutdown(&self) -> Result<()> {
        let (senders, handles) = {
            let mut state = self.inner.state.lock();
            let senders: Vec<Sender<DeviceMsg>> = state.devices.drain().map(|(_, tx)| tx).collect();
            let handles = std::mem::take(&mut state.handles);
            (senders, handles)
        };
        for tx in senders {
            let _ = tx.send(DeviceMsg::Shutdown);
        }
        let mut failures = Vec::new();
        for h in handles {
            let name = h.thread().name().unwrap_or("device").to_string();
            if let Err(panic) = h.join() {
                failures.push(format!("{name}: {}", panic_message(&*panic)));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(CoreError::WorkerPanicked(format!(
                "device thread(s) died during shutdown: {}",
                failures.join("; ")
            )))
        }
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Controller-side handle to a spawned worker group (a "model class"
/// instance in the paper's terms).
pub struct WorkerGroup {
    name: Arc<str>,
    pool: ResourcePool,
    layout: WorkerLayout,
    key: u64,
    inner: Arc<ControllerInner>,
    registry: Mutex<HashMap<String, Protocol>>,
}

impl WorkerGroup {
    /// Group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The resource pool the group is mapped onto.
    pub fn pool(&self) -> &ResourcePool {
        &self.pool
    }

    /// The group's parallel layout.
    pub fn layout(&self) -> &WorkerLayout {
        &self.layout
    }

    /// Dispatches `method` with `data` under `protocol` to every rank and
    /// returns immediately with a future (asynchronous dataflow, §4.1).
    pub fn call(&self, method: &str, data: &DataProto, protocol: Protocol) -> Result<DpFuture> {
        let cut = Cut::new(&self.inner.telemetry, protocol, &self.layout, data, 0.0)?;
        self.dispatch(method, None, protocol, OnceLock::from(Ok(cut)))
    }

    /// Dispatches `method` on the *future* of another call (a data future
    /// as an argument, §4.1): the RPC leaves at once, and every rank takes
    /// its input — `input`'s reply, collected through the producer's
    /// protocol and distributed through `protocol` — on its own device
    /// when the producing call has finished. The controller neither waits
    /// for the data nor carries it. A failure of `input` (or a reply
    /// `protocol` cannot distribute) surfaces at this call's `wait`, the
    /// same from every rank, and never counts as a loss of these ranks.
    pub fn call_on(&self, method: &str, input: &DpFuture, protocol: Protocol) -> Result<DpFuture> {
        // Relaxed: a reader is either the producer's `wait`, which
        // consumes the future this call only borrows, or a device thread
        // that first received one of the messages `dispatch` sends — and a
        // channel send/receive orders the store.
        input.call.shared.store(true, Ordering::Relaxed);
        self.dispatch(method, Some(&input.call), protocol, OnceLock::new())
    }

    /// Sends one `Execute` per rank, all reading one [`CallInput`]: `cut`
    /// already made from a controller batch, or left to the first rank to
    /// dequeue, which makes it from `producer`'s reply.
    fn dispatch(
        &self,
        method: &str,
        producer: Option<&Arc<CallState>>,
        protocol: Protocol,
        cut: OnceLock<Result<Cut>>,
    ) -> Result<DpFuture> {
        let (issued, deadline) = {
            let state = self.inner.state.lock();
            (state.clock, state.policy.deadline)
        };
        let dispatch_time = issued + self.inner.cost.rpc_dispatch_time();
        let input = Arc::new(CallInput {
            producer: producer.map(|call| (call.clone(), deadline)),
            layout: self.layout,
            protocol,
            cut,
        });
        // Causal-graph id of this call's dispatch span, threaded through
        // the device messages so rank-side spans can cite it.
        let call_id = self.inner.telemetry.next_span_id();
        let world = self.layout.world();
        let call = Arc::new(CallState {
            group: self.name.clone(),
            method: method.into(),
            layout: self.layout,
            protocol,
            first_collected_device: self
                .pool
                .device((0..world).find(|&r| protocol.is_collected(&self.layout, r)).unwrap_or(0)),
            slots: (0..world)
                .map(|_| ReplySlot { state: Mutex::new(Slot::Pending), filled: Condvar::new() })
                .collect(),
            shared: AtomicBool::new(false),
            for_consumers: OnceLock::new(),
        });
        {
            let state = self.inner.state.lock();
            for rank in 0..world {
                state
                    .devices
                    .get(&self.pool.device(rank))
                    .ok_or_else(|| CoreError::Disconnected("device thread missing".into()))?
                    .send(DeviceMsg::Execute {
                        key: self.key,
                        input: input.clone(),
                        dispatch_time,
                        call_id,
                        reply: ReplyTx { call: call.clone(), rank },
                    })
                    .map_err(|_| CoreError::Disconnected("device thread died".into()))?;
            }
        }
        Ok(DpFuture {
            call,
            input,
            issued,
            dispatched: dispatch_time,
            call_id,
            inner: self.inner.clone(),
        })
    }

    /// Convenience: `call(...)` then [`WorkerGroup::wait_retrying`].
    pub fn call_sync(
        &self,
        method: &str,
        data: &DataProto,
        protocol: Protocol,
    ) -> Result<DataProto> {
        self.wait_retrying(self.call(method, data, protocol)?, data)
    }

    /// Virtual seconds of backoff [`WorkerGroup::backs_off`] charges
    /// before the first retry; it doubles per attempt.
    pub const RETRY_BACKOFF_S: f64 = 0.05;

    /// The one retry decision: whether a call that failed with `err` is
    /// tried again — `err` is transient and the controller's
    /// [`CallPolicy`] has a retry left after `attempt` of them. If so the
    /// exponentially growing virtual backoff is charged to the controller
    /// clock and the retry counted; the caller re-issues. Non-transient
    /// failures (dead ranks, poisoned groups, timeouts) are never retried
    /// — they need recovery, not persistence.
    pub fn backs_off(&self, err: &CoreError, attempt: &mut u32) -> bool {
        let mut state = self.inner.state.lock();
        if !err.is_transient() || *attempt >= state.policy.max_retries {
            return false;
        }
        *attempt += 1;
        let backoff = Self::RETRY_BACKOFF_S * f64::from(1u32 << (*attempt - 1).min(16));
        state.clock += backoff;
        drop(state);
        self.inner.telemetry.add_counter("resilience.retries", 1);
        self.inner.telemetry.observe("resilience.retry_backoff_s", backoff);
        true
    }

    /// Waits `fut` — a call of this group on `data`, issued now or
    /// earlier, on `data` itself or on the future that produced it — and
    /// re-dispatches it on `data` while [`WorkerGroup::backs_off`] allows,
    /// behind whatever was queued since the first attempt.
    pub fn wait_retrying(&self, mut fut: DpFuture, data: &DataProto) -> Result<DataProto> {
        debug_assert_eq!(fut.call.group, self.name, "the future is another group's call");
        let (method, protocol) = (fut.call.method.clone(), fut.call.protocol);
        let mut attempt = 0u32;
        loop {
            match fut.wait() {
                Err(e) if self.backs_off(&e, &mut attempt) => {
                    fut = self.call(&method, data, protocol)?;
                }
                other => return other,
            }
        }
    }

    /// Registers `method` with a transfer protocol (the paper's
    /// `@register(transfer_mode=...)` decorator, Figure 5(a)): later
    /// [`WorkerGroup::invoke`] calls look the protocol up instead of
    /// passing it per call.
    pub fn register(&self, method: &str, protocol: Protocol) -> &Self {
        self.registry.lock().insert(method.to_string(), protocol);
        self
    }

    fn registered(&self, method: &str) -> Result<Protocol> {
        self.registry.lock().get(method).copied().ok_or_else(|| {
            CoreError::Config(format!("method {method} is not registered on group '{}'", self.name))
        })
    }

    /// Dispatches a *registered* method (see [`WorkerGroup::register`]).
    pub fn invoke(&self, method: &str, data: &DataProto) -> Result<DpFuture> {
        self.call(method, data, self.registered(method)?)
    }

    /// Dispatches a *registered* method on another call's future (see
    /// [`WorkerGroup::call_on`]).
    pub fn invoke_on(&self, method: &str, input: &DpFuture) -> Result<DpFuture> {
        self.call_on(method, input, self.registered(method)?)
    }

    /// `invoke(...).wait()`, with the same transient-fault retry policy
    /// as [`WorkerGroup::call_sync`].
    pub fn invoke_sync(&self, method: &str, data: &DataProto) -> Result<DataProto> {
        self.call_sync(method, data, self.registered(method)?)
    }
}

/// A future for an in-flight worker-group call.
#[must_use = "a dropped DpFuture abandons in-flight worker replies; wait() it"]
pub struct DpFuture {
    call: Arc<CallState>,
    /// What the call's ranks read.
    input: Arc<CallInput>,
    issued: f64,
    dispatched: f64,
    call_id: u64,
    inner: Arc<ControllerInner>,
}

impl DpFuture {
    /// Blocks until every rank finishes, advances controller virtual
    /// time to the slowest rank, and assembles the collected output.
    ///
    /// Honors the controller's [`CallPolicy`] deadline, if one is set:
    /// a rank that does not reply in time surfaces as
    /// [`CoreError::Timeout`].
    pub fn wait(self) -> Result<DataProto> {
        let deadline = self.inner.state.lock().policy.deadline;
        self.wait_impl(deadline)
    }

    /// [`DpFuture::wait`] with an explicit per-rank reply deadline,
    /// overriding the controller policy for this call.
    pub fn wait_deadline(self, deadline: Duration) -> Result<DataProto> {
        self.wait_impl(Some(deadline))
    }

    /// Non-blocking completion probe: `true` once every rank's reply is
    /// in, so a following [`DpFuture::wait`] returns without blocking.
    /// Never consumes replies, never advances any virtual clock, and
    /// records nothing — probing is invisible to simulated timing, so
    /// schedulers may poll it freely without perturbing determinism.
    /// `false` is always safe: it only means at least one rank has not
    /// replied *yet*.
    pub fn try_ready(&self) -> bool {
        self.call.slots.iter().all(|slot| !matches!(*slot.state.lock(), Slot::Pending))
    }

    fn wait_impl(self, deadline: Option<Duration>) -> Result<DataProto> {
        let call = &self.call;
        let Collected { out, finish, exec_ids, copy_bytes } = call.collect(deadline)?;
        // What the call's ranks read: cut at issue, or by the first of
        // them to dequeue (never, if none got that far).
        let cut = self.input.cut.get().and_then(|c| c.as_ref().ok());
        {
            let mut state = self.inner.state.lock();
            if finish > state.clock {
                state.clock = finish;
            }
            state.timeline.push(TimelineEntry {
                group: call.group.to_string(),
                method: call.method.to_string(),
                dispatched: self.dispatched,
                started: cut.map_or(self.dispatched, |c| c.ready.max(self.dispatched)),
                completed: finish,
            });
        }
        let out = out?;
        let telemetry = &self.inner.telemetry;
        if telemetry.is_enabled() {
            let protocol = call.protocol;
            telemetry
                .add_counter(&format!("protocol.{protocol:?}.collect_bytes"), out.bytes() as u64);
            telemetry.add_counter(&format!("protocol.{protocol:?}.collect_copy_bytes"), copy_bytes);
            telemetry.span_causal(
                CONTROLLER_TRACK,
                &format!("{}::{}", call.group, call.method),
                SpanKind::Dispatch,
                self.issued,
                finish,
                self.call_id,
                &exec_ids,
                &[
                    ("protocol", format!("{protocol:?}")),
                    ("dispatch_bytes", cut.map_or(0, |c| c.bytes).to_string()),
                    ("collect_bytes", out.bytes().to_string()),
                ],
            );
        }
        Ok(out)
    }
}
