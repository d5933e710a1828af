//! The hybrid runtime: single controller + per-device worker threads.
//!
//! * **Multi-controller**: every simulated GPU is an OS thread with a
//!   FIFO mailbox (`hf_sync::channel`) and its own virtual clocks; the
//!   mailbox, the reply slots and the communicators all block through
//!   `hf-sync`, and nothing else here waits but `shutdown`'s joins and
//!   `FutureInput::cut`'s `OnceLock`. Colocated model workers
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
//!   the controller on its way to a consumer. Both entry points end in
//!   one `dispatch` and one `Execute` arm; the controller's `wait` and a
//!   consumer rank run the same `CallState::collect`. The reply is
//!   collected once per future on a device thread and cut once per
//!   consumer call (two `OnceLock`s); the controller collects its own
//!   copy at its own `wait`, on its own thread, because the physical-copy
//!   count is thread-local.
//!
//! Timing: a device thread keeps one virtual clock per [`Lane`] — the
//! GPU's, and its node's host CPUs' — and a call reads and advances the
//! clock of the lane its worker registered with; "device clock" below is
//! that clock. Dispatch charges an RPC latency; a rank whose input carries
//! provenance (`__src_device`) is charged the GPU-to-GPU pull of its
//! chunk, modeling the direct inter-model transfer of Figure 5(b) (step
//! ⑥) rather than a central bottleneck. A call issued on a future starts
//! at `max(device clock, RPC arrival, producer's latest finish)` and then
//! pays that same pull, so the controller's dispatch latency overlaps the
//! producer's execution. Controller virtual time advances to the slowest
//! collected rank on `wait`; issuing never advances it.
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
use crate::fault::{ExecSite, FaultHook, LinkFault};
use crate::protocol::{Protocol, WorkerLayout};
use crate::worker::{CommSet, Lane, RankCtx, Worker};

/// Provenance metadata key: the device a batch was collected from.
pub const SRC_DEVICE_META: &str = "__src_device";

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
    /// Provenance of the collected reply: whoever consumes it pulls it
    /// from here.
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
        let until = deadline.map(|d| (d, Instant::now() + d));
        let mut state = slot.state.lock();
        loop {
            match &*state {
                Slot::Done(reply) if self.shared.load(Ordering::Relaxed) => {
                    return Ok(reply.clone())
                }
                Slot::Done(_) => match std::mem::replace(&mut *state, Slot::Closed) {
                    Slot::Done(reply) => return Ok(reply),
                    _ => unreachable!("matched above"),
                },
                Slot::Closed => {
                    return Err(CoreError::Disconnected(format!(
                        "{}::{} rank {rank} reply channel closed",
                        self.group, self.method
                    )))
                }
                Slot::Pending => {}
            }
            match until {
                None => slot.filled.wait(&mut state),
                Some((d, at)) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(CoreError::Timeout(format!(
                            "{}::{} rank {rank} did not reply within {d:?}",
                            self.group, self.method
                        )));
                    }
                    slot.filled.wait_for(&mut state, left);
                }
            }
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
    /// replies through the call's protocol, stamped with their provenance
    /// — what [`DpFuture::wait`] returns to the controller and what a
    /// call issued on the future reads on its devices. `Err` only when a
    /// rank never replied (deadline elapsed, runtime gone).
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
                out.meta.insert(
                    SRC_DEVICE_META.to_string(),
                    self.first_collected_device.index().to_string(),
                );
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
/// deadline, anything else is a peer's failure — never this rank's loss.
fn input_failed(e: CoreError) -> CoreError {
    let m = format!("input failed: {e}");
    match e {
        CoreError::Transient(_) => CoreError::Transient(m),
        CoreError::Timeout(_) => CoreError::Timeout(m),
        _ => CoreError::PeerFailed(m),
    }
}

/// The input of a call issued on a future ([`WorkerGroup::call_on`]),
/// shared by the call's ranks: they read one outcome, so either all of
/// them run the method or none enters a collective.
struct FutureInput {
    producer: Arc<CallState>,
    /// The consumer's own layout and protocol.
    layout: WorkerLayout,
    protocol: Protocol,
    /// Per-producer-rank reply deadline (the policy's, at issue time).
    deadline: Option<Duration>,
    /// The producer's reply cut by the consumer's protocol: once per
    /// call, by whichever of its ranks dequeues first.
    cut: OnceLock<Result<Cut>>,
}

struct Cut {
    /// One input per consumer rank.
    inputs: Vec<DataProto>,
    /// Virtual time the producer's slowest rank finished.
    ready: f64,
    /// Payload bytes over all ranks (the dispatch span's argument).
    bytes: usize,
}

impl FutureInput {
    fn cut(&self, telemetry: &Telemetry) -> &Result<Cut> {
        self.cut.get_or_init(|| {
            let collected = self.producer.for_consumers.get_or_init(|| {
                let c = self.producer.collect(self.deadline).map_err(input_failed)?;
                Ok((c.out.map_err(input_failed)?, c.finish))
            });
            let (batch, ready) = collected.as_ref().map_err(Clone::clone)?;
            let (inputs, bytes) =
                distribute_counted(telemetry, self.protocol, &self.layout, batch)?;
            Ok(Cut { inputs, ready: *ready, bytes })
        })
    }
}

/// `protocol.distribute` plus the dispatch byte counters, on whichever
/// thread cuts the batch: the controller's for [`WorkerGroup::call`], a
/// device's for [`WorkerGroup::call_on`].
fn distribute_counted(
    telemetry: &Telemetry,
    protocol: Protocol,
    layout: &WorkerLayout,
    data: &DataProto,
) -> Result<(Vec<DataProto>, usize)> {
    let copied_before = crate::data::physical_copy_bytes();
    let inputs = protocol.distribute(layout, data)?;
    let copy_bytes = crate::data::physical_copy_bytes() - copied_before;
    let bytes: usize = inputs.iter().map(|d| d.bytes()).sum();
    if telemetry.is_enabled() {
        telemetry.add_counter(&format!("protocol.{protocol:?}.dispatch_bytes"), bytes as u64);
        telemetry.add_counter(&format!("protocol.{protocol:?}.dispatch_copy_bytes"), copy_bytes);
    }
    Ok((inputs, bytes))
}

/// What a rank's `Execute` message carries as the call's input.
enum RankInput {
    /// This rank's share of a batch the controller held when it issued
    /// the call, and the device to pull it from (`None`: the controller's
    /// own data, or produced on this device).
    Batch { data: DataProto, src_device: Option<DeviceId> },
    /// The call was issued on another call's future: the rank waits for
    /// that call and takes its share of the reply.
    Future(Arc<FutureInput>),
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
        input: RankInput,
        dispatch_time: f64,
        /// Causal-graph id of the controller's dispatch span; device-side
        /// spans for this call list it as their cause.
        call_id: u64,
        reply: ReplyTx,
    },
    /// Heartbeat probe: replies with the device's message epoch and
    /// virtual clock. A device wedged mid-message never replies, which
    /// is exactly the signal `probe_devices` turns into "unresponsive".
    Ping {
        reply: Sender<(u64, f64)>,
    },
    Shutdown,
}

/// Failure-handling knobs for the controller's dispatch path. The
/// default reproduces the pre-resilience behavior exactly: no deadline,
/// no retries.
#[derive(Debug, Clone, Copy)]
pub struct CallPolicy {
    /// Wall-clock budget for each rank's reply in [`DpFuture::wait`];
    /// `None` waits forever. An elapsed deadline surfaces as
    /// [`CoreError::Timeout`] — the escape hatch that bounds *any*
    /// failure mode, including ones the collective-abort path misses.
    pub deadline: Option<Duration>,
    /// How many times a retrying wait ([`WorkerGroup::wait_retrying`],
    /// and so `call_sync` / `invoke_sync`) re-dispatches a call that
    /// failed with a transient fault (dropped RPC, severed link).
    pub max_retries: u32,
    /// Virtual seconds of backoff charged before the first retry;
    /// doubles per attempt.
    pub backoff_s: f64,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy { deadline: None, max_retries: 0, backoff_s: 0.05 }
    }
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
    pub reason: String,
}

/// One device's answer to a heartbeat probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceHealth {
    /// The probed device.
    pub device: DeviceId,
    /// Whether the device replied within the probe deadline.
    pub alive: bool,
    /// Messages the device thread has processed (monotone epoch tag).
    pub epoch: u64,
    /// The device's virtual clock at reply time.
    pub virtual_now: f64,
}

struct ControllerState {
    devices: HashMap<DeviceId, Sender<DeviceMsg>>,
    handles: Vec<JoinHandle<()>>,
    pools: Vec<(String, ResourcePool)>,
    next_key: u64,
    clock: f64,
    timeline: Vec<TimelineEntry>,
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

fn device_main(
    device: DeviceId,
    rx: Receiver<DeviceMsg>,
    cluster: Arc<ClusterSpec>,
    cost: CommCostModel,
    telemetry: Telemetry,
    fault: Option<Arc<dyn FaultHook>>,
    lost: Arc<Mutex<Vec<LostRank>>>,
) {
    // One clock and one track per lane, indexed by `Lane as usize`: the
    // GPU's, and the host CPUs' beside it.
    let tracks = [gpu_track(device.index()), cpu_track(device.index())];
    let mut clocks = [VirtualClock::new(); 2];
    let mut workers: HashMap<u64, Registered> = HashMap::new();
    // Per-(group key, method) dispatch counts, for call-indexed faults.
    let mut call_counts: HashMap<(u64, Arc<str>), u64> = HashMap::new();
    // Ranks whose communicators can no longer be used — killed by fault
    // injection, or aborted out of a collective by a peer's death: every
    // later RPC fails fast.
    let mut dead: HashMap<u64, String> = HashMap::new();
    let mut epoch = 0u64;
    for msg in rx.iter() {
        epoch += 1;
        match msg {
            DeviceMsg::Register { key, worker, ctx } => {
                let lane = worker.lane();
                workers.insert(key, (worker, ctx, lane));
            }
            DeviceMsg::Unregister { key } => {
                workers.remove(&key);
                dead.remove(&key);
                call_counts.retain(|(k, _), _| *k != key);
            }
            DeviceMsg::Execute { key, input, dispatch_time, call_id, reply } => {
                let (group, method) = (reply.call.group.clone(), reply.call.method.clone());
                let Some((worker, ctx, lane)) = workers.get_mut(&key) else {
                    reply.send((
                        Err(CoreError::Config(format!(
                            "no worker {key} registered on device {}",
                            device.0
                        ))),
                        clocks[Lane::Device as usize].now(),
                        0,
                    ));
                    continue;
                };
                let (clock, track) = (&mut clocks[*lane as usize], &tracks[*lane as usize]);
                if let Some(reason) = dead.get(&key) {
                    reply.send((
                        Err(CoreError::PeerFailed(format!("{method}: rank is dead: {reason}"))),
                        clock.now(),
                        0,
                    ));
                    continue;
                }
                // A call issued on a future waits here for the producing
                // call and takes its share of the reply. A failed input
                // is answered before the fault hook and the call counter
                // see the call — as if it had never been issued — and
                // from every rank alike (they read one shared outcome),
                // so no rank enters a collective its peers skip.
                let (data, src_device) = match input {
                    RankInput::Batch { data, src_device } => (data, src_device),
                    RankInput::Future(on) => match on.cut(&telemetry) {
                        Ok(cut) => {
                            // The device idles (or works its mailbox down)
                            // until the reply it reads exists.
                            clock.sync_to(cut.ready);
                            let src = on.producer.first_collected_device;
                            (cut.inputs[ctx.rank].clone(), Some(src).filter(|s| *s != device))
                        }
                        Err(e) => {
                            reply.send((Err(e.clone()), clock.now(), 0));
                            continue;
                        }
                    },
                };
                let mut dispatch_time = dispatch_time;
                let mut slow_factor = 1.0f64;
                // Consult the fault hook before delivery.
                if let Some(hook) = &fault {
                    let idx = call_counts.entry((key, method.clone())).or_insert(0);
                    *idx += 1;
                    let site = ExecSite {
                        device: device.index(),
                        group: &group,
                        rank: ctx.rank,
                        method: &method,
                        call_index: *idx,
                        now: clock.now().max(dispatch_time),
                    };
                    let f = hook.on_execute(&site);
                    if let Some(reason) = f.kill {
                        telemetry.add_counter("resilience.faults_injected", 1);
                        telemetry.add_counter("resilience.ranks_killed", 1);
                        // Poison every group the rank belongs to: peers
                        // blocked in a rendezvous with it abort instead
                        // of waiting forever (simulated ncclCommAbort).
                        ctx.comms.poison_all(&reason);
                        dead.insert(key, reason.clone());
                        lost.lock().push(LostRank {
                            device,
                            group: group.to_string(),
                            rank: ctx.rank,
                            reason: reason.clone(),
                        });
                        reply.send((
                            Err(CoreError::WorkerPanicked(format!("{method}: {reason}"))),
                            clock.now(),
                            0,
                        ));
                        continue;
                    }
                    if f.drop_rpc {
                        telemetry.add_counter("resilience.faults_injected", 1);
                        telemetry.add_counter("resilience.rpc_dropped", 1);
                        reply.send((
                            Err(CoreError::Transient(format!("{method}: rpc dropped"))),
                            clock.now(),
                            0,
                        ));
                        continue;
                    }
                    if f.delay_s > 0.0 {
                        telemetry.add_counter("resilience.faults_injected", 1);
                        telemetry.add_counter("resilience.rpc_delayed", 1);
                        dispatch_time += f.delay_s;
                    }
                    if f.slow_factor > 1.0 {
                        telemetry.add_counter("resilience.faults_injected", 1);
                        telemetry.add_counter("resilience.device_slowdowns", 1);
                        slow_factor = f.slow_factor;
                    }
                }
                // Span names and args are built only for a recording
                // handle: disabled telemetry costs this branch, not a
                // string per call.
                let label = || format!("{group}::{method}");
                let span_label = if telemetry.is_enabled() { label() } else { String::new() };
                // Mailbox dequeue: time past the dispatch instant that the
                // device was busy (colocated time-sharing) or waited for
                // the future the call was issued on is queue wait.
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
                    let lf = fault
                        .as_ref()
                        .map(|h| h.on_link(src.index(), device.index(), clock.now()))
                        .unwrap_or_else(LinkFault::none);
                    if lf.severed {
                        telemetry.add_counter("resilience.faults_injected", 1);
                        telemetry.add_counter("resilience.links_severed", 1);
                        reply.send((
                            Err(CoreError::Transient(format!(
                                "{method}: link {} -> {} severed",
                                src.index(),
                                device.index()
                            ))),
                            clock.now(),
                            0,
                        ));
                        continue;
                    }
                    let pull_start = clock.now();
                    let bytes = data.bytes();
                    clock.advance(cost.p2p_time(&cluster, src, device, bytes as f64) + lf.delay_s);
                    if lf.delay_s > 0.0 {
                        telemetry.add_counter("resilience.faults_injected", 1);
                        telemetry.add_counter("resilience.links_delayed", 1);
                    }
                    if telemetry.is_enabled() {
                        telemetry.span_causal(
                            track,
                            &span_label,
                            SpanKind::Comm,
                            pull_start,
                            clock.now(),
                            0,
                            &[call_id],
                            &[
                                ("bytes", bytes.to_string()),
                                ("src_device", src.index().to_string()),
                            ],
                        );
                    }
                    telemetry.add_counter("p2p.pull_bytes", bytes as u64);
                }
                let exec_start = clock.now();
                let exec_id = telemetry.next_span_id();
                ctx.clock = *clock;
                ctx.cause = call_id;
                ctx.dispatch_time = dispatch_time;
                // CoW auditor (audit builds): hold a view-sharing clone of
                // the input across the call; the fingerprint must be
                // unchanged afterwards, or the worker wrote through a
                // shared buffer instead of copy-on-write.
                #[cfg(feature = "audit")]
                let (audit_input, audit_fp) = {
                    let input = data.clone();
                    if let Err(e) = input.audit_verify() {
                        let err =
                            CoreError::Invariant(format!("{}: malformed input: {e}", label()));
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
                        reply.send((Err(err), clock.now(), exec_id));
                        continue;
                    }
                    let fp = input.audit_fingerprint();
                    (input, fp)
                };
                let result = catch_unwind(AssertUnwindSafe(|| worker.execute(&method, data, ctx)));
                let out = match result {
                    Ok(r) => {
                        *clock = ctx.clock;
                        // A slowed device stretches the execution's
                        // virtual duration (straggler injection).
                        if slow_factor > 1.0 {
                            let dt = clock.now() - exec_start;
                            if dt > 0.0 {
                                clock.advance(dt * (slow_factor - 1.0));
                            }
                        }
                        r
                    }
                    Err(panic) => {
                        // The clock may be stale after a panic; keep the
                        // pre-call time. Either way the rank left a
                        // collective contract broken, so poison its
                        // groups: blocked peers unwind with a collective
                        // abort (and cascade it) instead of hanging.
                        let err = if let Some(abort) = panic.downcast_ref::<CollectiveAbort>() {
                            telemetry.add_counter("resilience.peer_failures", 1);
                            // An aborted communicator must be replaced, not
                            // reused: a call already queued behind this one
                            // would re-enter a collective on it, and the
                            // lifecycle auditor's panic there reads as an
                            // originating loss. Fail those calls fast.
                            dead.insert(key, abort.reason.clone());
                            CoreError::PeerFailed(format!("{method}: {}", abort.reason))
                        } else {
                            let msg = panic_message(&*panic);
                            // An originating panic (not a cascaded abort)
                            // is a genuine rank loss.
                            lost.lock().push(LostRank {
                                device,
                                group: group.to_string(),
                                rank: ctx.rank,
                                reason: msg.clone(),
                            });
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
                reply.send((out, clock.now(), exec_id));
            }
            DeviceMsg::Ping { reply } => {
                let _ = reply.send((epoch, clocks[Lane::Device as usize].now()));
            }
            DeviceMsg::Shutdown => break,
        }
    }
}

impl Controller {
    /// Creates a controller over `cluster` with the default cost model.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self::with_cost(cluster, CommCostModel::default())
    }

    /// Creates a controller with an explicit communication cost model.
    pub fn with_cost(cluster: ClusterSpec, cost: CommCostModel) -> Self {
        Self::with_telemetry(cluster, cost, Telemetry::disabled())
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
                    policy: CallPolicy::default(),
                }),
            }),
        }
    }

    /// The active failure-handling policy.
    pub fn policy(&self) -> CallPolicy {
        self.inner.state.lock().policy
    }

    /// Replaces the failure-handling policy (deadlines and retries) for
    /// every subsequent call on every worker group.
    pub fn set_policy(&self, policy: CallPolicy) {
        self.inner.state.lock().policy = policy;
    }

    /// Heartbeat-probes every device thread: sends a `Ping` and waits up
    /// to `deadline` (wall clock) for each reply. A device blocked in a
    /// wedged collective or busy with a runaway worker reports
    /// `alive: false`. Results are sorted by device index; the count of
    /// live devices is exported as the `resilience.devices_alive` gauge.
    pub fn probe_devices(&self, deadline: Duration) -> Vec<DeviceHealth> {
        let senders: Vec<(DeviceId, Sender<DeviceMsg>)> = {
            let state = self.inner.state.lock();
            state.devices.iter().map(|(d, tx)| (*d, tx.clone())).collect()
        };
        type PingReply = Option<Receiver<(u64, f64)>>;
        let pending: Vec<(DeviceId, PingReply)> = senders
            .into_iter()
            .map(|(d, tx)| {
                let (ptx, prx) = unbounded();
                let sent = tx.send(DeviceMsg::Ping { reply: ptx }).is_ok();
                (d, sent.then_some(prx))
            })
            .collect();
        let mut out: Vec<DeviceHealth> = pending
            .into_iter()
            .map(|(device, rx)| match rx.and_then(|rx| rx.recv_timeout(deadline)) {
                Some((epoch, virtual_now)) => {
                    DeviceHealth { device, alive: true, epoch, virtual_now }
                }
                None => DeviceHealth { device, alive: false, epoch: 0, virtual_now: 0.0 },
            })
            .collect();
        out.sort_by_key(|h| h.device.index());
        let alive = out.iter().filter(|h| h.alive).count();
        self.inner.telemetry.set_gauge("resilience.devices_alive", alive as f64);
        out
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

    /// Resets controller virtual time (between measured iterations).
    pub fn reset_clock(&self) {
        self.inner.state.lock().clock = 0.0;
    }

    /// Snapshot of every awaited call so far: who ran what, when, for
    /// how long (virtual time). Rendered by the `stage_timeline` example
    /// into Table 1-style execution patterns.
    pub fn timeline(&self) -> Vec<TimelineEntry> {
        self.inner.state.lock().timeline.clone()
    }

    /// Clears the recorded timeline.
    pub fn clear_timeline(&self) {
        self.inner.state.lock().timeline.clear();
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
        let world_group = CommGroup::new(pool.devices().to_vec());
        let tp_groups = make_groups(spec.tp_groups());
        let pp_groups = make_groups(spec.pp_groups());
        let dp_groups = make_groups(spec.dp_groups());
        let mp_groups = make_groups(spec.mp_groups());
        let micro_groups = layout.gen.map(|g| make_groups(g.micro_dp_groups()));

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
            if let Some(g) = micro_groups.as_ref() {
                fams.push(("micro-dp", g));
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
            let (ranks, group) =
                groups.iter().find(|(ranks, _)| ranks.contains(&rank)).ok_or_else(|| {
                    CoreError::Invariant(format!(
                        "rank {rank} of '{name}' belongs to no {family} group \
                         (families do not partition the world)"
                    ))
                })?;
            let pos = ranks.iter().position(|&r| r == rank).ok_or_else(|| {
                CoreError::Invariant(format!(
                    "rank {rank} of '{name}' matched a {family} group that does \
                     not list it as a member"
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
                    let cluster = self.inner.cluster.clone();
                    let cost = self.inner.cost.clone();
                    let telemetry = self.inner.telemetry.clone();
                    let fault = self.inner.fault.clone();
                    let lost = self.inner.lost.clone();
                    let handle = std::thread::Builder::new()
                        .name(format!("gpu-{}", d.index()))
                        .spawn(move || device_main(d, rx, cluster, cost, telemetry, fault, lost))
                        .expect("spawn device thread");
                    e.insert(tx);
                    state.handles.push(handle);
                }
            }
            for rank in 0..layout.world() {
                let device = dev_of(rank);
                let comms = CommSet {
                    world: Communicator::new(
                        world_group.clone(),
                        rank,
                        self.inner.cluster.clone(),
                        self.inner.cost.clone(),
                    ),
                    tp: find(&tp_groups, rank, "tp")?,
                    pp: find(&pp_groups, rank, "pp")?,
                    dp: find(&dp_groups, rank, "dp")?,
                    mp: find(&mp_groups, rank, "mp")?,
                    micro_dp: match micro_groups.as_ref() {
                        Some(g) => Some(find(g, rank, "micro-dp")?),
                        None => None,
                    },
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

    /// The cluster's devices with every lost device removed: the world
    /// an elastic re-map may still place onto.
    pub fn surviving_devices(&self) -> Vec<DeviceId> {
        let lost = self.lost_devices();
        (0..self.inner.cluster.total_gpus()).map(DeviceId).filter(|d| !lost.contains(d)).collect()
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
        self.dispatch(method, protocol, Input::Batch(data))
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
        self.dispatch(method, protocol, Input::Future(input))
    }

    fn dispatch(&self, method: &str, protocol: Protocol, input: Input<'_>) -> Result<DpFuture> {
        let telemetry = &self.inner.telemetry;
        let (issued, deadline) = {
            let state = self.inner.state.lock();
            (state.clock, state.policy.deadline)
        };
        let dispatch_time = issued + self.inner.cost.rpc_dispatch_time();
        // Per-rank inputs, the bytes the controller distributed, and the
        // future the call was issued on.
        let (inputs, dispatched_bytes, on): (Vec<RankInput>, _, _) = match input {
            Input::Batch(data) => {
                let (inputs, bytes) = distribute_counted(telemetry, protocol, &self.layout, data)?;
                let src = data.meta.get(SRC_DEVICE_META).and_then(|s| s.parse().ok()).map(DeviceId);
                // Ranks on the producing device read locally (no pull).
                let pulled = |rank| src.filter(|s| *s != self.pool.device(rank));
                let inputs = (inputs.into_iter().enumerate())
                    .map(|(rank, data)| RankInput::Batch { data, src_device: pulled(rank) })
                    .collect();
                (inputs, bytes, None)
            }
            Input::Future(fut) => {
                // Relaxed: a reader is either the producer's `wait`, which
                // consumes the future this call only borrows, or a device
                // thread that first received one of the messages sent
                // below — and a channel send/receive orders the store.
                fut.call.shared.store(true, Ordering::Relaxed);
                let on = Arc::new(FutureInput {
                    producer: fut.call.clone(),
                    layout: self.layout,
                    protocol,
                    deadline,
                    cut: OnceLock::new(),
                });
                let inputs =
                    (0..self.layout.world()).map(|_| RankInput::Future(on.clone())).collect();
                (inputs, 0, Some(on))
            }
        };
        // Causal-graph id of this call's dispatch span, threaded through
        // the device messages so rank-side spans can cite it.
        let call_id = telemetry.next_span_id();
        let call = Arc::new(CallState {
            group: self.name.clone(),
            method: method.into(),
            layout: self.layout,
            protocol,
            first_collected_device: self.first_collected_device(protocol),
            slots: (inputs.iter())
                .map(|_| ReplySlot { state: Mutex::new(Slot::Pending), filled: Condvar::new() })
                .collect(),
            shared: AtomicBool::new(false),
            for_consumers: OnceLock::new(),
        });
        {
            let state = self.inner.state.lock();
            for (rank, input) in inputs.into_iter().enumerate() {
                state
                    .devices
                    .get(&self.pool.device(rank))
                    .ok_or_else(|| CoreError::Disconnected("device thread missing".into()))?
                    .send(DeviceMsg::Execute {
                        key: self.key,
                        input,
                        dispatch_time,
                        call_id,
                        reply: ReplyTx { call: call.clone(), rank },
                    })
                    .map_err(|_| CoreError::Disconnected("device thread died".into()))?;
            }
        }
        Ok(DpFuture {
            call,
            on,
            issued,
            dispatched: dispatch_time,
            dispatched_bytes,
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
        let backoff = state.policy.backoff_s * f64::from(1u32 << (*attempt - 1).min(16));
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

    fn first_collected_device(&self, protocol: Protocol) -> DeviceId {
        let rank =
            (0..self.layout.world()).find(|&r| protocol.is_collected(&self.layout, r)).unwrap_or(0);
        self.pool.device(rank)
    }
}

/// What a call is issued on.
enum Input<'a> {
    /// A batch the controller holds (prompts, the advantage-carrying
    /// batch, a checkpoint).
    Batch(&'a DataProto),
    /// The reply of a call still in flight.
    Future(&'a DpFuture),
}

/// A future for an in-flight worker-group call.
#[must_use = "a dropped DpFuture abandons in-flight worker replies; wait() it"]
pub struct DpFuture {
    call: Arc<CallState>,
    /// The future this call was issued on, if any.
    on: Option<Arc<FutureInput>>,
    issued: f64,
    dispatched: f64,
    /// Payload bytes distributed by the controller (a call issued on a
    /// future reads them off its cut).
    dispatched_bytes: usize,
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
        // What the ranks of a call issued on a future read off its cut.
        let cut = self.on.as_ref().and_then(|on| on.cut.get()).and_then(|c| c.as_ref().ok());
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
            let dispatched_bytes = cut.map_or(self.dispatched_bytes, |c| c.bytes);
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
                    ("dispatch_bytes", dispatched_bytes.to_string()),
                    ("collect_bytes", out.bytes().to_string()),
                ],
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the tests' watchdogs stay outside the layer under test
mod tests {
    use super::*;
    use hf_parallel::ParallelSpec;

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

    impl crate::fault::FaultHook for KillOnCall {
        fn on_execute(&self, site: &ExecSite<'_>) -> crate::fault::ExecFault {
            let mut f = crate::fault::ExecFault::none();
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

    impl crate::fault::FaultHook for DropFirst {
        fn on_execute(&self, site: &ExecSite<'_>) -> crate::fault::ExecFault {
            use std::sync::atomic::Ordering;
            let mut f = crate::fault::ExecFault::none();
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
    fn probe_devices_reports_heartbeats() {
        let ctrl = controller(2);
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g = ctrl
            .spawn_group("hb", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker())
            .unwrap();
        g.call_sync("warm", &DataProto::empty(), Protocol::AllToAll).unwrap();
        let health = ctrl.probe_devices(Duration::from_secs(5));
        assert_eq!(health.len(), 2);
        for h in &health {
            assert!(h.alive, "{h:?}");
            assert!(h.epoch >= 2, "register + execute must bump the epoch: {h:?}");
        }
        // Epochs are monotone across probes.
        let again = ctrl.probe_devices(Duration::from_secs(5));
        for (a, b) in health.iter().zip(again.iter()) {
            assert!(b.epoch > a.epoch);
        }
    }

    #[test]
    fn overlapping_pools_are_rejected() {
        let ctrl = controller(4);
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker()).unwrap();
        let err =
            ctrl.spawn_group("b", &ResourcePool::contiguous(1, 2), layout, |_r| echo_worker());
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
        let err =
            ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| echo_worker());
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
        assert!(out.meta.contains_key(SRC_DEVICE_META));
        let t0 = ctrl.clock();
        b.call_sync("consume", &out, Protocol::Dp).unwrap();
        assert!(ctrl.clock() > t0, "consuming remote data must cost time");
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
        // a100_with_gpus rounds up to whole 8-GPU machines; survivors =
        // the full cluster minus the lost device.
        let survivors = ctrl.surviving_devices();
        assert_eq!(survivors.len(), ctrl.cluster().total_gpus() - 1);
        assert!(!survivors.contains(&DeviceId(1)));
        assert!(survivors.contains(&DeviceId(0)) && survivors.contains(&DeviceId(3)));
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
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use hf_parallel::ParallelSpec;

    fn echo() -> Box<dyn Worker> {
        Box::new(|_m: &str, d: DataProto, _c: &mut RankCtx| Ok(d))
    }

    fn setup() -> (Controller, WorkerGroup) {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(2));
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let g =
            ctrl.spawn_group("m", &ResourcePool::contiguous(0, 2), layout, |_r| echo()).unwrap();
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
    fn futures_can_be_waited_out_of_order() {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        let a =
            ctrl.spawn_group("a", &ResourcePool::contiguous(0, 2), layout, |_r| echo()).unwrap();
        let b =
            ctrl.spawn_group("b", &ResourcePool::contiguous(2, 2), layout, |_r| echo()).unwrap();
        let mut d = DataProto::with_rows(2);
        d.insert_f32("x", vec![5.0, 6.0], 1);
        let fa = a.call("m", &d, Protocol::Dp).unwrap();
        let fb = b.call("m", &d, Protocol::Dp).unwrap();
        // Wait b before a: the dataflow is asynchronous, order is free.
        assert_eq!(fb.wait().unwrap().f32("x").unwrap(), d.f32("x").unwrap());
        assert_eq!(fa.wait().unwrap().f32("x").unwrap(), d.f32("x").unwrap());
    }
}
