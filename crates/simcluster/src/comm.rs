//! Virtual NCCL: rendezvous collectives between worker threads.
//!
//! Each parallel group (TP / PP / DP / micro-DP) in the multi-controller
//! runtime is backed by a [`CommGroup`]: a shared-memory rendezvous that
//! every member thread enters with its contribution; the last arriver
//! folds the contributions once and every member leaves with the same
//! shared result. On top of it, [`Communicator`] implements the typed
//! collectives (all-gather, all-reduce, reduce-scatter, gather, barrier)
//! as folds and charges each rank's [`VirtualClock`] the analytic cost
//! from [`CommCostModel`], so the functional runtime and the analytic
//! simulators agree on timing.
//!
//! Pipeline stages hand activations over point to point on their pipeline
//! group, as Megatron does over NCCL: [`Communicator::send_to`] /
//! [`Communicator::recv_from`] keep one FIFO per (source, destination)
//! pair inside the [`CommGroup`], under its lock, so poisoning the group
//! releases a blocked receiver exactly as it releases a collective.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

use hf_sync::{Condvar, Mutex};

use crate::clock::VirtualClock;
use crate::cost::{CollectiveKind, CommCostModel};
use crate::rows::RowPool;
use crate::topology::{ClusterSpec, DeviceId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Filling,
    Draining,
}

/// A point-to-point message in flight: arrival time and payload.
type P2pMsg = (f64, Box<dyn Any + Send>);

struct RoundState {
    phase: Phase,
    arrived: usize,
    departed: usize,
    slots: Vec<Option<Box<dyn Any + Send>>>,
    result: Option<Arc<dyn Any + Send + Sync>>,
    /// Point-to-point messages in flight, one FIFO per `src · n + dst`.
    /// Not rounds: they do not rendezvous.
    p2p: Vec<VecDeque<P2pMsg>>,
    /// Once set, every present and future `exchange`, send and receive
    /// on the group aborts by unwinding with a [`CollectiveAbort`]
    /// payload instead of blocking on members that will never arrive.
    poisoned: Option<Arc<str>>,
    /// Lifecycle auditor (audit builds): which ranks are currently inside
    /// `exchange`. A rank re-entering before its previous collective
    /// finished would corrupt the rendezvous round — the same misuse that
    /// hangs or corrupts a real NCCL communicator.
    #[cfg(feature = "audit")]
    in_flight: Vec<bool>,
}

impl RoundState {
    /// Whether a member waiting for `phase` to end waits on: the group
    /// is still in it and nobody poisoned the group.
    fn waits_out(&self, phase: Phase) -> bool {
        self.poisoned.is_none() && self.phase == phase
    }
}

/// Panic payload thrown out of [`CommGroup::exchange`] when the group
/// has been poisoned (a member died or was killed by fault injection).
///
/// This is the simulated analogue of `ncclCommAbort`: surviving ranks
/// blocked in a rendezvous are woken and unwind with this payload, which
/// the runtime layer catches and converts into a peer-failure error
/// rather than letting the collective deadlock.
#[derive(Debug, Clone)]
pub struct CollectiveAbort {
    /// Human-readable description of the originating failure.
    pub reason: String,
}

/// Unwinds with a [`CollectiveAbort`] if the group is poisoned.
/// `resume_unwind`, not `panic_any`: the abort is a designed control
/// path, so it skips the panic hook — only the originating failure
/// prints.
fn abort_if_poisoned(st: &RoundState) {
    if let Some(r) = &st.poisoned {
        std::panic::resume_unwind(Box::new(CollectiveAbort { reason: r.to_string() }));
    }
}

/// The text of a panic payload (`panic!` carries a `&str` or a `String`).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

struct GroupInner {
    devices: Vec<DeviceId>,
    state: Mutex<RoundState>,
    cv: Condvar,
}

/// A rendezvous communication group over a fixed, ordered set of devices.
///
/// Cloning the handle shares the group; every member must call each
/// collective exactly once per round, in the same order, or the group
/// deadlocks (the same contract NCCL imposes).
#[derive(Clone)]
pub struct CommGroup {
    inner: Arc<GroupInner>,
}

impl CommGroup {
    /// Creates a group over `devices`; member local ranks are positions in
    /// this list.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn new(devices: Vec<DeviceId>) -> Self {
        assert!(!devices.is_empty(), "CommGroup must have at least one member");
        let n = devices.len();
        CommGroup {
            inner: Arc::new(GroupInner {
                devices,
                state: Mutex::new(RoundState {
                    phase: Phase::Filling,
                    arrived: 0,
                    departed: 0,
                    slots: (0..n).map(|_| None).collect(),
                    result: None,
                    p2p: (0..n * n).map(|_| VecDeque::new()).collect(),
                    poisoned: None,
                    #[cfg(feature = "audit")]
                    in_flight: vec![false; n],
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Number of members.
    pub(crate) fn size(&self) -> usize {
        self.inner.devices.len()
    }

    /// Ordered member device list.
    pub(crate) fn devices(&self) -> &[DeviceId] {
        &self.inner.devices
    }

    /// Poisons the group: every member currently blocked in
    /// [`CommGroup::exchange`] or in a point-to-point receive is woken
    /// and unwinds with a [`CollectiveAbort`]; every later `exchange`,
    /// send or receive aborts immediately.
    ///
    /// Poisoning is permanent and idempotent (the first reason wins) —
    /// recovery means spawning a fresh worker group with fresh groups,
    /// exactly as NCCL requires a new communicator after `commAbort`.
    pub fn poison(&self, reason: &str) {
        let mut st = self.inner.state.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(Arc::from(reason));
        }
        self.inner.cv.notify_all();
    }

    /// The poison reason, if the group has been poisoned.
    #[cfg(test)]
    fn poisoned(&self) -> Option<String> {
        self.inner.state.lock().poisoned.as_ref().map(|r| r.to_string())
    }

    /// Deposits `value` for `rank` and returns all members' values in rank
    /// order once every member has arrived: the identity case of
    /// [`CommGroup::exchange_fold`].
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or deposits twice in one round.
    pub fn exchange<T: Send + Sync + 'static>(&self, rank: usize, value: T) -> Arc<Vec<T>> {
        self.exchange_fold(rank, value, |all| all)
    }

    /// Deposits `value` for `rank`; once every member has arrived, the
    /// last arriver runs `fold` **once** over the deposited values (in
    /// rank order, moved, not cloned) and every member leaves with the
    /// same shared result.
    ///
    /// This is the primitive every collective is built from: the fold is
    /// the tree sum for all-reduce and reduce-scatter, the concatenation
    /// for all-gather, the identity for `exchange` and
    /// `exchange_timed`. The float association and every clock operation
    /// are those of the per-member form it replaced (the tests compare
    /// bits and clocks for n ∈ {1, 2, 3, 4, 5, 8}). Members
    /// must pass equivalent `fold`s — which one runs depends on arrival
    /// order. A `fold` that panics poisons the group, so *every* member
    /// (the folder included) unwinds with a [`CollectiveAbort`] naming
    /// the panic: a failed group computation is not one rank's failure,
    /// and no waiter is left stranded in the filling phase.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range or deposits twice in one round.
    pub fn exchange_fold<T, R, F>(&self, rank: usize, value: T, fold: F) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
        F: FnOnce(Vec<T>) -> R,
    {
        let inner = &*self.inner;
        let n = inner.devices.len();
        assert!(rank < n, "rank {rank} out of range for group of {n}");
        let mut st = inner.state.lock();
        abort_if_poisoned(&st);
        #[cfg(feature = "audit")]
        {
            assert!(
                !st.in_flight[rank],
                "audit: rank {rank} issued overlapping collectives on one group \
                 (previous exchange has not completed)"
            );
            st.in_flight[rank] = true;
        }
        // Wait out the drain of the previous round.
        inner.cv.wait_while(&mut st, None, |st| st.waits_out(Phase::Draining));
        abort_if_poisoned(&st);
        assert!(st.slots[rank].is_none(), "rank {rank} deposited twice in one round");
        st.slots[rank] = Some(Box::new(value));
        st.arrived += 1;
        // Whether this member moved the round on (folded it or drained
        // it). The waiters are woken only once the lock is dropped: each
        // one's first act is to re-take it.
        let mut wake = false;
        if st.arrived == n {
            let vals: Vec<T> = st
                .slots
                .iter_mut()
                .map(|s| {
                    *s.take()
                        .expect("slot must be filled")
                        .downcast::<T>()
                        .expect("all members of a round must exchange the same type")
                })
                .collect();
            // The waiters hold no lock while parked, and nobody else can
            // enter the round, so folding under the lock delays only a
            // concurrent `poison`.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fold(vals))) {
                Ok(folded) => {
                    st.result = Some(Arc::new(folded));
                    st.phase = Phase::Draining;
                    wake = true;
                }
                Err(payload) => {
                    let msg = panic_message(&*payload);
                    st.poisoned = Some(format!("collective fold panicked: {msg}").into());
                    inner.cv.notify_all();
                    abort_if_poisoned(&st);
                }
            }
        } else {
            inner.cv.wait_while(&mut st, None, |st| st.waits_out(Phase::Filling));
            abort_if_poisoned(&st);
        }
        let arc: Arc<dyn Any + Send + Sync> =
            st.result.as_ref().expect("result must be set in draining phase").clone();
        #[cfg(feature = "audit")]
        {
            st.in_flight[rank] = false;
        }
        st.departed += 1;
        if st.departed == n {
            st.phase = Phase::Filling;
            st.arrived = 0;
            st.departed = 0;
            st.result = None;
            wake = true;
        }
        drop(st);
        if wake {
            inner.cv.notify_all();
        }
        arc.downcast::<R>().expect("all members of a round must fold to the same type")
    }

    /// Appends `msg` to the `src → dst` FIFO (both in range: the sender
    /// looked their devices up).
    fn post(&self, src: usize, dst: usize, msg: P2pMsg) {
        let inner = &*self.inner;
        let n = inner.devices.len();
        let mut st = inner.state.lock();
        abort_if_poisoned(&st);
        st.p2p[src * n + dst].push_back(msg);
        drop(st);
        inner.cv.notify_all();
    }

    /// Takes the next message of the `src → dst` FIFO, blocking while it
    /// is empty.
    fn take(&self, src: usize, dst: usize) -> P2pMsg {
        let inner = &*self.inner;
        let n = inner.devices.len();
        assert!(src < n && dst < n, "p2p {src} -> {dst} out of range for group of {n}");
        let mut st = inner.state.lock();
        let fifo = src * n + dst;
        inner.cv.wait_while(&mut st, None, |st| st.poisoned.is_none() && st.p2p[fifo].is_empty());
        abort_if_poisoned(&st);
        st.p2p[fifo].pop_front().expect("woken on a message")
    }
}

/// A per-rank handle over a [`CommGroup`] with timing semantics.
pub struct Communicator {
    group: CommGroup,
    rank: usize,
    cluster: Arc<ClusterSpec>,
    cost: CommCostModel,
    /// Collective rounds completed through *this handle*. SPMD members
    /// of a group call collectives in lockstep, so every member's local
    /// count agrees after each round — `(collective_tag, round)` is a
    /// deterministic cross-rank name for one collective instance, which
    /// hf-insight uses to stitch membership edges into the span graph.
    rounds: std::sync::atomic::AtomicU64,
    /// Payload bytes charged through *this handle*
    /// ([`Communicator::bytes`]).
    bytes: std::sync::atomic::AtomicU64,
    /// Lifecycle auditor (audit builds): set once this handle observes a
    /// [`CollectiveAbort`]. NCCL requires a fresh communicator after
    /// `commAbort`; issuing another collective through an aborted handle
    /// is a use-after-abort bug, not a recoverable condition.
    #[cfg(feature = "audit")]
    aborted: std::sync::atomic::AtomicBool,
}

impl Communicator {
    /// Binds local `rank` of `group` on `cluster` with cost model `cost`.
    pub fn new(
        group: CommGroup,
        rank: usize,
        cluster: Arc<ClusterSpec>,
        cost: CommCostModel,
    ) -> Self {
        assert!(rank < group.size());
        Communicator {
            group,
            rank,
            cluster,
            cost,
            rounds: std::sync::atomic::AtomicU64::new(0),
            bytes: std::sync::atomic::AtomicU64::new(0),
            #[cfg(feature = "audit")]
            aborted: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Collective rounds completed through this handle so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Payload bytes this handle's collectives and point-to-point sends
    /// have been charged for so far: the volume put on the wire, whatever
    /// time the cost model made of it.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn count(&self, bytes: f64) {
        self.bytes.fetch_add(bytes as u64, std::sync::atomic::Ordering::Relaxed);
    }

    /// Deterministic cross-rank name for this communicator: the ordered
    /// device list of the group. Combined with [`Communicator::rounds`]
    /// it names one collective instance (`tag@round`) identically on
    /// every member — the basis for collective-membership edges in the
    /// causal span graph.
    pub fn collective_tag(&self) -> String {
        let ids: Vec<String> = self.group.devices().iter().map(|d| d.0.to_string()).collect();
        ids.join("-")
    }

    /// This rank's position in the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of group members.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The underlying group.
    pub fn group(&self) -> &CommGroup {
        &self.group
    }

    /// Runs one operation on the group through this handle. Audit builds
    /// check the communicator lifecycle here: no operation after the
    /// handle observed an abort, and an abort marks the handle.
    fn guarded<R>(&self, op: impl FnOnce() -> R) -> R {
        #[cfg(feature = "audit")]
        {
            use std::sync::atomic::Ordering;
            assert!(
                !self.aborted.load(Ordering::Relaxed),
                "audit: rank {} used a communicator that already observed a \
                 CollectiveAbort (a fresh communicator is required)",
                self.rank
            );
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(op)) {
                Ok(out) => out,
                Err(payload) => {
                    self.aborted.store(true, Ordering::Relaxed);
                    std::panic::resume_unwind(payload);
                }
            }
        }
        #[cfg(not(feature = "audit"))]
        op()
    }

    /// One timed round: deposits `(clock.now(), value)` and returns what
    /// the last arriver's `fold` made of every member's deposit (rank
    /// order).
    fn rendezvous<T, R>(
        &self,
        clock: &VirtualClock,
        value: T,
        fold: impl FnOnce(Vec<(f64, T)>) -> R,
    ) -> Arc<R>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
    {
        let now = clock.now();
        self.guarded(|| self.group.exchange_fold(self.rank, (now, value), fold))
    }

    /// Sends `value` (`bytes` on the wire) to group rank `dst`, without
    /// waiting for it to be received: it arrives at `clock.now()` plus
    /// the point-to-point cost between the two devices. Aborts like a
    /// collective if the group is poisoned.
    pub fn send_to<T: Send + 'static>(
        &self,
        clock: &VirtualClock,
        dst: usize,
        value: T,
        bytes: f64,
    ) {
        let devices = self.group.devices();
        let hop = self.cost.p2p_time(&self.cluster, devices[self.rank], devices[dst], bytes);
        let msg: P2pMsg = (clock.now() + hop, Box::new(value));
        self.guarded(|| self.group.post(self.rank, dst, msg));
        self.count(bytes);
    }

    /// Receives the next value group rank `src` sent this rank, in send
    /// order, and advances `clock` to its arrival. Blocks until it is
    /// sent; aborts like a collective if the group is (or becomes)
    /// poisoned.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `T`.
    pub fn recv_from<T: Send + 'static>(&self, clock: &mut VirtualClock, src: usize) -> T {
        let (arrival, value) = self.guarded(|| self.group.take(src, self.rank));
        clock.sync_to(arrival);
        *value.downcast::<T>().expect("p2p message type mismatch")
    }

    /// Completes a round on this rank: the collective starts at `start`
    /// (the latest member's arrival) and takes the analytic cost of
    /// `kind` over `bytes`.
    fn charge(&self, clock: &mut VirtualClock, start: f64, kind: CollectiveKind, bytes: f64) {
        let cost = self.cost.collective_time(&self.cluster, self.group.devices(), kind, bytes);
        clock.sync_to(start + cost);
        self.count(bytes);
        self.rounds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// A timed round whose payloads are folded once for the whole group:
    /// returns the shared `(start, fold(payloads in rank order))`.
    fn collective<T, R>(
        &self,
        clock: &mut VirtualClock,
        value: T,
        kind: CollectiveKind,
        bytes: f64,
        fold: impl FnOnce(Vec<T>) -> R,
    ) -> Arc<(f64, R)>
    where
        T: Send + 'static,
        R: Send + Sync + 'static,
    {
        let out = self.rendezvous(clock, value, |all| {
            (latest(&all), fold(all.into_iter().map(|(_, v)| v).collect()))
        });
        self.charge(clock, out.0, kind, bytes);
        out
    }

    /// Raw exchange of arbitrary values plus clock synchronization with an
    /// explicit collective kind and payload size, for a caller whose
    /// payload is not one `f32` buffer: the 3D-HybridEngine's weight
    /// all-gather, which sends each member's shard as a shared
    /// reference and reads the list in place. Every member receives the
    /// same shared `(arrival time, value)` list in rank order; nothing
    /// is copied.
    pub fn exchange_timed<T: Send + Sync + 'static>(
        &self,
        clock: &mut VirtualClock,
        value: T,
        kind: CollectiveKind,
        total_bytes: f64,
    ) -> Arc<Vec<(f64, T)>> {
        let all = self.rendezvous(clock, value, |all| all);
        self.charge(clock, latest(&all), kind, total_bytes);
        all
    }

    /// Ring all-gather: returns the concatenation of all ranks' buffers in
    /// rank order, charged as one round over the concatenation's bytes.
    pub fn all_gather(&self, clock: &mut VirtualClock, data: &[f32]) -> Vec<f32> {
        let out = self.rendezvous(clock, data.to_vec(), |all| {
            (latest(&all), all.into_iter().map(|(_, v)| v).collect::<Vec<_>>().concat())
        });
        self.charge(clock, out.0, CollectiveKind::AllGather, (out.1.len() * 4) as f64);
        out.1.clone()
    }

    /// Ring all-reduce (sum). All buffers must be the same length.
    ///
    /// Rank contributions combine in a balanced pairwise tree (not a
    /// left fold), so for power-of-two group sizes the float association
    /// is the same at every size — the keystone of the cross-layout
    /// bit-parity contract `hf-audit` enforces: summing 8 per-row
    /// gradients on one rank gives the exact bytes of tree-summing 4+4
    /// on two ranks and all-reducing, as long as each rank also
    /// tree-sums its local rows.
    ///
    /// # Panics
    ///
    /// Aborts the group if member buffer lengths differ.
    pub fn all_reduce_sum(&self, clock: &mut VirtualClock, data: &[f32]) -> Vec<f32> {
        let (kind, bytes) = (CollectiveKind::AllReduce, (data.len() * 4) as f64);
        let sum = self.collective(clock, data.to_vec(), kind, bytes, |p| sum_equal_parts(p, None));
        sum.1.clone()
    }

    /// [`Communicator::all_reduce_sum`] of parts given by value — a
    /// buffer the member owns or one it shares with other holders — to
    /// the one [`Reduced`] sum every member reads: nothing of the
    /// parts' size is copied on the way in or out. A sum that cannot be
    /// formed in a part's buffer is formed in one taken from `rows`, and
    /// every part whose last holder this was, and every buffer the sum
    /// consumed, is given back to it.
    pub fn all_reduce_sum_shared<P: SumPart>(
        &self,
        clock: &mut VirtualClock,
        part: P,
        rows: &RowPool,
    ) -> Reduced {
        let len = part.as_ref().len();
        let (kind, bytes) = (CollectiveKind::AllReduce, (len * 4) as f64);
        let sum = self.collective(clock, part, kind, bytes, |p| sum_equal_parts(p, Some(rows)));
        Reduced { sum, range: 0..len }
    }

    /// Ring reduce-scatter (sum) of parts given by value, of any common
    /// length: rank `i` reads the `i`-th chunk of the elementwise sum,
    /// combined in the same balanced pairwise tree as
    /// [`Communicator::all_reduce_sum`], so ZeRO sharded updates reproduce
    /// replicated ones bitwise. Chunks are `⌈len / n⌉` long, so the last
    /// members' chunks may be short or empty, and the collective is
    /// charged for `n` whole chunks — what padding the parts would cost.
    /// The [`Reduced`] result reads as this member's chunk; its buffers
    /// come from and go back to `rows` as
    /// [`Communicator::all_reduce_sum_shared`]'s do.
    pub fn reduce_scatter_sum_shared<P: SumPart>(
        &self,
        clock: &mut VirtualClock,
        part: P,
        rows: &RowPool,
    ) -> Reduced {
        let (n, len) = (self.size(), part.as_ref().len());
        let chunk = len.div_ceil(n);
        let (kind, bytes) = (CollectiveKind::ReduceScatter, (chunk * n * 4) as f64);
        let sum = self.collective(clock, part, kind, bytes, |p| sum_equal_parts(p, Some(rows)));
        Reduced { sum, range: (self.rank * chunk).min(len)..((self.rank + 1) * chunk).min(len) }
    }

    /// Barrier: synchronizes virtual clocks to the group maximum.
    pub fn barrier(&self, clock: &mut VirtualClock) {
        self.collective(clock, (), CollectiveKind::AllGather, 0.0, |_| ());
    }
}

/// Latest of the members' arrival instants: when a collective starts.
fn latest<T>(all: &[(f64, T)]) -> f64 {
    all.iter().map(|(t, _)| *t).fold(0.0_f64, f64::max)
}

/// What a reduction collective folded, once for the whole group: every
/// member reads its result — the whole sum of an all-reduce, its own
/// chunk of a reduce-scatter — out of the same shared buffer.
#[derive(Debug)]
pub struct Reduced {
    sum: Arc<(f64, Vec<f32>)>,
    range: std::ops::Range<usize>,
}

impl Reduced {
    /// The whole sum's buffer, if no other member holds the result any
    /// more: when every member calls this, exactly one of them gets it
    /// (`Arc::into_inner`), to give back to the list it came from.
    pub fn into_buffer(self) -> Option<Vec<f32>> {
        Arc::into_inner(self.sum).map(|(_, sum)| sum)
    }
}

impl std::ops::Deref for Reduced {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.sum.1[self.range.clone()]
    }
}

/// A member's part of a sum collective, given by value: a buffer the
/// member owns, or one it shares with other holders and only lends.
pub trait SumPart: AsRef<[f32]> + Send + Sized + 'static {
    /// The buffer itself, if this part owns one it can give away: the
    /// sum is then formed in it, without an allocation.
    fn owned(self) -> Result<Vec<f32>, Self> {
        Err(self)
    }

    /// The buffer, once the sum has read it, if this was its last holder
    /// and it may be given back to the sum's [`RowPool`]. When every
    /// holder calls it, at most one gets it.
    fn release(self) -> Option<Vec<f32>> {
        None
    }
}

impl SumPart for Vec<f32> {
    fn owned(self) -> Result<Vec<f32>, Self> {
        Ok(self)
    }

    fn release(self) -> Option<Vec<f32>> {
        Some(self)
    }
}

/// The balanced pairwise-tree sum of rank contributions, which must
/// agree in length: the tree's first level pair by pair — in the left
/// part's buffer if it owns one, into a new one if it is shared — and
/// the levels above it by [`TreeSum`]. With `rows`, a new buffer is
/// taken from it, and the parts it released and the tree's spares are
/// given back to it.
fn sum_equal_parts<P: SumPart>(parts: Vec<P>, rows: Option<&RowPool>) -> Vec<f32> {
    let len = parts[0].as_ref().len();
    for p in &parts {
        assert_eq!(p.as_ref().len(), len, "reduced buffers must have equal length");
    }
    // Every value of a new buffer is written before it is read.
    let new = || rows.map_or_else(|| vec![0.0; len], |rows| rows.take(len));
    let mut tree = TreeSum::default();
    let mut parts = parts.into_iter();
    while let Some(left) = parts.next() {
        let right = parts.next();
        let (sum, read) = match (left.owned(), right) {
            (Ok(mut sum), Some(right)) => {
                sum.iter_mut().zip(right.as_ref()).for_each(|(x, y)| *x += y);
                (sum, [None, Some(right)])
            }
            (Err(left), Some(right)) => {
                let mut sum = new();
                for ((s, x), y) in sum.iter_mut().zip(left.as_ref()).zip(right.as_ref()) {
                    *s = x + y;
                }
                (sum, [Some(left), Some(right)])
            }
            // An odd tail is carried up as it is.
            (Ok(sum), None) => (sum, [None, None]),
            (Err(left), None) => {
                let mut sum = new();
                sum.copy_from_slice(left.as_ref());
                (sum, [Some(left), None])
            }
        };
        tree.push(sum);
        if let Some(rows) = rows {
            rows.give(read.into_iter().flatten().filter_map(SumPart::release));
        }
    }
    let (sum, spare) = tree.finish();
    if let Some(rows) = rows {
        rows.give(spare);
    }
    sum.expect("a group has at least one member")
}

/// A streaming balanced pairwise-tree sum of equal-length vectors: parts
/// are pushed one at a time, in order, and combine exactly as
/// [`tree_sum_parts`] combines the whole list — neighbours pairwise,
/// level by level, an odd tail carried up unchanged.
///
/// It is a binary counter: level `l` holds the sum of a complete run of
/// `2^l` parts that waits for the run to its right, so after `n` pushes
/// at most `⌊log₂ n⌋ + 1` buffers are held where the list form holds
/// `n`. A buffer whose values have been added into its left neighbour is
/// kept as a spare, and [`TreeSum::buffer`] hands spares out again: a
/// caller that fills the buffers it gets here takes new ones from its
/// [`RowPool`] only while the counter grows, and gives the spares back
/// after [`TreeSum::finish`].
#[derive(Debug, Default)]
pub struct TreeSum {
    levels: Vec<Option<Vec<f32>>>,
    spare: Vec<Vec<f32>>,
}

impl TreeSum {
    /// A buffer of `len` values to fill and [`TreeSum::push`]: a spare
    /// one if there is one, else one taken from `rows`. What it holds is
    /// unspecified — neither is zero-filled — so the caller writes every
    /// value.
    pub fn buffer(&mut self, len: usize, rows: &RowPool) -> Vec<f32> {
        match self.spare.pop() {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => rows.take(len),
        }
    }

    /// Buffers currently held as partial sums.
    #[cfg(test)]
    fn held(&self) -> usize {
        self.levels.iter().flatten().count()
    }

    /// Adds `right` into `left`, elementwise, and keeps `right` as a spare.
    fn combine(&mut self, mut left: Vec<f32>, right: Vec<f32>) -> Vec<f32> {
        assert_eq!(left.len(), right.len(), "summed parts must have equal length");
        for (x, y) in left.iter_mut().zip(&right) {
            *x += y;
        }
        self.spare.push(right);
        left
    }

    /// Appends the next part.
    pub fn push(&mut self, part: Vec<f32>) {
        let mut carry = part;
        for l in 0.. {
            if l == self.levels.len() {
                self.levels.push(None);
            }
            match self.levels[l].take() {
                Some(left) => carry = self.combine(left, carry),
                None => {
                    self.levels[l] = Some(carry);
                    return;
                }
            }
        }
    }

    /// The sum of everything pushed (`None` if nothing was) and the
    /// spare buffers. The runs still waiting collapse right to left —
    /// the shortest, rightmost run is the odd tail each level of the
    /// list form carries up until a left neighbour takes it.
    pub fn finish(mut self) -> (Option<Vec<f32>>, Vec<Vec<f32>>) {
        let mut sum: Option<Vec<f32>> = None;
        for left in std::mem::take(&mut self.levels).into_iter().flatten() {
            sum = Some(match sum {
                Some(right) => self.combine(left, right),
                None => left,
            });
        }
        (sum, self.spare)
    }
}

/// Balanced pairwise-tree elementwise sum of equal-length vectors; an
/// odd tail carries up a level unchanged. ([`TreeSum`] fed from a list.)
///
/// This is the association `all_reduce_sum` / `reduce_scatter_sum_shared` use
/// to combine rank contributions, exported so workers can sum per-row
/// gradients the same way: for a power-of-two global row count split
/// into equal power-of-two chunks, local-tree + rank-tree composes into
/// the single-rank global tree, which is what makes DP gradient
/// reductions bit-identical across layouts (the hf-audit contract).
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn tree_sum_parts(parts: Vec<Vec<f32>>) -> Vec<f32> {
    let mut tree = TreeSum::default();
    for part in parts {
        tree.push(part);
    }
    tree.finish().0.expect("tree_sum_parts of no parts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn harness(n: usize) -> (CommGroup, Arc<ClusterSpec>, CommCostModel) {
        let group = CommGroup::new((0..n).map(DeviceId).collect());
        let cluster = Arc::new(ClusterSpec::a100_cluster(n.div_ceil(8)));
        (group, cluster, CommCostModel::default())
    }

    fn run_ranks<F, R>(n: usize, f: F) -> Vec<R>
    where
        F: Fn(usize, Communicator) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        let (group, cluster, cost) = harness(n);
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let comm = Communicator::new(group.clone(), r, cluster.clone(), cost.clone());
                let f = f.clone();
                thread::spawn(move || f(r, comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let outs = run_ranks(4, |r, comm| {
            let mut clock = VirtualClock::new();
            comm.all_gather(&mut clock, &[r as f32, r as f32 + 0.5])
        });
        for out in outs {
            assert_eq!(out, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]);
        }
    }

    #[test]
    fn all_reduce_sums_elementwise() {
        let outs = run_ranks(4, |r, comm| {
            let mut clock = VirtualClock::new();
            comm.all_reduce_sum(&mut clock, &[r as f32, 1.0])
        });
        for out in outs {
            assert_eq!(out, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_chunk() {
        let outs = run_ranks(2, |_, comm| {
            let mut clock = VirtualClock::new();
            let part = vec![1.0, 2.0, 3.0, 4.0];
            comm.reduce_scatter_sum_shared(&mut clock, part, &RowPool::default()).to_vec()
        });
        assert_eq!(outs[0], vec![2.0, 4.0]);
        assert_eq!(outs[1], vec![6.0, 8.0]);
    }

    #[test]
    fn clocks_synchronize_to_slowest_rank() {
        let outs = run_ranks(4, |r, comm| {
            let mut clock = VirtualClock::new();
            clock.advance(r as f64); // rank 3 is slowest at t=3
            comm.barrier(&mut clock);
            clock.now()
        });
        for t in outs {
            assert!(t >= 3.0, "clock {t} must reach the slowest rank");
        }
    }

    #[test]
    fn group_supports_repeated_rounds() {
        let outs = run_ranks(3, |r, comm| {
            let mut clock = VirtualClock::new();
            let mut acc = 0.0;
            for round in 0..50 {
                let s = comm.all_reduce_sum(&mut clock, &[(r + round) as f32]);
                acc += s[0];
            }
            acc
        });
        // Each round sums to 3*round + 3; total = sum_{0..50} (3 round + 3).
        let expect: f32 = (0..50).map(|x| 3.0 * x as f32 + 3.0).sum();
        for o in outs {
            assert!((o - expect).abs() < 1e-3);
        }
    }

    /// Rank `r`'s contribution to the fold-once tests: unequal magnitudes
    /// so a different float association would change the sum's bits.
    fn contribution(r: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((r * 31 + i * 7) as f32 * 0.37).sin() * 10f32.powi(r as i32 % 5))
            .collect()
    }

    #[test]
    fn folded_collectives_match_the_per_member_computation_bit_for_bit() {
        // What every member used to compute for itself — the tree sum of
        // all contributions in rank order, the concatenation, and a clock
        // at `latest arrival + cost` — is the reference; odd sizes
        // exercise the tree's carried tail.
        for n in [1usize, 2, 3, 4, 5, 8] {
            let len = 4 * n;
            let outs = run_ranks(n, move |r, comm| {
                let mut clocks = [VirtualClock::new(); 3];
                for c in clocks.iter_mut() {
                    c.advance(0.25 * (r + 1) as f64);
                }
                let mine = contribution(r, len);
                let ar = comm.all_reduce_sum(&mut clocks[0], &mine);
                let rows = RowPool::default();
                let rs = comm.reduce_scatter_sum_shared(&mut clocks[1], mine.clone(), &rows);
                let rs = rs.to_vec();
                let ag = comm.all_gather(&mut clocks[2], &mine);
                (ar, rs, ag, clocks.map(|c| c.now()))
            });
            let (group, cluster, cost) = harness(n);
            let parts: Vec<Vec<f32>> = (0..n).map(|r| contribution(r, len)).collect();
            let sum = tree_sum_parts(parts.clone());
            let start = 0.25 * n as f64;
            let time = |kind, bytes: usize| {
                cost.collective_time(&cluster, group.devices(), kind, bytes as f64)
            };
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (r, (ar, rs, ag, clocks)) in outs.into_iter().enumerate() {
                assert_eq!(bits(&ar), bits(&sum), "all_reduce n={n} rank {r}");
                let chunk = len / n;
                assert_eq!(bits(&rs), bits(&sum[r * chunk..(r + 1) * chunk]), "reduce_scatter");
                assert_eq!(bits(&ag), bits(&parts.concat()), "all_gather n={n} rank {r}");
                let expect = [
                    start + time(CollectiveKind::AllReduce, len * 4),
                    start + time(CollectiveKind::ReduceScatter, len * 4),
                    start + time(CollectiveKind::AllGather, n * len * 4),
                ];
                assert_eq!(clocks.map(f64::to_bits), expect.map(f64::to_bits), "clocks n={n}");
            }
        }
    }

    /// The list form `tree_sum_parts` had before it became [`TreeSum`]
    /// fed from a list: neighbours pairwise, level by level.
    fn level_by_level(mut parts: Vec<Vec<f32>>) -> Vec<f32> {
        while parts.len() > 1 {
            let mut next = Vec::with_capacity(parts.len().div_ceil(2));
            let mut it = parts.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    for (x, y) in a.iter_mut().zip(b.iter()) {
                        *x += y;
                    }
                }
                next.push(a);
            }
            parts = next;
        }
        parts.pop().expect("one part remains")
    }

    #[test]
    fn streaming_tree_sum_matches_the_level_by_level_tree_bit_for_bit() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7ee5);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1usize..=64 {
            // Magnitudes far apart, so another association rounds
            // differently; signed zeros, so a dropped or doubled part shows.
            let parts: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..37)
                        .map(|_| match rng.random_range(0u32..8) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => (rng.random::<f32>() - 0.5) * 10f32.powi(rng.random_range(-3..4)),
                        })
                        .collect()
                })
                .collect();
            let expect = level_by_level(parts.clone());
            assert_eq!(bits(&tree_sum_parts(parts.clone())), bits(&expect), "n = {n}");

            // Fed one part at a time through recycled buffers.
            let bound = n.next_power_of_two().trailing_zeros() as usize + 1;
            let (mut tree, rows) = (TreeSum::default(), RowPool::default());
            for part in &parts {
                let mut buf = tree.buffer(part.len(), &rows);
                buf.copy_from_slice(part);
                tree.push(buf);
                assert!(tree.held() <= bound, "n = {n}: {} buffers held", tree.held());
            }
            let (sum, spare) = tree.finish();
            assert_eq!(bits(&sum.expect("n >= 1")), bits(&expect), "streamed, n = {n}");
            assert!(
                spare.len() < bound,
                "n = {n}: {} buffers were ever allocated",
                spare.len() + 1
            );
        }
        assert_eq!(TreeSum::default().finish().0, None);
    }

    #[test]
    fn shared_parts_reduce_to_one_buffer_and_ragged_chunks() {
        // Parts handed over by value, one of them shared with another
        // holder; 10 values over 4 ranks scatter as 3 + 3 + 3 + 1.
        let outs = run_ranks(4, |r, comm| {
            let mut clocks = [VirtualClock::new(); 2];
            let part: Arc<Vec<f32>> = Arc::new(contribution(r, 10));
            let keep = part.clone();
            let rows = RowPool::default();
            let all = comm.all_reduce_sum_shared(&mut clocks[0], ArcPart(part), &rows);
            let mine = comm.reduce_scatter_sum_shared(&mut clocks[1], contribution(r, 10), &rows);
            assert_eq!(*keep, contribution(r, 10), "a shared part is only read");
            (all.to_vec(), mine.to_vec(), clocks.map(|c| c.now()))
        });
        let sum = tree_sum_parts((0..4).map(|r| contribution(r, 10)).collect());
        let (group, cluster, cost) = harness(4);
        let time = |kind, bytes: usize| {
            cost.collective_time(&cluster, group.devices(), kind, bytes as f64)
        };
        for (r, (all, mine, clocks)) in outs.into_iter().enumerate() {
            assert_eq!(all, sum);
            assert_eq!(mine, sum[(3 * r).min(10)..(3 * r + 3).min(10)]);
            // Charged as the padded 4 × 3 values would be.
            let expect =
                [time(CollectiveKind::AllReduce, 40), time(CollectiveKind::ReduceScatter, 48)];
            assert_eq!(clocks.map(f64::to_bits), expect.map(f64::to_bits));
        }
    }

    struct ArcPart(Arc<Vec<f32>>);

    impl AsRef<[f32]> for ArcPart {
        fn as_ref(&self) -> &[f32] {
            &self.0
        }
    }

    impl SumPart for ArcPart {
        fn release(self) -> Option<Vec<f32>> {
            Arc::into_inner(self.0)
        }
    }

    #[test]
    fn a_round_whose_buffers_come_from_the_list_gives_them_all_back() {
        // Five members share one list; each part is shared, so every
        // pair's sum (and the odd tail's copy) needs a buffer of its own,
        // and is taken from the list. The first pair's sum is the only
        // new one: the later ones reuse the parts released before them.
        // Six buffers, and a second round reuses them.
        let rows = RowPool::default();
        let per_round = {
            let rows = rows.clone();
            run_ranks(5, move |r, comm| {
                let mut clock = VirtualClock::new();
                let mut out = Vec::new();
                for round in 0..2 {
                    let mut part = rows.take(6);
                    part.copy_from_slice(&contribution(r + round, 6));
                    let sum =
                        comm.all_reduce_sum_shared(&mut clock, ArcPart(Arc::new(part)), &rows);
                    out.push(sum.to_vec());
                    rows.give(sum.into_buffer());
                    comm.barrier(&mut clock);
                    out.push(vec![rows.free(6) as f32]);
                    comm.barrier(&mut clock);
                }
                out
            })
        };
        for round in 0..2 {
            let sum = tree_sum_parts((0..5).map(|r| contribution(r + round, 6)).collect());
            for out in &per_round {
                assert_eq!(out[2 * round], sum, "round {round}");
                assert_eq!(out[2 * round + 1], [6.0], "round {round}: buffers in the list");
            }
        }
    }

    #[test]
    fn fold_runs_once_per_round_whatever_the_group_size() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n in [1usize, 2, 5, 8] {
            let folds = Arc::new(AtomicUsize::new(0));
            let group = CommGroup::new((0..n).map(DeviceId).collect());
            let handles: Vec<_> = (0..n)
                .map(|r| {
                    let (group, folds) = (group.clone(), folds.clone());
                    thread::spawn(move || {
                        (0..10usize)
                            .map(|round| {
                                *group.exchange_fold(r, r + round, |all| {
                                    folds.fetch_add(1, Ordering::SeqCst);
                                    all.into_iter().sum::<usize>()
                                })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let expect: Vec<usize> = (0..10).map(|round| n * round + n * (n - 1) / 2).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expect);
            }
            assert_eq!(folds.load(Ordering::SeqCst), 10, "one fold per round, n={n}");
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the watchdog stays outside the layer under test
    fn panicking_fold_aborts_every_member() {
        // Whoever arrives last runs the fold; its panic must reach all
        // members as the same CollectiveAbort, not strand the waiters.
        let n = 4;
        let group = CommGroup::new((0..n).map(DeviceId).collect());
        let (tx, rx) = std::sync::mpsc::channel();
        for r in 0..n {
            let (group, tx) = (group.clone(), tx.clone());
            thread::spawn(move || {
                let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    group.exchange_fold(r, r, |_| -> usize { panic!("fold blew up") })
                }));
                let _ = tx.send(res.map(|_| ()));
            });
        }
        for _ in 0..n {
            let res = rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("a member is stranded in the rendezvous");
            let payload = res.expect_err("every member must unwind");
            let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort");
            assert!(abort.reason.contains("fold blew up"), "{}", abort.reason);
        }
        assert!(group.poisoned().is_some_and(|r| r.contains("fold blew up")));
    }

    #[test]
    fn poison_unblocks_waiters_with_collective_abort() {
        // Two members enter the rendezvous and block (their peer never
        // arrives); poisoning the group must wake both with a
        // CollectiveAbort payload instead of leaving them blocked
        // forever — the first already parked on the futex, the second
        // still yielding in its spin phase, or parked as well.
        let group = CommGroup::new(vec![DeviceId(0), DeviceId(1), DeviceId(2)]);
        let enter = |rank: usize| {
            let g = group.clone();
            thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    g.exchange(rank, 1.0f32);
                }))
            })
        };
        let parked = enter(0);
        let start = std::time::Instant::now();
        while group.inner.cv.parked() == 0 {
            assert!(start.elapsed().as_secs() < 30, "rank 0 never parked");
            thread::yield_now();
        }
        let spinning = enter(1);
        group.poison("rank 2 died");
        for waiter in [parked, spinning] {
            let payload = waiter.join().unwrap().expect_err("waiter must unwind");
            let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
            assert!(abort.reason.contains("rank 2 died"));
        }
        assert_eq!(group.poisoned().as_deref(), Some("rank 2 died"));
        assert_eq!(group.inner.cv.parked(), 0);
    }

    #[test]
    fn poison_wakes_a_rank_blocked_in_recv_from() {
        // A pipeline stage waits for activations its predecessor will
        // never send; poisoning the pipeline group must release it as it
        // releases a collective — and a later send aborts as well.
        let (group, cluster, cost) = harness(2);
        let receiver = Communicator::new(group.clone(), 1, cluster.clone(), cost.clone());
        let waiter = thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                receiver.recv_from::<u32>(&mut VirtualClock::new(), 0)
            }))
        });
        // Give the receiver time to block on the empty link.
        thread::sleep(std::time::Duration::from_millis(30));
        group.poison("stage 0 killed");
        let payload = waiter.join().unwrap().expect_err("receiver must unwind");
        let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
        assert_eq!(abort.reason, "stage 0 killed");
        let sender = Communicator::new(group, 0, cluster, cost);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sender.send_to(&VirtualClock::new(), 1, 7u32, 4.0)
        }));
        let payload = res.expect_err("a send on a poisoned group must abort");
        assert!(payload.downcast_ref::<CollectiveAbort>().is_some());
    }

    #[test]
    fn poisoned_group_aborts_future_exchanges_immediately() {
        let group = CommGroup::new(vec![DeviceId(0), DeviceId(1)]);
        group.poison("injected kill");
        group.poison("second reason is ignored");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            group.exchange(1, 7u32);
        }));
        let payload = res.expect_err("exchange on a poisoned group must abort");
        let abort = payload.downcast_ref::<CollectiveAbort>().expect("CollectiveAbort payload");
        assert_eq!(abort.reason, "injected kill");
    }
}

#[cfg(test)]
mod p2p_tests {
    use super::*;
    use std::thread;

    /// Ranks 0 and 1 of one group over `devices` on `machines` machines.
    fn pair(machines: usize, devices: [usize; 2]) -> [Communicator; 2] {
        let group = CommGroup::new(devices.map(DeviceId).to_vec());
        let cluster = Arc::new(ClusterSpec::a100_cluster(machines));
        [0, 1]
            .map(|r| Communicator::new(group.clone(), r, cluster.clone(), CommCostModel::default()))
    }

    #[test]
    fn p2p_transfers_value_and_time() {
        let [tx, rx] = pair(2, [0, 8]);
        let sender = thread::spawn(move || {
            let mut clock = VirtualClock::new();
            clock.advance(1.0);
            tx.send_to(&clock, 1, vec![42.0f32], 4.0e9);
        });
        let mut clock = VirtualClock::new();
        let v: Vec<f32> = rx.recv_from(&mut clock, 0);
        sender.join().unwrap();
        assert_eq!(v, vec![42.0]);
        // It arrives after the cross-machine hop the cost model prices.
        let cluster = ClusterSpec::a100_cluster(2);
        let hop = CommCostModel::default().p2p_time(&cluster, DeviceId(0), DeviceId(8), 4.0e9);
        assert!(hop > 0.0);
        assert_eq!(clock.now().to_bits(), (1.0 + hop).to_bits());
    }

    #[test]
    fn p2p_messages_preserve_fifo_order_per_link() {
        let [tx, rx] = pair(1, [0, 1]);
        let sender = thread::spawn(move || {
            let mut clock = VirtualClock::new();
            for i in 0..20u32 {
                clock.advance(0.1);
                tx.send_to(&clock, 1, i, 1024.0);
            }
            tx.rounds()
        });
        let mut clock = VirtualClock::new();
        for expect in 0..20u32 {
            let got: u32 = rx.recv_from(&mut clock, 0);
            assert_eq!(got, expect, "FIFO order per link");
        }
        // Hand-offs are not collective rounds: the tags stay put.
        assert_eq!((sender.join().unwrap(), rx.rounds()), (0, 0));
        // Arrival times are monotone, so the receiver's clock advanced to
        // at least the last send time.
        assert!(clock.now() >= 2.0);
    }

    #[test]
    fn p2p_links_are_independent() {
        let [c0, c1] = pair(1, [0, 1]);
        let clock = VirtualClock::new();
        c0.send_to(&clock, 1, "a", 8.0);
        c1.send_to(&clock, 0, "b", 8.0);
        let b: &str = c0.recv_from(&mut VirtualClock::new(), 1);
        let a: &str = c1.recv_from(&mut VirtualClock::new(), 0);
        assert_eq!((a, b), ("a", "b"));
    }

    #[test]
    fn groups_on_the_same_devices_keep_their_hand_offs_apart() {
        // Colocated models have a pipeline group each over the same two
        // devices: a message one never received must not reach the other,
        // as it would over one link per device pair shared by both.
        let [actor0, _actor1] = pair(1, [0, 2]);
        let [critic0, critic1] = pair(1, [0, 2]);
        let clock = VirtualClock::new();
        actor0.send_to(&clock, 1, 88usize, 8.0);
        critic0.send_to(&clock, 1, 96usize, 8.0);
        assert_eq!(critic1.recv_from::<usize>(&mut VirtualClock::new(), 0), 96);
    }
}
