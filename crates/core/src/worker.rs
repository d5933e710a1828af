//! The multi-controller worker side: the [`Worker`] trait model classes
//! implement, and the per-rank context (parallel-group communicators,
//! virtual clock, device identity).
//!
//! In the paper each `ParallelWorker` constructs 3D parallel groups on
//! its allocated devices and runs SPMD computation under its own
//! controller (§4.1). Here each simulated device is an OS thread; a
//! rank's [`RankCtx`] carries [`hf_simcluster::Communicator`] handles
//! for its TP / PP / DP / model-parallel groups and, for a generating
//! actor, the 3D-HybridEngine's gather group, backed by the rendezvous
//! virtual NCCL. Pipeline stages hand activations over
//! on their PP communicator ([`hf_simcluster::Communicator::send_to`]),
//! so [`CommSet::poison_all`] releases a stage waiting on a dead one.

use hf_parallel::TrainCoord;
use hf_simcluster::{Communicator, DeviceId, RowPool, VirtualClock};
use hf_telemetry::Telemetry;

use crate::data::DataProto;
use crate::error::Result;
use crate::protocol::WorkerLayout;

/// The communicators a rank participates in.
pub struct CommSet {
    /// The whole worker group.
    pub world: Communicator,
    /// This rank's tensor-parallel group.
    pub tp: Communicator,
    /// This rank's pipeline-parallel group.
    pub pp: Communicator,
    /// This rank's data-parallel group.
    pub dp: Communicator,
    /// This rank's model-parallel group (one full replica).
    pub mp: Communicator,
    /// This rank's 3D-HybridEngine gather group, for a layout with a
    /// generation grouping: [`hf_parallel::GenGrouping::gather_group`],
    /// its micro data-parallel group under the strided method and its
    /// model-parallel group's ranks under the vanilla one.
    pub gather: Option<Communicator>,
}

impl CommSet {
    /// Poisons every group this rank belongs to, so peers blocked in (or
    /// later entering) a rendezvous with it unwind with a collective
    /// abort instead of waiting forever. Aborted peers poison their own
    /// sets in turn, so the abort cascades transitively through shared
    /// group membership — no surviving rank can deadlock on a chain of
    /// failed ranks.
    pub fn poison_all(&self, reason: &str) {
        self.world.group().poison(reason);
        self.tp.group().poison(reason);
        self.pp.group().poison(reason);
        self.dp.group().poison(reason);
        self.mp.group().poison(reason);
        if let Some(g) = &self.gather {
            g.group().poison(reason);
        }
    }
}

/// Per-rank execution context handed to [`Worker::execute`].
pub struct RankCtx {
    /// Rank within the worker group (0-based).
    pub rank: usize,
    /// The group's parallel layout.
    pub layout: WorkerLayout,
    /// The simulated device hosting this rank.
    pub device: DeviceId,
    /// Parallel-group communicators.
    pub comms: CommSet,
    /// The controller's one free list of gradient rows, shared by every
    /// rank it spawns: what a worker's gradient buffers are taken from
    /// and given back to, so a steady-state update allocates none.
    pub rows: RowPool,
    /// The virtual clock of the [`Lane`] the worker runs on: the GPU's,
    /// shared by the device's colocated workers, or its node's host
    /// CPUs'. The device thread syncs it in and out around each call.
    pub clock: VirtualClock,
    /// Telemetry handle (shared with the controller; disabled by
    /// default, in which case every record call returns at once — build
    /// span names and args under [`Telemetry::is_enabled`] so a disabled
    /// handle costs a branch, not their strings).
    pub telemetry: Telemetry,
    /// Causal-graph id of the controller dispatch span that triggered
    /// the call currently executing on this rank (0 when telemetry is
    /// disabled). Worker-recorded spans cite it as a cause so the trace
    /// links controller dispatches to rank-side work.
    pub cause: u64,
    /// Virtual time the call currently executing on this rank arrived
    /// at it: the controller's dispatch plus the RPC latency (and any
    /// injected delay). When the device was busy past this instant, or
    /// the call waited for its input, `dispatch_time < clock.now()` —
    /// the gap is queue wait, which a worker may treat as time the
    /// call's background work already ran: the RLHF actor charges every
    /// train→generation weight all-gather from here, so a rank idle at
    /// arrival pays it in full and a busy one hides part of it.
    pub dispatch_time: f64,
}

impl RankCtx {
    /// Training-grid coordinates of this rank.
    pub fn coords(&self) -> TrainCoord {
        self.layout.spec.coords(self.rank)
    }

    /// Charges `seconds` of simulated compute to this rank's clock.
    pub fn charge(&mut self, seconds: f64) {
        self.clock.advance(seconds);
    }

    /// Telemetry track name of this rank's device.
    pub fn gpu_track(&self) -> String {
        hf_telemetry::gpu_track(self.device.index())
    }
}

/// Where a worker's calls run, and so which virtual clock they are
/// charged on. Each device thread keeps one clock per lane, and a call's
/// future sync, dispatch sync, pull, `QueueWait` span and fault-hook
/// instant all use its lane's clock; host-lane spans go on `cpu-<n>`, so
/// no two Exec spans overlap on `gpu-<n>`. The mailbox does not split: a
/// host-lane call still runs after every call queued before it on its
/// device thread, and a killed host-lane rank is a loss of its device
/// that poisons its groups. Only the verifier pool (`hf-rlhf`'s
/// `RewardEvaluatorWorker`, the role the mapper calls CPU-bound) runs on
/// the host lane today.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The GPU: every device-lane worker registered on the device
    /// time-shares it in mailbox order.
    Device,
    /// The host CPUs of the GPU's node (a programmatic verifier pool): a
    /// call still runs in mailbox order, but on its own clock, so in
    /// virtual time it overlaps the GPU work queued around it.
    Host,
}

/// A model worker: one SPMD program replicated across a worker group's
/// ranks.
///
/// Implementations must be deterministic given `(method, data, rank)` so
/// functional runs are reproducible. Methods that participate in
/// collectives must do so on *every* rank of the relevant group, in the
/// same order (the usual SPMD contract) — the runtime executes all ranks
/// of a call concurrently, one per device thread.
pub trait Worker: Send {
    /// Executes `method` on this rank's chunk of the batch.
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto>;

    /// Where this worker's calls run; read once, when the rank registers.
    fn lane(&self) -> Lane {
        Lane::Device
    }
}

impl<F> Worker for F
where
    F: FnMut(&str, DataProto, &mut RankCtx) -> Result<DataProto> + Send,
{
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        self(method, data, ctx)
    }
}
