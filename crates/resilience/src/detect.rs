//! Failure detection and recovery bookkeeping.
//!
//! Detection has three signals, all surfaced by `hf-core`:
//!
//! 1. **Collective abort** — a dead rank poisons its communicators, so
//!    surviving peers return [`CoreError::PeerFailed`] instead of
//!    deadlocking; the dead rank itself reports `WorkerPanicked`.
//! 2. **Deadlines** — `DpFuture::wait` under a
//!    [`hf_core::CallPolicy`] deadline turns any unbounded stall into
//!    [`CoreError::Timeout`].
//! 3. **Heartbeats** — [`probe_cluster`] pings every device mailbox and
//!    reports which device threads still drain messages.
//!
//! [`classify`] maps an error to the recovery action it warrants;
//! [`RecoveryStats`] accumulates MTTR and rollback losses and exports
//! them as `resilience.*` gauges.

use std::time::Duration;

use hf_core::{Controller, CoreError, DeviceHealth};
use hf_telemetry::Telemetry;

/// What a failure means for the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Retry the same call against the same worker group.
    Transient,
    /// A rank is gone (panic, injected kill, poisoned collective):
    /// respawn the group and restore a checkpoint.
    RankLoss,
    /// A deadline elapsed; treat like rank loss (the stalled rank's
    /// state is unknown).
    Timeout,
    /// An application-level error; recovery will not help.
    Application,
}

/// Classifies `err` into the recovery action it warrants.
pub fn classify(err: &CoreError) -> FailureKind {
    match err {
        CoreError::Transient(_) => FailureKind::Transient,
        CoreError::PeerFailed(_) | CoreError::WorkerPanicked(_) | CoreError::Disconnected(_) => {
            FailureKind::RankLoss
        }
        CoreError::Timeout(_) => FailureKind::Timeout,
        CoreError::Data(_)
        | CoreError::Worker(_)
        | CoreError::Config(_)
        | CoreError::Invariant(_) => FailureKind::Application,
    }
}

/// Aggregate heartbeat view of the cluster's device threads.
#[derive(Debug, Clone)]
pub struct ClusterHealth {
    /// Per-device probe results, sorted by device index.
    pub devices: Vec<DeviceHealth>,
    /// Number of devices that replied within the deadline.
    pub alive: usize,
}

/// Heartbeat-probes every device thread of `ctrl` (wall-clock
/// `deadline` per reply).
pub fn probe_cluster(ctrl: &Controller, deadline: Duration) -> ClusterHealth {
    let devices = ctrl.probe_devices(deadline);
    let alive = devices.iter().filter(|h| h.alive).count();
    ClusterHealth { devices, alive }
}

/// Recovery bookkeeping across a training run: failures observed,
/// recoveries completed, mean time to recovery, and virtual time lost
/// to rollback (work discarded plus restore cost).
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// Failures the outer loop observed.
    pub failures: u64,
    /// Successful checkpoint recoveries.
    pub recoveries: u64,
    /// Per-recovery time-to-recover, virtual seconds (failure detected
    /// to training resumed).
    pub mttr_s: Vec<f64>,
    /// Virtual seconds of discarded work plus restore cost.
    pub virtual_time_lost: f64,
    /// Virtual seconds spent inside interrupted checkpoint writes (the
    /// tmp+rename window) — checkpoint overhead wasted by a fault, *not*
    /// discarded training work, so accounted apart from
    /// `virtual_time_lost`.
    pub checkpoint_window_lost_s: f64,
    /// Per-remap mapping-search decision time, virtual-run wall seconds.
    pub remap_search_s: Vec<f64>,
    /// Per-remap live-reshard (restore broadcast) time, virtual seconds.
    pub remap_reshard_s: Vec<f64>,
}

impl RecoveryStats {
    /// Fresh, empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observed failure.
    pub fn record_failure(&mut self) {
        self.failures += 1;
    }

    /// Records a completed recovery: `mttr_s` from detection to resumed
    /// training, `lost_s` of discarded virtual work.
    pub fn record_recovery(&mut self, mttr_s: f64, lost_s: f64) {
        self.recoveries += 1;
        self.mttr_s.push(mttr_s);
        self.virtual_time_lost += lost_s;
    }

    /// Records virtual time a fault burned inside a checkpoint write
    /// that never committed.
    pub fn record_checkpoint_window(&mut self, window_s: f64) {
        self.checkpoint_window_lost_s += window_s;
    }

    /// Records one elastic remap's attribution: `search_s` deciding the
    /// new mapping, `reshard_s` broadcasting state into it. Both are
    /// *components of* the corresponding `record_recovery` MTTR, kept
    /// separately so remap decision cost and reshard cost stay visible.
    pub fn record_remap(&mut self, search_s: f64, reshard_s: f64) {
        self.remap_search_s.push(search_s);
        self.remap_reshard_s.push(reshard_s);
    }

    /// Mean time to recovery (virtual seconds), 0 if none.
    pub fn mean_mttr_s(&self) -> f64 {
        if self.mttr_s.is_empty() {
            0.0
        } else {
            self.mttr_s.iter().sum::<f64>() / self.mttr_s.len() as f64
        }
    }

    /// Exports the stats as `resilience.*` counters and gauges.
    pub fn export(&self, telemetry: &Telemetry) {
        telemetry.set_gauge("resilience.mttr_s", self.mean_mttr_s());
        telemetry.set_gauge("resilience.rollback_lost_s", self.virtual_time_lost);
        telemetry.set_gauge("resilience.ckpt_window_lost_s", self.checkpoint_window_lost_s);
        if !self.remap_search_s.is_empty() {
            telemetry
                .set_gauge("resilience.remap_search_s", self.remap_search_s.iter().sum::<f64>());
            telemetry
                .set_gauge("resilience.remap_reshard_s", self.remap_reshard_s.iter().sum::<f64>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_variant() {
        assert_eq!(classify(&CoreError::Transient("x".into())), FailureKind::Transient);
        assert_eq!(classify(&CoreError::PeerFailed("x".into())), FailureKind::RankLoss);
        assert_eq!(classify(&CoreError::WorkerPanicked("x".into())), FailureKind::RankLoss);
        assert_eq!(classify(&CoreError::Disconnected("x".into())), FailureKind::RankLoss);
        assert_eq!(classify(&CoreError::Timeout("x".into())), FailureKind::Timeout);
        assert_eq!(classify(&CoreError::Worker("x".into())), FailureKind::Application);
        assert_eq!(classify(&CoreError::Data("x".into())), FailureKind::Application);
        assert_eq!(classify(&CoreError::Config("x".into())), FailureKind::Application);
    }

    #[test]
    fn stats_track_mttr_and_losses() {
        let mut s = RecoveryStats::new();
        s.record_failure();
        s.record_recovery(2.0, 5.0);
        s.record_failure();
        s.record_recovery(4.0, 7.0);
        assert_eq!(s.failures, 2);
        assert_eq!(s.recoveries, 2);
        assert!((s.mean_mttr_s() - 3.0).abs() < 1e-12);
        assert!((s.virtual_time_lost - 12.0).abs() < 1e-12);
        let t = Telemetry::enabled();
        s.export(&t);
        assert_eq!(t.gauge("resilience.mttr_s"), Some(3.0));
        assert_eq!(t.gauge("resilience.rollback_lost_s"), Some(12.0));
    }
}
