//! Recovery bookkeeping.
//!
//! A failure reaches the recovery loop as the [`hf_core::CoreError`] of a
//! failed call: a dead rank poisons its communicators, so surviving peers
//! return `PeerFailed` instead of deadlocking, and a
//! [`hf_core::CallPolicy`] deadline turns any unbounded stall into
//! `Timeout`. [`CoreError::is_transient`](hf_core::CoreError::is_transient)
//! and [`CoreError::is_application`](hf_core::CoreError::is_application)
//! say whether to retry, propagate, or recover.
//! [`RecoveryStats`] accumulates MTTR and rollback losses and exports
//! them as `resilience.*` gauges.

use hf_telemetry::Telemetry;

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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
