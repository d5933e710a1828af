//! Error types for the hybrid programming model.

use std::fmt;

/// Errors surfaced to the single controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Malformed or mismatched `DataProto` contents.
    Data(String),
    /// A worker method returned an application error.
    Worker(String),
    /// A worker panicked; the panic payload is captured, the device
    /// thread keeps serving other workers.
    WorkerPanicked(String),
    /// A surviving rank aborted out of a rendezvous collective because a
    /// peer died (the group's communicator was poisoned). The rank
    /// itself is healthy; its worker group needs respawning.
    PeerFailed(String),
    /// A per-call deadline elapsed before every rank replied.
    Timeout(String),
    /// A transient dispatch-path fault (a dropped RPC); the
    /// call may be retried against the same worker group.
    Transient(String),
    /// The runtime or a channel was shut down mid-call.
    Disconnected(String),
    /// Invalid configuration (overlapping pools, bad layout, ...).
    Config(String),
    /// A runtime invariant was violated (inconsistent group families,
    /// audit-detected state corruption). Reported to the controller
    /// instead of aborting it, so an audit run can collect the finding.
    Invariant(String),
}

impl CoreError {
    /// Whether retrying the same call against the same worker group can
    /// succeed (dispatch-path faults), as opposed to failures that
    /// require recovery (dead ranks, poisoned communicators).
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, CoreError::Transient(_))
    }

    /// Whether the failure is the application's own (bad data, a worker
    /// error, a bad configuration, a violated invariant), as opposed to a
    /// lost or stalled rank: replaying the call would fail identically, so
    /// recovery does not help.
    pub fn is_application(&self) -> bool {
        matches!(
            self,
            CoreError::Data(_)
                | CoreError::Worker(_)
                | CoreError::Config(_)
                | CoreError::Invariant(_)
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Data(m) => write!(f, "data error: {m}"),
            CoreError::Worker(m) => write!(f, "worker error: {m}"),
            CoreError::WorkerPanicked(m) => write!(f, "worker panicked: {m}"),
            CoreError::PeerFailed(m) => write!(f, "peer failed: {m}"),
            CoreError::Timeout(m) => write!(f, "deadline exceeded: {m}"),
            CoreError::Transient(m) => write!(f, "transient fault: {m}"),
            CoreError::Disconnected(m) => write!(f, "disconnected: {m}"),
            CoreError::Config(m) => write!(f, "config error: {m}"),
            CoreError::Invariant(m) => write!(f, "invariant violated: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The action the recovery loop takes on `e`.
    fn action(e: CoreError) -> &'static str {
        match (e.is_transient(), e.is_application()) {
            (true, false) => "retry",
            (false, true) => "propagate",
            (false, false) => "recover",
            (true, true) => unreachable!("{e:?} is both transient and the application's"),
        }
    }

    #[test]
    fn classification_covers_every_variant() {
        assert_eq!(action(CoreError::Transient("x".into())), "retry");
        assert_eq!(action(CoreError::PeerFailed("x".into())), "recover");
        assert_eq!(action(CoreError::WorkerPanicked("x".into())), "recover");
        assert_eq!(action(CoreError::Disconnected("x".into())), "recover");
        assert_eq!(action(CoreError::Timeout("x".into())), "recover");
        assert_eq!(action(CoreError::Worker("x".into())), "propagate");
        assert_eq!(action(CoreError::Data("x".into())), "propagate");
        assert_eq!(action(CoreError::Config("x".into())), "propagate");
        assert_eq!(action(CoreError::Invariant("x".into())), "propagate");
    }
}
