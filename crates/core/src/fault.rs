//! Fault-injection hook points for the hybrid runtime.
//!
//! The runtime itself stays fault-agnostic: device threads consult an
//! optional [`FaultHook`] before executing a dispatched RPC
//! ([`FaultHook::on_execute`]) and apply whatever directives come back. Deterministic fault *plans* (seeded scenarios that fire at
//! a virtual time or on the N-th call of a method) live in
//! `hf-resilience`, which implements this trait; tests can implement it
//! directly for one-off scenarios.

/// Where an RPC is about to execute: enough identity for a plan to
/// target "rank R of group G, on its N-th `update_actor` call, after
/// virtual time T".
#[derive(Debug, Clone)]
pub struct ExecSite<'a> {
    /// Global device index hosting the rank.
    pub device: usize,
    /// Worker-group name the RPC targets.
    pub group: &'a str,
    /// Rank within the worker group.
    pub rank: usize,
    /// Method being dispatched.
    pub method: &'a str,
    /// 1-based count of this `(group, method, rank)` dispatch.
    pub call_index: u64,
    /// Virtual time at which the RPC would start executing.
    pub now: f64,
}

/// Directives applied to one RPC execution. Combine freely; `kill`
/// takes precedence over `drop_rpc`, which takes precedence over
/// `delay_s`.
#[derive(Debug, Clone)]
pub struct ExecFault {
    /// Kill the rank: poison its communicators, mark it dead, and fail
    /// this and every later RPC to it with the given reason.
    pub kill: Option<String>,
    /// Drop the RPC without executing it (a transient fault; the
    /// dispatch path may retry).
    pub drop_rpc: bool,
    /// Extra virtual seconds of delivery latency before execution.
    pub delay_s: f64,
}

impl ExecFault {
    /// No fault: the RPC executes normally.
    pub fn none() -> Self {
        ExecFault { kill: None, drop_rpc: false, delay_s: 0.0 }
    }
}

impl Default for ExecFault {
    fn default() -> Self {
        Self::none()
    }
}

/// A fault-injection policy consulted by every device thread. Must be
/// cheap and thread-safe; the runtime calls it on the hot dispatch path
/// for every RPC.
pub trait FaultHook: Send + Sync {
    /// Consulted immediately before an RPC executes on a device thread.
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        let _ = site;
        ExecFault::none()
    }
}
