//! Deterministic fault plans and their injector.
//!
//! A [`FaultPlan`] is data: a list of [`FaultSpec`]s saying *what* fails
//! and *when* (at a virtual time, or on the N-th dispatch of a method to
//! a rank). [`FaultInjector`] compiles the plan into an
//! [`hf_core::FaultHook`] the runtime consults on every RPC delivery.
//! Because triggers key on virtual time and call counts — never wall
//! clock — a plan replays identically run after run, which is what
//! makes every failure scenario a test case.

use std::sync::Arc;

use hf_core::fault::{ExecFault, ExecSite, FaultHook};
use hf_sync::Mutex;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// When a rank-targeted fault fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTrigger {
    /// The first RPC delivered to the target at or after this virtual
    /// time. (A rank that never receives another RPC never fires — the
    /// injector lives at the delivery site.)
    AtTime(f64),
    /// The `nth` (1-based) dispatch of `method` to the target rank.
    OnCall {
        /// Method name the trigger counts.
        method: String,
        /// 1-based dispatch index that fires the trigger.
        nth: u64,
    },
}

impl FaultTrigger {
    fn matches(&self, site: &ExecSite<'_>) -> bool {
        match self {
            FaultTrigger::AtTime(t) => site.now >= *t,
            FaultTrigger::OnCall { method, nth } => {
                site.method == method && site.call_index == *nth
            }
        }
    }
}

/// What fails.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill a rank: poisons its communicators and marks it dead
    /// (one-shot).
    KillRank {
        /// Worker-group name.
        group: String,
        /// Rank within the group.
        rank: usize,
    },
    /// Drop up to `times` matching RPCs to a rank (transient; the
    /// dispatch path may retry).
    DropRpc {
        /// Worker-group name.
        group: String,
        /// Rank within the group.
        rank: usize,
        /// How many matching dispatches to drop before the fault clears.
        times: u32,
    },
    /// Delay one matching RPC to a rank by `seconds` of virtual time
    /// (one-shot).
    DelayRpc {
        /// Worker-group name.
        group: String,
        /// Rank within the group.
        rank: usize,
        /// Extra virtual delivery latency.
        seconds: f64,
    },
}

/// One fault: a kind plus its trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// What fails.
    pub kind: FaultKind,
    /// When it fires.
    pub trigger: FaultTrigger,
}

/// A reproducible failure scenario: an ordered list of fault specs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults, checked in order on every hook consultation.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kill of `rank` in `group` fired by `trigger`.
    pub fn kill_rank(mut self, group: &str, rank: usize, trigger: FaultTrigger) -> Self {
        self.faults
            .push(FaultSpec { kind: FaultKind::KillRank { group: group.into(), rank }, trigger });
        self
    }

    /// Adds a drop of up to `times` RPCs to `rank` in `group`, starting
    /// when `trigger` matches.
    pub fn drop_rpc(mut self, group: &str, rank: usize, times: u32, trigger: FaultTrigger) -> Self {
        self.faults.push(FaultSpec {
            kind: FaultKind::DropRpc { group: group.into(), rank, times },
            trigger,
        });
        self
    }

    /// Adds a one-shot delivery delay of `seconds` to `rank` in `group`.
    pub fn delay_rpc(
        mut self,
        group: &str,
        rank: usize,
        seconds: f64,
        trigger: FaultTrigger,
    ) -> Self {
        self.faults.push(FaultSpec {
            kind: FaultKind::DelayRpc { group: group.into(), rank, seconds },
            trigger,
        });
        self
    }

    /// Derives a deterministic single-kill scenario from `seed`: picks a
    /// target group+rank from `targets` (group name, group world size)
    /// and a trigger method from `methods`, firing on call 1..=`max_nth`
    /// of that method. The same seed always produces the same scenario,
    /// so CI can pin a small matrix of seeds and replay failures
    /// exactly.
    pub fn seeded_kill(
        seed: u64,
        targets: &[(&str, usize)],
        methods: &[&str],
        max_nth: u64,
    ) -> Self {
        assert!(!targets.is_empty() && !methods.is_empty() && max_nth >= 1);
        let h0 = splitmix(seed ^ 0x5eed_fa17);
        let (group, world) = targets[(h0 % targets.len() as u64) as usize];
        let h1 = splitmix(h0);
        let rank = (h1 % world as u64) as usize;
        let h2 = splitmix(h1);
        let method = methods[(h2 % methods.len() as u64) as usize];
        let h3 = splitmix(h2);
        let nth = 1 + h3 % max_nth;
        FaultPlan::new().kill_rank(group, rank, FaultTrigger::OnCall { method: method.into(), nth })
    }
}

struct InjectState {
    /// Per-spec fire count (one-shot kinds fire at most once; `DropRpc`
    /// fires up to `times`).
    fired: Vec<u64>,
    log: Vec<String>,
}

/// Compiles a [`FaultPlan`] into the runtime's [`FaultHook`]: hand the
/// injector to [`hf_core::Controller::with_faults`] and the plan's
/// faults fire deterministically as the run replays.
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectState>,
}

impl FaultInjector {
    /// Builds the injector for `plan`, ready to pass as a hook.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        let n = plan.faults.len();
        Arc::new(FaultInjector {
            plan,
            state: Mutex::new(InjectState { fired: vec![0; n], log: Vec::new() }),
        })
    }

    /// Human-readable record of every fault that has fired, in order.
    pub fn log(&self) -> Vec<String> {
        self.state.lock().log.clone()
    }

    /// Total number of fault firings so far.
    pub fn fired_count(&self) -> u64 {
        self.state.lock().fired.iter().sum()
    }

    /// The plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }
}

impl FaultHook for FaultInjector {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        let mut out = ExecFault::none();
        let mut st = self.state.lock();
        for (i, spec) in self.plan.faults.iter().enumerate() {
            match &spec.kind {
                FaultKind::KillRank { group, rank } => {
                    if st.fired[i] == 0
                        && site.group == group
                        && site.rank == *rank
                        && spec.trigger.matches(site)
                    {
                        st.fired[i] = 1;
                        let reason = format!(
                            "fault plan: kill {group} rank {rank} during {} (call {}, t={:.4})",
                            site.method, site.call_index, site.now
                        );
                        st.log.push(reason.clone());
                        out.kill = Some(reason);
                    }
                }
                FaultKind::DropRpc { group, rank, times } => {
                    // Retries re-dispatch with a fresh call index, so an
                    // `OnCall` trigger opens at `nth` and stays open
                    // until `times` drops have fired — modeling a fault
                    // that persists across a bounded number of attempts.
                    let open = match &spec.trigger {
                        FaultTrigger::OnCall { method, nth } => {
                            site.method == method && site.call_index >= *nth
                        }
                        FaultTrigger::AtTime(t) => site.now >= *t,
                    };
                    if st.fired[i] < u64::from(*times)
                        && site.group == group
                        && site.rank == *rank
                        && open
                    {
                        st.fired[i] += 1;
                        st.log.push(format!(
                            "fault plan: drop rpc {} to {group} rank {rank} (call {})",
                            site.method, site.call_index
                        ));
                        out.drop_rpc = true;
                    }
                }
                FaultKind::DelayRpc { group, rank, seconds } => {
                    if st.fired[i] == 0
                        && site.group == group
                        && site.rank == *rank
                        && spec.trigger.matches(site)
                    {
                        st.fired[i] = 1;
                        st.log.push(format!(
                            "fault plan: delay rpc {} to {group} rank {rank} by {seconds}s",
                            site.method
                        ));
                        out.delay_s += seconds;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site<'a>(group: &'a str, rank: usize, method: &'a str, idx: u64, now: f64) -> ExecSite<'a> {
        ExecSite { device: 0, group, rank, method, call_index: idx, now }
    }

    #[test]
    fn on_call_trigger_fires_exactly_once() {
        let plan = FaultPlan::new().kill_rank(
            "actor",
            1,
            FaultTrigger::OnCall { method: "update".into(), nth: 2 },
        );
        let inj = FaultInjector::new(plan);
        assert!(inj.on_execute(&site("actor", 1, "update", 1, 0.0)).kill.is_none());
        assert!(inj.on_execute(&site("actor", 0, "update", 2, 0.0)).kill.is_none());
        assert!(inj.on_execute(&site("critic", 1, "update", 2, 0.0)).kill.is_none());
        assert!(inj.on_execute(&site("actor", 1, "update", 2, 0.0)).kill.is_some());
        // One-shot: the same site never fires twice.
        assert!(inj.on_execute(&site("actor", 1, "update", 2, 0.0)).kill.is_none());
        assert_eq!(inj.fired_count(), 1);
        assert_eq!(inj.log().len(), 1);
    }

    #[test]
    fn at_time_trigger_fires_on_first_rpc_past_t() {
        let plan = FaultPlan::new().kill_rank("actor", 0, FaultTrigger::AtTime(5.0));
        let inj = FaultInjector::new(plan);
        assert!(inj.on_execute(&site("actor", 0, "m", 1, 4.99)).kill.is_none());
        assert!(inj.on_execute(&site("actor", 0, "m", 2, 5.0)).kill.is_some());
    }

    #[test]
    fn drop_rpc_clears_after_times() {
        let plan = FaultPlan::new().drop_rpc(
            "actor",
            0,
            2,
            FaultTrigger::OnCall { method: "m".into(), nth: 1 },
        );
        let inj = FaultInjector::new(plan);
        // Retries re-dispatch with fresh call indices: the fault stays
        // open from `nth` until `times` drops have fired, then clears.
        assert!(inj.on_execute(&site("actor", 0, "m", 1, 0.0)).drop_rpc);
        assert!(inj.on_execute(&site("actor", 0, "m", 2, 0.0)).drop_rpc);
        assert!(!inj.on_execute(&site("actor", 0, "m", 3, 0.0)).drop_rpc);
        assert!(!inj.on_execute(&site("actor", 0, "other", 4, 0.0)).drop_rpc);
    }

    #[test]
    fn seeded_kill_is_deterministic_and_seed_sensitive() {
        let targets = [("actor", 4), ("critic", 4)];
        let methods = ["update_actor", "generate_sequences", "compute_values"];
        let a = FaultPlan::seeded_kill(1, &targets, &methods, 4);
        let b = FaultPlan::seeded_kill(1, &targets, &methods, 4);
        assert_eq!(a, b, "same seed, same plan");
        let distinct: std::collections::HashSet<String> = (0..16)
            .map(|s| format!("{:?}", FaultPlan::seeded_kill(s, &targets, &methods, 4)))
            .collect();
        assert!(distinct.len() > 4, "seeds must explore the scenario space: {}", distinct.len());
    }
}
