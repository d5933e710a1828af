//! The deterministic-replay ordering auditor.
//!
//! The hybrid runtime's claim: virtual time is a pure function of the
//! dataflow — host-scheduler interleavings must never leak into results
//! or into the telemetry span tree. The auditor re-executes a traced
//! PPO iteration under seeded **wall-clock** jitter (real
//! `thread::sleep`s injected through the runtime's fault-hook seam,
//! which by construction charge no virtual time) and diffs the
//! canonical span tree of each perturbed run against the unperturbed
//! baseline. Any difference means some result depends on thread
//! execution order — exactly the class of bug a virtual-clock
//! simulation exists to exclude.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hf_core::{Controller, ExecFault, ExecSite, FaultHook, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_rewards::splitmix;
use hf_rlhf::env::make_prompts;
use hf_rlhf::{ppo_iteration, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, CommCostModel, ResourcePool};
use hf_telemetry::Telemetry;

/// Injects seeded wall-clock sleeps (0–2 ms) before every RPC delivery,
/// perturbing the host thread interleaving while leaving virtual time
/// untouched (every returned fault is [`ExecFault::none`]: no delay, no
/// drop).
pub struct JitterHook {
    seed: u64,
    calls: AtomicU64,
}

impl JitterHook {
    /// A hook whose sleep schedule is a pure function of `seed` and the
    /// call sequence.
    pub(crate) fn new(seed: u64) -> Self {
        JitterHook { seed, calls: AtomicU64::new(0) }
    }

    fn nap(&self, salt: u64) {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let h = splitmix(self.seed ^ salt.wrapping_mul(0x9e37) ^ n);
        std::thread::sleep(Duration::from_micros(h % 2000));
    }
}

impl FaultHook for JitterHook {
    fn on_execute(&self, site: &ExecSite<'_>) -> ExecFault {
        self.nap(site.device as u64 ^ (site.rank as u64) << 8);
        ExecFault::none()
    }
}

/// A span in canonical form: `(track, name, kind, start bits, end
/// bits)`, sorted. Two runs of the same dataflow must produce equal
/// canonical span lists regardless of host scheduling.
pub type CanonSpan = (String, String, &'static str, u64, u64);

/// The telemetry span list in canonical sorted form.
pub fn canonical_spans(tel: &Telemetry) -> Vec<CanonSpan> {
    let mut spans: Vec<CanonSpan> = tel
        .spans()
        .into_iter()
        .map(|s| (s.track, s.name, s.kind.category(), s.start.to_bits(), s.end.to_bits()))
        .collect();
    spans.sort();
    spans
}

/// Diff of two canonical span lists: index and both sides of the first
/// mismatch, or `None` when identical.
pub(crate) fn diff_spans(a: &[CanonSpan], b: &[CanonSpan]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("span count {} vs {}", a.len(), b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y).map(|i| {
        format!(
            "span {i}: {:?} [{} , {}] vs {:?} [{} , {}]",
            (&a[i].0, &a[i].1, a[i].2),
            f64::from_bits(a[i].3),
            f64::from_bits(a[i].4),
            (&b[i].0, &b[i].1, b[i].2),
            f64::from_bits(b[i].3),
            f64::from_bits(b[i].4),
        )
    })
}

/// One traced PPO iteration on a 4-GPU colocated hybrid layout
/// (`1-2-2`, strided generation regrouping — the layout with the most
/// concurrent machinery: micro-DP dispatch, transitions, and four
/// worker groups time-sharing devices).
fn traced_iteration(hook: Option<Arc<dyn FaultHook>>) -> (Vec<CanonSpan>, f64) {
    let cluster = ClusterSpec::a100_with_gpus(4);
    let tel = Telemetry::enabled();
    let ctrl = match hook {
        Some(h) => Controller::with_faults(cluster, CommCostModel::default(), tel.clone(), h),
        None => Controller::with_telemetry(cluster, CommCostModel::default(), tel.clone()),
    };
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
    let cfg = RlhfConfig::tiny();
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).expect("spawn");
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 11);
    ppo_iteration(&sys, &ctrl, &prompts).expect("iteration");
    let clock = ctrl.clock();
    let _ = ctrl.shutdown();
    (canonical_spans(&tel), clock)
}

/// Runs the baseline iteration plus one perturbed re-execution per seed
/// in `perturb_seeds`, returning the first ordering divergence found
/// (`None` = the runtime is order-independent under every tested
/// interleaving).
pub fn replay_check(perturb_seeds: &[u64]) -> Option<String> {
    let (baseline, base_clock) = traced_iteration(None);
    assert!(!baseline.is_empty(), "traced iteration must record spans");
    for &seed in perturb_seeds {
        let (perturbed, clock) =
            traced_iteration(Some(Arc::new(JitterHook::new(seed)) as Arc<dyn FaultHook>));
        if clock.to_bits() != base_clock.to_bits() {
            return Some(format!(
                "seed {seed}: final virtual clock {clock} differs from baseline {base_clock}"
            ));
        }
        if let Some(d) = diff_spans(&baseline, &perturbed) {
            return Some(format!("seed {seed}: {d}"));
        }
    }
    None
}
