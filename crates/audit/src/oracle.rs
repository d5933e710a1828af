//! The differential layout oracle.
//!
//! Every [`SweepConfig`] runs the *same* PPO data stream: identical
//! prompts, identical seeds, identical hyper-parameters. The oracle
//! executes a config on the hybrid runtime, fingerprints everything the
//! layout is not allowed to perturb — generated token streams, behaviour
//! log-probs, final actor/critic weights, and Adam moments — and
//! compares the fingerprint *byte for byte* (f32s by their bit patterns)
//! against the canonical single-device `1-1-1` reference. A divergence
//! is then [`shrink`]-reduced to a minimal failing configuration, which
//! is what a burn-down wants pinned in a regression test.

use std::collections::HashMap;

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::collect_state;
use hf_rlhf::env::make_prompts;
use hf_rlhf::{ppo_iteration_captured, Placement, RlhfConfig, RlhfSystem};
use hf_simcluster::{ClusterSpec, ResourcePool};

use crate::config::{SweepConfig, UPDATES};

/// Everything a device mapping must not change, f32s as raw bit
/// patterns so comparison is byte-exact (`-0.0 != +0.0`, NaNs compare
/// by payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Generated response tokens, concatenated across iterations.
    pub(crate) responses: Vec<u32>,
    /// Behaviour log-probs (`logp_old`) bits, concatenated.
    pub(crate) logp: Vec<u32>,
    /// Final actor parameter bits.
    pub(crate) actor_params: Vec<u32>,
    /// Final actor Adam first-moment bits.
    pub(crate) actor_m: Vec<u32>,
    /// Final actor Adam second-moment bits.
    pub(crate) actor_v: Vec<u32>,
    /// Final critic parameter bits.
    pub(crate) critic_params: Vec<u32>,
    /// Final critic Adam first-moment bits.
    pub(crate) critic_m: Vec<u32>,
    /// Final critic Adam second-moment bits.
    pub(crate) critic_v: Vec<u32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn first_diff(a: &[u32], b: &[u32]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("length {} vs {}", a.len(), b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y).map(|i| {
        format!(
            "element {i}: {:#010x} vs {:#010x} ({} vs {})",
            a[i],
            b[i],
            f32::from_bits(a[i]),
            f32::from_bits(b[i])
        )
    })
}

impl Fingerprint {
    /// First field where `self` and `other` disagree, or `None` when
    /// byte-identical.
    pub fn diff(&self, other: &Fingerprint) -> Option<String> {
        for (field, a, b) in [
            ("responses", &self.responses, &other.responses),
            ("logp_old", &self.logp, &other.logp),
            ("actor params", &self.actor_params, &other.actor_params),
            ("actor adam m", &self.actor_m, &other.actor_m),
            ("actor adam v", &self.actor_v, &other.actor_v),
            ("critic params", &self.critic_params, &other.critic_params),
            ("critic adam m", &self.critic_m, &other.critic_m),
            ("critic adam v", &self.critic_v, &other.critic_v),
        ] {
            if let Some(d) = first_diff(a, b) {
                return Some(format!("{field}: {d}"));
            }
        }
        None
    }
}

/// Runs `cfg`'s PPO data stream on the hybrid runtime and fingerprints
/// the results. Errors (spawn failures, worker errors) are returned as
/// strings so a sweep can report them alongside divergences.
pub fn run_config(cfg: &SweepConfig) -> Result<Fingerprint, String> {
    assert!(cfg.is_valid(), "config outside the parity domain: {}", cfg.label());
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(cfg.world()));
    let spec = ParallelSpec::new(cfg.p, cfg.t, cfg.d);
    let layout = match cfg.gen {
        Some((pg, tg, m)) => WorkerLayout::with_gen(GenGrouping::new(spec, pg, tg, m)),
        None => WorkerLayout::train_only(spec),
    };
    let pool = ResourcePool::contiguous(0, cfg.world());
    let placement = Placement::colocated(pool, layout, true, false);
    let mut rl = RlhfConfig::tiny();
    rl.updates = UPDATES;
    let sys = if cfg.zero {
        RlhfSystem::build_zero(&ctrl, &placement, rl.clone())
    } else {
        RlhfSystem::build(&ctrl, &placement, rl.clone())
    }
    .map_err(|e| format!("spawn failed: {e}"))?;

    let mut fp = Fingerprint {
        responses: Vec::new(),
        logp: Vec::new(),
        actor_params: Vec::new(),
        actor_m: Vec::new(),
        actor_v: Vec::new(),
        critic_params: Vec::new(),
        critic_m: Vec::new(),
        critic_v: Vec::new(),
    };
    for iter in 0..cfg.iters {
        let prompts = make_prompts(
            cfg.rows,
            rl.prompt_len,
            rl.response_len,
            rl.lm.vocab as u32,
            cfg.seed.wrapping_add(iter as u64),
        );
        let (_stats, batch) = ppo_iteration_captured(&sys, &ctrl, &prompts)
            .map_err(|e| format!("iteration {iter} failed: {e}"))?;
        let (resp, _) = batch.tokens("responses").map_err(|e| e.to_string())?;
        fp.responses.extend_from_slice(resp);
        let (logp, _) = batch.f32("logp_old").map_err(|e| e.to_string())?;
        fp.logp.extend(bits(logp));
    }
    let state = |g| collect_state(g).map_err(|e| format!("checkpoint failed: {e}"));
    let actor = state(&sys.actor)?;
    let critic = state(sys.critic.as_ref().ok_or("PPO checkpoint must include the critic")?)?;
    [fp.actor_params, fp.actor_m, fp.actor_v] =
        [&actor.params, &actor.opt_m, &actor.opt_v].map(|v| bits(v));
    [fp.critic_params, fp.critic_m, fp.critic_v] =
        [&critic.params, &critic.opt_m, &critic.opt_v].map(|v| bits(v));
    let _ = ctrl.shutdown();
    Ok(fp)
}

/// A configuration that disagreed with its reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The failing configuration.
    pub config: SweepConfig,
    /// What diverged (first differing field/element) or errored.
    pub detail: String,
    /// The shrunk minimal failing configuration, when shrinking ran.
    pub minimal: Option<SweepConfig>,
}

/// Outcome of a conformance sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Configurations executed (including reference runs).
    pub checked: usize,
    /// Configurations that diverged from their reference.
    pub divergences: Vec<Divergence>,
}

impl SweepReport {
    /// Whether every configuration agreed with its reference.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Sweeps `configs`, comparing each against its (cached) `1-1-1`
/// reference, shrinking at most `max_shrinks` divergences to minimal
/// failing configs. `progress` is called after each config with its
/// label and verdict.
pub fn sweep(
    configs: &[SweepConfig],
    max_shrinks: usize,
    mut progress: impl FnMut(&SweepConfig, bool),
) -> SweepReport {
    let mut references: HashMap<(usize, usize, u64), Fingerprint> = HashMap::new();
    let mut report = SweepReport::default();
    let mut shrunk = 0;
    for cfg in configs {
        let key = (cfg.rows, cfg.iters, cfg.seed);
        if let std::collections::hash_map::Entry::Vacant(slot) = references.entry(key) {
            match run_config(&cfg.reference_of()) {
                Ok(fp) => {
                    report.checked += 1;
                    slot.insert(fp);
                }
                Err(e) => {
                    report.divergences.push(Divergence {
                        config: cfg.reference_of(),
                        detail: format!("reference run failed: {e}"),
                        minimal: None,
                    });
                    progress(cfg, false);
                    continue;
                }
            }
        }
        let reference = &references[&key];
        let verdict = match run_config(cfg) {
            Ok(fp) => fp.diff(reference),
            Err(e) => Some(format!("run failed: {e}")),
        };
        report.checked += 1;
        match verdict {
            None => progress(cfg, true),
            Some(detail) => {
                let minimal = if shrunk < max_shrinks {
                    shrunk += 1;
                    Some(shrink(*cfg, |c| {
                        let r = match run_config(&c.reference_of()) {
                            Ok(r) => r,
                            Err(_) => return false,
                        };
                        match run_config(c) {
                            Ok(fp) => fp.diff(&r).is_some(),
                            Err(_) => true,
                        }
                    }))
                } else {
                    None
                };
                report.divergences.push(Divergence { config: *cfg, detail, minimal });
                progress(cfg, false);
            }
        }
    }
    report
}

fn size_of(c: &SweepConfig) -> usize {
    c.world() * 64
        + c.rows * c.iters
        + usize::from(c.gen.is_some()) * 8
        + usize::from(matches!(c.gen, Some((_, _, GroupingMethod::Strided)))) * 4
        + usize::from(c.zero) * 2
}

/// Greedily shrinks a failing configuration to a minimal one that still
/// fails `fails`, trying one reduction at a time: fewer iterations,
/// fewer rows, dropping ZeRO, dropping or simplifying the generation
/// regrouping, and halving each parallel dimension.
pub fn shrink(mut cfg: SweepConfig, fails: impl Fn(&SweepConfig) -> bool) -> SweepConfig {
    loop {
        let mut candidates: Vec<SweepConfig> = Vec::new();
        if cfg.iters > 1 {
            candidates.push(SweepConfig { iters: 1, ..cfg });
        }
        if cfg.rows > 4 {
            candidates.push(SweepConfig { rows: cfg.rows / 2, ..cfg });
        }
        if cfg.zero {
            candidates.push(SweepConfig { zero: false, ..cfg });
        }
        if let Some((pg, tg, m)) = cfg.gen {
            candidates.push(SweepConfig { gen: None, ..cfg });
            if m == GroupingMethod::Strided {
                candidates
                    .push(SweepConfig { gen: Some((pg, tg, GroupingMethod::Vanilla)), ..cfg });
            }
            if tg > 1 {
                candidates.push(SweepConfig { gen: Some((pg, tg / 2, m)), ..cfg });
            }
            if pg > 1 {
                candidates.push(SweepConfig { gen: Some((pg / 2, tg, m)), ..cfg });
            }
        }
        for (dp, dt, dd) in [(1, 1, 2), (1, 2, 1), (2, 1, 1)] {
            if cfg.p.is_multiple_of(dp) && cfg.t.is_multiple_of(dt) && cfg.d.is_multiple_of(dd) {
                let (p, t, d) = (cfg.p / dp, cfg.t / dt, cfg.d / dd);
                if (p, t, d) != (cfg.p, cfg.t, cfg.d) {
                    let gen = cfg.gen.map(|(pg, tg, m)| (pg.min(p), tg.min(t), m));
                    candidates.push(SweepConfig { p, t, d, gen, ..cfg });
                }
            }
        }
        candidates.retain(|c| c.is_valid() && size_of(c) < size_of(&cfg));
        candidates.sort_by_key(size_of);
        match candidates.into_iter().find(|c| fails(c)) {
            Some(smaller) => cfg = smaller,
            None => return cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_reaches_a_fixed_point() {
        // A synthetic failure predicate: anything with d > 1 "fails".
        let start = SweepConfig {
            p: 2,
            t: 2,
            d: 2,
            gen: Some((1, 1, GroupingMethod::Strided)),
            zero: false,
            rows: 16,
            iters: 2,
            seed: 3,
        };
        let min = shrink(start, |c| c.d > 1);
        assert_eq!(min.d, 2, "shrink must keep the failure");
        assert_eq!((min.p, min.t), (1, 1));
        assert_eq!(min.gen, None);
        assert_eq!(min.iters, 1);
        assert!(min.rows <= 8);
    }
}
