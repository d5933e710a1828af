//! The sampled configuration space of the differential layout oracle.
//!
//! A configuration pins everything that *should not* matter to the
//! numerics: the training layout `p-t-d`, the optional generation
//! regrouping `(p_g, t_g, method)`, and whether the actor optimizer is
//! ZeRO-sharded. Batch rows, iteration count, and the prompt seed pin
//! what *does* matter, so two configs with equal `(rows, iters, seed)`
//! must produce byte-identical results.
//!
//! The parity domain is restricted to power-of-two shapes with equal
//! chunking: the virtual NCCL reduces gradients with a balanced pairwise
//! tree, which associates identically across layouts only when every
//! data-parallel chunk has the same power-of-two row count. Outside that
//! domain float non-associativity makes cross-layout bit-parity a
//! physically wrong expectation, not a bug.

use hf_parallel::GroupingMethod;

/// PPO mini-batch updates per iteration (fixed across the sweep; the
/// minibatch row count `rows / UPDATES` must divide equally across `d`).
pub const UPDATES: usize = 2;

/// One point of the conformance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Training pipeline-parallel size.
    pub p: usize,
    /// Training tensor-parallel size.
    pub t: usize,
    /// Training data-parallel size.
    pub d: usize,
    /// Generation regrouping `(p_g, t_g, method)`; `None` = train-only
    /// layout (no 3D-HybridEngine transition).
    pub gen: Option<(usize, usize, GroupingMethod)>,
    /// ZeRO-3-sharded actor (requires a pure data-parallel layout).
    pub zero: bool,
    /// Prompt rows per iteration.
    pub rows: usize,
    /// PPO iterations to run.
    pub iters: usize,
    /// Prompt-stream seed.
    pub seed: u64,
}

impl SweepConfig {
    /// The canonical single-device reference for this config's data
    /// stream: layout `1-1-1`, no regrouping, replicated optimizer.
    pub fn reference(rows: usize, iters: usize, seed: u64) -> Self {
        SweepConfig { p: 1, t: 1, d: 1, gen: None, zero: false, rows, iters, seed }
    }

    /// The reference this config must agree with byte for byte.
    pub fn reference_of(&self) -> Self {
        Self::reference(self.rows, self.iters, self.seed)
    }

    /// World size `p·t·d`.
    pub fn world(&self) -> usize {
        self.p * self.t * self.d
    }

    /// Whether this config lies in the oracle's parity domain.
    pub fn is_valid(&self) -> bool {
        let pow2 = |n: usize| n.is_power_of_two();
        if !(pow2(self.p) && pow2(self.t) && pow2(self.d) && pow2(self.rows)) {
            return false;
        }
        if !self.rows.is_multiple_of(UPDATES) {
            return false;
        }
        // Every update minibatch must split into equal chunks across DP
        // groups; every generation batch across micro-DP replicas.
        let minibatch = self.rows / UPDATES;
        if !minibatch.is_multiple_of(self.d) || minibatch / self.d == 0 {
            return false;
        }
        if let Some((pg, tg, method)) = self.gen {
            if pg == 0 || tg == 0 || !self.p.is_multiple_of(pg) || !self.t.is_multiple_of(tg) {
                return false;
            }
            let replicas = self.d * (self.p * self.t) / (pg * tg);
            if !self.rows.is_multiple_of(replicas) {
                return false;
            }
            // The strided 3D-HybridEngine reshards the *real* weights, so
            // the training layout must divide the oracle model's shape
            // (every config runs `RlhfConfig::tiny()`). `pg | p` and
            // `tg | t` make the generation layout divisible too.
            if method == GroupingMethod::Strided {
                let lm = hf_nn::LmConfig::tiny();
                if !lm.layers.is_multiple_of(self.p) || !lm.block_size().is_multiple_of(self.t) {
                    return false;
                }
            }
        }
        if self.zero && (self.p != 1 || self.t != 1 || self.gen.is_some()) {
            return false;
        }
        self.iters >= 1
    }

    /// Compact display label, e.g. `p2-t2-d1/g1-1-strided` or
    /// `p1-t1-d4/zero`.
    pub fn label(&self) -> String {
        let mut s = format!("p{}-t{}-d{}", self.p, self.t, self.d);
        match self.gen {
            Some((pg, tg, GroupingMethod::Vanilla)) => s.push_str(&format!("/g{pg}-{tg}-vanilla")),
            Some((pg, tg, GroupingMethod::Strided)) => s.push_str(&format!("/g{pg}-{tg}-strided")),
            None => {}
        }
        if self.zero {
            s.push_str("/zero");
        }
        s.push_str(&format!("/r{}-i{}-s{}", self.rows, self.iters, self.seed));
        s
    }
}

/// Enumerates every valid configuration with world ≤ `max_world` for one
/// `(rows, iters, seed)` data stream (the reference itself included).
pub fn config_space(max_world: usize, rows: usize, iters: usize, seed: u64) -> Vec<SweepConfig> {
    let dims = [1usize, 2, 4, 8];
    let methods = [GroupingMethod::Vanilla, GroupingMethod::Strided];
    let mut out = Vec::new();
    for &p in &dims {
        for &t in &dims {
            for &d in &dims {
                if p * t * d > max_world {
                    continue;
                }
                let base = SweepConfig { p, t, d, gen: None, zero: false, rows, iters, seed };
                if base.is_valid() {
                    out.push(base);
                }
                let zero = SweepConfig { zero: true, ..base };
                if zero.is_valid() {
                    out.push(zero);
                }
                for &pg in &dims {
                    for &tg in &dims {
                        for m in methods {
                            let cfg = SweepConfig { gen: Some((pg, tg, m)), ..base };
                            if cfg.is_valid() {
                                out.push(cfg);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Samples `n` configurations (deterministically, from `sample_seed`)
/// out of the product of the layout space with a few data streams —
/// the population `hf-bench audit_sweep` draws from.
pub fn sample_configs(n: usize, max_world: usize, sample_seed: u64) -> Vec<SweepConfig> {
    let mut pool = Vec::new();
    for rows in [8usize, 16] {
        for seed in 0..4u64 {
            pool.extend(config_space(max_world, rows, 2, seed));
        }
    }
    let mut out = Vec::with_capacity(n);
    let mut h = sample_seed;
    for i in 0..n {
        h = crate::splitmix(h ^ i as u64);
        out.push(pool[(h % pool.len() as u64) as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_nonempty_and_valid() {
        let space = config_space(8, 8, 2, 0);
        assert!(space.len() >= 30, "expected a rich space, got {}", space.len());
        assert!(space.iter().all(|c| c.is_valid()));
        assert!(space.contains(&SweepConfig::reference(8, 2, 0)));
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        // Minibatch of 4 rows cannot split equally across d = 8.
        let c = SweepConfig { d: 8, ..SweepConfig::reference(8, 2, 0) };
        assert!(!c.is_valid());
        // ZeRO requires a pure-DP layout.
        let c = SweepConfig { t: 2, zero: true, ..SweepConfig::reference(8, 2, 0) };
        assert!(!c.is_valid());
        // t_g must divide t.
        let c = SweepConfig {
            t: 2,
            gen: Some((1, 4, GroupingMethod::Strided)),
            ..SweepConfig::reference(8, 2, 0)
        };
        assert!(!c.is_valid());
    }

    #[test]
    fn strided_regroupings_must_divide_the_oracle_model() {
        // The tiny oracle model has 4 layers: p = 8 cannot pipeline its
        // real weights through the strided engine...
        let c = SweepConfig {
            p: 8,
            gen: Some((2, 1, GroupingMethod::Strided)),
            ..SweepConfig::reference(8, 2, 0)
        };
        assert!(!c.is_valid());
        // ...but the vanilla engine does not reshard real weights.
        let c = SweepConfig {
            p: 8,
            gen: Some((2, 1, GroupingMethod::Vanilla)),
            ..SweepConfig::reference(8, 2, 0)
        };
        assert!(c.is_valid(), "{}", c.label());
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = sample_configs(32, 8, 7);
        let b = sample_configs(32, 8, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
    }
}
