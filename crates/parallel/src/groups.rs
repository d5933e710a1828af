//! Generation-stage parallel grouping (`p_g-t_g-d_g-d`, paper §5.1, §5.3).
//!
//! Actor training and generation share the same `N_a = p·t·d` GPUs but
//! may use different 3D layouts. Each training DP replica is split into
//! `d_g = (p·t)/(p_g·t_g)` *micro data-parallel* replicas for generation.
//!
//! Two grouping methods are implemented:
//!
//! * [`GroupingMethod::Vanilla`] (HybridFlow-V): generation TP/PP groups
//!   are built from consecutive ranks, like training groups. On some GPUs
//!   the generation shard does not overlap the training shard, requiring
//!   redundant weight memory (Table 2, column "HybridFlow-V").
//! * [`GroupingMethod::Strided`] (HybridFlow): generation TP and PP
//!   groups select ranks at regular intervals `t/t_g` and `p/p_g`, and
//!   micro-DP groups take consecutive ranks. Every rank's training shard
//!   is then a sub-slice of its generation shard, so the transition needs
//!   only one all-gather per micro-DP group and zero redundant memory.

use crate::spec::ParallelSpec;

/// How generation parallel groups are formed from training ranks (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupingMethod {
    /// Consecutive-rank grouping (the HybridFlow-V strawman).
    Vanilla,
    /// Interval grouping with consecutive micro-DP ranks (zero redundancy).
    Strided,
}

/// Coordinates of a rank in the generation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenCoord {
    /// Global generation replica index in `0..d·d_g`.
    pub replica: usize,
    /// Generation pipeline stage index in `0..p_g`.
    pub(crate) p_idx: usize,
    /// Generation tensor shard index in `0..t_g`.
    pub(crate) t_idx: usize,
    /// Micro-DP index within the training replica, in `0..d_g`.
    pub(crate) micro_idx: usize,
}

/// A generation layout bound to a training layout.
///
/// # Examples
///
/// Figure 8(b): the strided zero-redundancy grouping on 8 GPUs.
///
/// ```
/// use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
///
/// let g = GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, GroupingMethod::Strided);
/// assert_eq!(g.dg(), 2); // each training replica splits into 2 micro replicas
/// assert_eq!(g.gen_tp_groups()[0], vec![0, 2]); // strided, not consecutive
/// assert_eq!(g.micro_dp_groups()[0], vec![0, 1]); // the all-gather groups
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenGrouping {
    /// The training layout (`p-t-d`).
    pub train: ParallelSpec,
    /// Generation pipeline-parallel size.
    pub pg: usize,
    /// Generation tensor-parallel size.
    pub tg: usize,
    /// Grouping method.
    pub method: GroupingMethod,
}

impl GenGrouping {
    /// Creates a generation grouping.
    ///
    /// # Panics
    ///
    /// Panics unless `p_g` divides `p` and `t_g` divides `t` (the paper's
    /// construction requires interval strides `p/p_g` and `t/t_g`; the
    /// vanilla method shares the constraint so the two are comparable).
    pub fn new(train: ParallelSpec, pg: usize, tg: usize, method: GroupingMethod) -> Self {
        assert!(pg >= 1 && tg >= 1);
        assert!(
            train.p.is_multiple_of(pg),
            "generation PP size {pg} must divide training PP size {}",
            train.p
        );
        assert!(
            train.t.is_multiple_of(tg),
            "generation TP size {tg} must divide training TP size {}",
            train.t
        );
        GenGrouping { train, pg, tg, method }
    }

    /// Micro data-parallel size `d_g = (p·t)/(p_g·t_g)`.
    pub fn dg(&self) -> usize {
        self.train.mp() / (self.pg * self.tg)
    }

    /// Total generation replicas `d·d_g`.
    pub fn gen_replicas_total(&self) -> usize {
        self.train.d * self.dg()
    }

    /// Generation coordinates of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn gen_coords(&self, rank: usize) -> GenCoord {
        let tc = self.train.coords(rank);
        match self.method {
            GroupingMethod::Vanilla => {
                // Within the training replica, consecutive blocks of
                // p_g·t_g ranks form one generation replica.
                let local = tc.p_idx * self.train.t + tc.t_idx;
                let block = self.pg * self.tg;
                let micro_idx = local / block;
                let in_block = local % block;
                GenCoord {
                    replica: tc.d_idx * self.dg() + micro_idx,
                    p_idx: in_block / self.tg,
                    t_idx: in_block % self.tg,
                    micro_idx,
                }
            }
            GroupingMethod::Strided => {
                let sp = self.train.p / self.pg;
                let st = self.train.t / self.tg;
                let p_idx = tc.p_idx / sp;
                let t_idx = tc.t_idx / st;
                let micro_idx = (tc.p_idx % sp) * st + tc.t_idx % st;
                GenCoord { replica: tc.d_idx * self.dg() + micro_idx, p_idx, t_idx, micro_idx }
            }
        }
    }

    fn groups_by_key<K: Ord>(&self, key: impl Fn(usize) -> K) -> Vec<Vec<usize>> {
        let mut tagged: Vec<(K, usize)> = (0..self.train.world()).map(|r| (key(r), r)).collect();
        tagged.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out: Vec<Vec<usize>> = Vec::new();
        let mut prev: Option<&K> = None;
        for (k, r) in tagged.iter() {
            if prev.map(|p| p == k) == Some(true) {
                out.last_mut().expect("group exists").push(*r);
            } else {
                out.push(vec![*r]);
            }
            prev = Some(k);
        }
        out
    }

    /// Micro-DP groups: ranks of the same training replica holding the
    /// same generation shard position. The transition all-gather runs one
    /// collective inside each of these groups (§5.3).
    pub fn micro_dp_groups(&self) -> Vec<Vec<usize>> {
        self.groups_by_key(|r| {
            let tc = self.train.coords(r);
            let gc = self.gen_coords(r);
            (tc.d_idx, gc.p_idx, gc.t_idx)
        })
    }

    /// Generation tensor-parallel groups.
    pub fn gen_tp_groups(&self) -> Vec<Vec<usize>> {
        self.groups_by_key(|r| {
            let gc = self.gen_coords(r);
            (gc.replica, gc.p_idx)
        })
    }

    /// Generation pipeline-parallel groups.
    pub fn gen_pp_groups(&self) -> Vec<Vec<usize>> {
        self.groups_by_key(|r| {
            let gc = self.gen_coords(r);
            (gc.replica, gc.t_idx)
        })
    }

    /// Full generation replicas (each processes one micro-batch of
    /// prompts).
    pub fn gen_replica_groups(&self) -> Vec<Vec<usize>> {
        self.groups_by_key(|r| self.gen_coords(r).replica)
    }

    /// The ranks whose training shards `rank` gathers into its generation
    /// shard: its micro-DP group under the strided method, its whole
    /// model-parallel group under the vanilla method (which is exactly
    /// why vanilla communicates `(tp−1)/tp·M` instead of `(d_g−1)/tp·M`).
    pub fn gather_group(&self, rank: usize) -> Vec<usize> {
        match self.method {
            GroupingMethod::Strided => self.micro_dp_group_of(rank),
            GroupingMethod::Vanilla => self.train.mp_group_of(rank),
        }
    }

    /// Every rank's [`Self::gather_group`], once each: the micro-DP
    /// groups under the strided method, the training model-parallel
    /// groups under the vanilla one. The 3D-HybridEngine's all-gather
    /// runs one collective inside each.
    pub fn gather_groups(&self) -> Vec<Vec<usize>> {
        match self.method {
            GroupingMethod::Strided => self.micro_dp_groups(),
            GroupingMethod::Vanilla => self.train.mp_groups(),
        }
    }

    /// The micro-DP group containing `rank`.
    ///
    /// Derived arithmetically from the stride construction (O(d_g)
    /// instead of the old O(world) filter over every rank's coords —
    /// which made building all per-rank communicators O(world²)). The
    /// group holds the `d_g` ranks of `rank`'s training replica whose
    /// generation coords share `(p_idx, t_idx)`, ascending (= micro_idx
    /// order), matching [`Self::micro_dp_groups`].
    pub fn micro_dp_group_of(&self, rank: usize) -> Vec<usize> {
        let tc = self.train.coords(rank);
        let gc = self.gen_coords(rank);
        let base = tc.d_idx * self.train.mp();
        match self.method {
            GroupingMethod::Vanilla => {
                // Fixed position inside each consecutive p_g·t_g block;
                // one member per micro replica.
                let block = self.pg * self.tg;
                let in_block = gc.p_idx * self.tg + gc.t_idx;
                (0..self.dg()).map(|micro| base + micro * block + in_block).collect()
            }
            GroupingMethod::Strided => {
                // Members sweep the p-stride × t-stride offsets of the
                // rank's generation coordinate cell.
                let sp = self.train.p / self.pg;
                let st = self.train.t / self.tg;
                let mut out = Vec::with_capacity(self.dg());
                for p_off in 0..sp {
                    for t_off in 0..st {
                        let p_idx = gc.p_idx * sp + p_off;
                        let t_idx = gc.t_idx * st + t_off;
                        out.push(base + p_idx * self.train.t + t_idx);
                    }
                }
                out
            }
        }
    }

    /// Reference implementation of [`Self::micro_dp_group_of`]: the
    /// original O(world) filter over every rank's coordinates. Kept as
    /// the oracle the equivalence proptest pins the arithmetic
    /// derivation against.
    pub fn micro_dp_group_of_filter(&self, rank: usize) -> Vec<usize> {
        let tc = self.train.coords(rank);
        let gc = self.gen_coords(rank);
        (0..self.train.world())
            .filter(|&r| {
                let tc2 = self.train.coords(r);
                let gc2 = self.gen_coords(r);
                tc2.d_idx == tc.d_idx && gc2.p_idx == gc.p_idx && gc2.t_idx == gc.t_idx
            })
            .collect()
    }
}

impl std::fmt::Display for GenGrouping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}-{}-{}", self.pg, self.tg, self.dg(), self.train.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 8 setting: 8 GPUs, training 1-4-2, generation 1-2-2-2.
    fn fig8(method: GroupingMethod) -> GenGrouping {
        GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, method)
    }

    #[test]
    fn dg_matches_paper_formula() {
        let g = fig8(GroupingMethod::Strided);
        assert_eq!(g.dg(), 2);
        assert_eq!(g.gen_replicas_total(), 4);
        assert_eq!(g.to_string(), "1-2-2-2");
    }

    #[test]
    fn fig8a_vanilla_groups() {
        // Paper Figure 8(a): generation TP groups are consecutive pairs
        // [G1,G2],[G3,G4],[G5,G6],[G7,G8] (0-indexed).
        let g = fig8(GroupingMethod::Vanilla);
        assert_eq!(g.gen_tp_groups(), vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
        // Micro-DP groups stride across the two generation replicas of a
        // training replica: [G1,G3],[G2,G4],[G5,G7],[G6,G8].
        assert_eq!(g.micro_dp_groups(), vec![vec![0, 2], vec![1, 3], vec![4, 6], vec![5, 7]]);
    }

    #[test]
    fn fig8b_strided_groups() {
        // Paper Figure 8(b): generation TP groups [G1,G3],[G2,G4],[G5,G7],
        // [G6,G8]; micro-DP groups [G1,G2],[G3,G4],[G5,G6],[G7,G8].
        let g = fig8(GroupingMethod::Strided);
        assert_eq!(g.gen_tp_groups(), vec![vec![0, 2], vec![1, 3], vec![4, 6], vec![5, 7]]);
        assert_eq!(g.micro_dp_groups(), vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]);
    }

    #[test]
    fn all_group_families_partition_ranks() {
        for method in [GroupingMethod::Vanilla, GroupingMethod::Strided] {
            let g = GenGrouping::new(ParallelSpec::new(2, 4, 2), 1, 2, method);
            for groups in [
                g.micro_dp_groups(),
                g.gen_tp_groups(),
                g.gen_pp_groups(),
                g.gen_replica_groups(),
                g.gather_groups(),
            ] {
                let mut all: Vec<usize> = groups.into_iter().flatten().collect();
                all.sort_unstable();
                assert_eq!(all, (0..16).collect::<Vec<_>>(), "method {method:?}");
            }
            let gather = g.gather_groups();
            for r in 0..16 {
                let member = gather.iter().find(|grp| grp.contains(&r));
                assert_eq!(member, Some(&g.gather_group(r)), "method {method:?} rank {r}");
            }
        }
    }

    #[test]
    fn micro_dp_group_sizes_equal_dg() {
        let g = GenGrouping::new(ParallelSpec::new(2, 8, 2), 1, 2, GroupingMethod::Strided);
        assert_eq!(g.dg(), 8);
        for grp in g.micro_dp_groups() {
            assert_eq!(grp.len(), 8);
        }
        for grp in g.gen_replica_groups() {
            assert_eq!(grp.len(), 2); // p_g·t_g
        }
    }

    #[test]
    fn micro_dp_group_of_is_consistent() {
        let g = GenGrouping::new(ParallelSpec::new(2, 4, 2), 2, 2, GroupingMethod::Strided);
        for rank in 0..16 {
            let grp = g.micro_dp_group_of(rank);
            assert!(grp.contains(&rank));
            assert!(g.micro_dp_groups().contains(&grp));
        }
    }

    #[test]
    fn identical_layouts_make_singleton_micro_groups() {
        // t_g = t, p_g = p (NeMo-Aligner style): d_g = 1, nothing to gather.
        let g = GenGrouping::new(ParallelSpec::new(2, 4, 2), 2, 4, GroupingMethod::Strided);
        assert_eq!(g.dg(), 1);
        for grp in g.micro_dp_groups() {
            assert_eq!(grp.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_tp_rejected() {
        GenGrouping::new(ParallelSpec::new(1, 4, 1), 1, 3, GroupingMethod::Strided);
    }
}
