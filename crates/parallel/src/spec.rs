//! Training-stage 3D parallel layout (`p-t-d`) and rank coordinates.
//!
//! Rank layout follows the vanilla Megatron-LM grouping the paper
//! describes in §5.3: "PP and TP groups are formed by assigning
//! consecutive ranks to pipeline stages and tensor shards, respectively;
//! DP groups are constructed by selecting ranks at regular intervals,
//! determined by the product of PP size and TP size." Concretely,
//!
//! ```text
//! rank = d_idx · (p·t) + p_idx · t + t_idx
//! ```

/// A 3D parallel configuration: `p` pipeline stages, `t` tensor shards,
/// `d` data-parallel replicas (paper notation `p-t-d`).
///
/// # Examples
///
/// The paper's Figure 8 training layout, `1-4-2` on 8 GPUs:
///
/// ```
/// use hf_parallel::ParallelSpec;
///
/// let spec = ParallelSpec::new(1, 4, 2);
/// assert_eq!(spec.world(), 8);
/// assert_eq!(spec.tp_groups(), vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
/// assert_eq!(spec.dp_groups()[0], vec![0, 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelSpec {
    /// Pipeline-parallel size (number of pipeline stages).
    pub p: usize,
    /// Tensor-parallel size (number of tensor shards).
    pub t: usize,
    /// Data-parallel size (number of model replicas).
    pub d: usize,
}

/// Coordinates of a rank in the training grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrainCoord {
    /// Data-parallel replica index.
    pub d_idx: usize,
    /// Pipeline stage index.
    pub p_idx: usize,
    /// Tensor shard index.
    pub t_idx: usize,
}

impl ParallelSpec {
    /// Creates a layout; all sizes must be at least 1.
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    pub fn new(p: usize, t: usize, d: usize) -> Self {
        assert!(p >= 1 && t >= 1 && d >= 1, "parallel sizes must be >= 1");
        ParallelSpec { p, t, d }
    }

    /// Total number of ranks, `p·t·d`.
    pub fn world(&self) -> usize {
        self.p * self.t * self.d
    }

    /// Model-parallel size `p·t` (the number of partitions the model is
    /// split into, paper §2.3).
    pub fn mp(&self) -> usize {
        self.p * self.t
    }

    /// Grid coordinates of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world()`.
    pub fn coords(&self, rank: usize) -> TrainCoord {
        assert!(rank < self.world(), "rank {rank} out of range for {self:?}");
        let mp = self.mp();
        TrainCoord { d_idx: rank / mp, p_idx: (rank % mp) / self.t, t_idx: rank % self.t }
    }

    /// Inverse of [`ParallelSpec::coords`].
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn rank_of(&self, c: TrainCoord) -> usize {
        assert!(c.d_idx < self.d && c.p_idx < self.p && c.t_idx < self.t);
        c.d_idx * self.mp() + c.p_idx * self.t + c.t_idx
    }

    /// All tensor-parallel groups: consecutive runs of `t` ranks.
    pub fn tp_groups(&self) -> Vec<Vec<usize>> {
        (0..self.d * self.p).map(|g| (g * self.t..(g + 1) * self.t).collect()).collect()
    }

    /// All pipeline-parallel groups: ranks with equal `(d_idx, t_idx)`.
    pub fn pp_groups(&self) -> Vec<Vec<usize>> {
        let mut groups = Vec::with_capacity(self.d * self.t);
        for d_idx in 0..self.d {
            for t_idx in 0..self.t {
                groups.push(
                    (0..self.p)
                        .map(|p_idx| self.rank_of(TrainCoord { d_idx, p_idx, t_idx }))
                        .collect(),
                );
            }
        }
        groups
    }

    /// All data-parallel groups: ranks strided by `p·t`.
    pub fn dp_groups(&self) -> Vec<Vec<usize>> {
        let mp = self.mp();
        (0..mp).map(|base| (0..self.d).map(|k| base + k * mp).collect()).collect()
    }

    /// All model-parallel groups (one full model replica each): consecutive
    /// runs of `p·t` ranks.
    pub fn mp_groups(&self) -> Vec<Vec<usize>> {
        let mp = self.mp();
        (0..self.d).map(|d_idx| (d_idx * mp..(d_idx + 1) * mp).collect()).collect()
    }

    /// The model-parallel group (full replica) containing `rank`.
    pub fn mp_group_of(&self, rank: usize) -> Vec<usize> {
        let mp = self.mp();
        let base = rank / mp * mp;
        (base..base + mp).collect()
    }
}

impl std::fmt::Display for ParallelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{}-{}", self.p, self.t, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_figure8_training_groups() {
        // Figure 8(a): 8 GPUs, training layout 1-4-2.
        let s = ParallelSpec::new(1, 4, 2);
        assert_eq!(s.world(), 8);
        // TP groups [G1..G4], [G5..G8] (0-indexed: 0..4, 4..8).
        assert_eq!(s.tp_groups(), vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
        // DP groups [G1,G5], [G2,G6], [G3,G7], [G4,G8].
        assert_eq!(s.dp_groups(), vec![vec![0, 4], vec![1, 5], vec![2, 6], vec![3, 7]]);
    }

    #[test]
    fn coords_round_trip() {
        let s = ParallelSpec::new(2, 4, 3);
        for rank in 0..s.world() {
            assert_eq!(s.rank_of(s.coords(rank)), rank);
        }
    }

    #[test]
    fn groups_partition_the_world() {
        let s = ParallelSpec::new(2, 2, 2);
        for groups in [s.tp_groups(), s.pp_groups(), s.dp_groups(), s.mp_groups()] {
            let mut all: Vec<usize> = groups.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pp_group_membership() {
        let s = ParallelSpec::new(2, 2, 1);
        // Ranks: p0t0=0, p0t1=1, p1t0=2, p1t1=3.
        assert_eq!(s.pp_groups(), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn group_of_matches_enumeration() {
        let s = ParallelSpec::new(2, 2, 2);
        for rank in 0..s.world() {
            assert!(s.mp_groups().contains(&s.mp_group_of(rank)));
            assert!(s.mp_group_of(rank).contains(&rank));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_rejects_out_of_range() {
        ParallelSpec::new(1, 2, 2).coords(4);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(ParallelSpec::new(1, 8, 2).to_string(), "1-8-2");
    }
}
