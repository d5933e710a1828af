//! Parameter shard ownership under 3D layouts.
//!
//! A transformer's weights are partitioned along two axes: pipeline
//! parallelism splits *layers* across stages, and tensor parallelism
//! splits *each weight matrix* into column/row slices. A rank's shard is
//! therefore a rectangle in (layer × column-fraction) space. Shard
//! rectangles let us compute exactly the quantities in Table 2:
//!
//! * the overlap between a rank's training shard and generation shard
//!   (zero-redundancy means `train ⊆ gen`),
//! * the redundant memory `|train \ gen|` a rank must keep to preserve
//!   training weights during generation,
//! * the bytes each rank must fetch during the transition,
//!
//! and [`ShardLayout`] maps rectangles to concrete index ranges over a
//! flattened parameter vector, so `hf-hybridengine` can physically
//! reshard the tiny real models from `hf-nn` and assert byte equality.
//!
//! Column fractions are kept as exact rationals over a common
//! denominator, so nesting checks never suffer float error.

use crate::groups::GenGrouping;
use crate::spec::ParallelSpec;

/// A rectangular shard: a contiguous range of layers crossed with a
/// contiguous column fraction `[col_start/col_den, col_end/col_den)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelShard {
    /// First layer (inclusive), in `0..layers_total`.
    pub layer_start: usize,
    /// Last layer (exclusive).
    pub layer_end: usize,
    /// Column-fraction numerator (inclusive).
    pub col_start: usize,
    /// Column-fraction numerator (exclusive).
    pub col_end: usize,
    /// Column-fraction denominator.
    pub col_den: usize,
    /// Total layers in the model (shared context for fraction math).
    pub layers_total: usize,
}

impl ModelShard {
    /// The full model as a single shard.
    pub fn full(layers_total: usize) -> Self {
        ModelShard {
            layer_start: 0,
            layer_end: layers_total,
            col_start: 0,
            col_end: 1,
            col_den: 1,
            layers_total,
        }
    }

    /// Fraction of the whole model this shard covers, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        let layers = (self.layer_end - self.layer_start) as f64 / self.layers_total as f64;
        let cols = (self.col_end - self.col_start) as f64 / self.col_den as f64;
        layers * cols
    }

    fn at_den(self, den: usize) -> (usize, usize) {
        assert_eq!(den % self.col_den, 0, "denominators must be compatible");
        let k = den / self.col_den;
        (self.col_start * k, self.col_end * k)
    }

    /// Fraction of the whole model covered by `self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if the two shards describe different `layers_total`.
    pub fn intersection_fraction(&self, other: &ModelShard) -> f64 {
        assert_eq!(self.layers_total, other.layers_total);
        let l0 = self.layer_start.max(other.layer_start);
        let l1 = self.layer_end.min(other.layer_end);
        if l1 <= l0 {
            return 0.0;
        }
        let den = lcm(self.col_den, other.col_den);
        let (a0, a1) = self.at_den(den);
        let (b0, b1) = other.at_den(den);
        let c0 = a0.max(b0);
        let c1 = a1.min(b1);
        if c1 <= c0 {
            return 0.0;
        }
        ((l1 - l0) as f64 / self.layers_total as f64) * ((c1 - c0) as f64 / den as f64)
    }

    /// Whether `self` is entirely contained in `other`.
    pub fn is_subset_of(&self, other: &ModelShard) -> bool {
        assert_eq!(self.layers_total, other.layers_total);
        if self.layer_start < other.layer_start || self.layer_end > other.layer_end {
            return false;
        }
        let den = lcm(self.col_den, other.col_den);
        let (a0, a1) = self.at_den(den);
        let (b0, b1) = other.at_den(den);
        a0 >= b0 && a1 <= b1
    }

    /// Fraction of the whole model in `self \ other` — the redundant
    /// training-weight memory of Table 2 when `self` is the training shard
    /// and `other` the generation shard.
    pub fn minus_fraction(&self, other: &ModelShard) -> f64 {
        self.fraction() - self.intersection_fraction(other)
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

/// Training shard of `rank` under `spec`: pipeline stage `p_idx` owns the
/// `p_idx`-th slice of layers; tensor shard `t_idx` owns the `t_idx`-th
/// column fraction.
///
/// # Panics
///
/// Panics unless `spec.p` divides `layers_total`.
pub fn train_shard(spec: &ParallelSpec, rank: usize, layers_total: usize) -> ModelShard {
    assert_eq!(
        layers_total % spec.p,
        0,
        "pipeline size {} must divide layer count {layers_total}",
        spec.p
    );
    let c = spec.coords(rank);
    let per_stage = layers_total / spec.p;
    ModelShard {
        layer_start: c.p_idx * per_stage,
        layer_end: (c.p_idx + 1) * per_stage,
        col_start: c.t_idx,
        col_end: c.t_idx + 1,
        col_den: spec.t,
        layers_total,
    }
}

/// Generation shard of `rank` under `grouping` (depends on the grouping
/// method through the rank's generation coordinates).
///
/// # Panics
///
/// Panics unless `grouping.pg` divides `layers_total`.
pub fn gen_shard(grouping: &GenGrouping, rank: usize, layers_total: usize) -> ModelShard {
    assert_eq!(
        layers_total % grouping.pg,
        0,
        "generation pipeline size {} must divide layer count {layers_total}",
        grouping.pg
    );
    let gc = grouping.gen_coords(rank);
    let per_stage = layers_total / grouping.pg;
    ModelShard {
        layer_start: gc.p_idx * per_stage,
        layer_end: (gc.p_idx + 1) * per_stage,
        col_start: gc.t_idx,
        col_end: gc.t_idx + 1,
        col_den: grouping.tg,
        layers_total,
    }
}

/// Maps shard rectangles onto a concrete flattened parameter vector.
///
/// `layer_sizes[i]` is the number of scalar parameters in layer `i`; the
/// flat vector is the concatenation of layers. Within a layer, the column
/// fraction `[a/den, b/den)` maps to the proportional index subrange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    layer_sizes: Vec<usize>,
    offsets: Vec<usize>,
}

impl ShardLayout {
    /// Builds a layout from per-layer parameter counts.
    ///
    /// # Panics
    ///
    /// Panics if `layer_sizes` is empty.
    pub fn new(layer_sizes: Vec<usize>) -> Self {
        assert!(!layer_sizes.is_empty(), "model must have at least one layer");
        let mut offsets = Vec::with_capacity(layer_sizes.len() + 1);
        let mut acc = 0;
        for s in &layer_sizes {
            offsets.push(acc);
            acc += s;
        }
        offsets.push(acc);
        ShardLayout { layer_sizes, offsets }
    }

    /// A layout of `layers` equal layers of `size` parameters each.
    pub fn uniform(layers: usize, size: usize) -> Self {
        Self::new(vec![size; layers])
    }

    /// Total parameter count.
    pub fn total_params(&self) -> usize {
        *self.offsets.last().expect("offsets nonempty")
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layer_sizes.len()
    }

    /// Concrete flat index ranges covered by `shard`, one per layer, in
    /// ascending order.
    ///
    /// # Panics
    ///
    /// Panics if the shard's `layers_total` disagrees with this layout, or
    /// if a layer size is not divisible by the shard's column denominator
    /// (tiny models are constructed to satisfy this, keeping resharding
    /// byte-exact).
    pub fn ranges(&self, shard: &ModelShard) -> Vec<std::ops::Range<usize>> {
        assert_eq!(shard.layers_total, self.layers(), "layout/shard layer mismatch");
        (shard.layer_start..shard.layer_end)
            .map(|layer| {
                let size = self.layer_sizes[layer];
                assert_eq!(
                    size % shard.col_den,
                    0,
                    "layer size {size} must be divisible by TP denominator {}",
                    shard.col_den
                );
                let unit = size / shard.col_den;
                let base = self.offsets[layer];
                base + shard.col_start * unit..base + shard.col_end * unit
            })
            .collect()
    }

    /// Number of scalar parameters in `shard` under this layout.
    pub fn shard_params(&self, shard: &ModelShard) -> usize {
        self.ranges(shard).iter().map(|r| r.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::GroupingMethod;

    #[test]
    fn train_shards_tile_the_model() {
        let spec = ParallelSpec::new(2, 4, 2);
        let total: f64 = (0..spec.world()).map(|r| train_shard(&spec, r, 8).fraction()).sum();
        // d replicas each cover the full model once.
        assert!((total - spec.d as f64).abs() < 1e-12);
    }

    #[test]
    fn strided_grouping_is_zero_redundancy() {
        // Figure 8(b): every rank's training shard nests in its generation
        // shard under the strided method.
        let g = GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, GroupingMethod::Strided);
        for rank in 0..8 {
            let tr = train_shard(&g.train, rank, 4);
            let ge = gen_shard(&g, rank, 4);
            assert!(tr.is_subset_of(&ge), "rank {rank}");
            assert_eq!(tr.minus_fraction(&ge), 0.0);
        }
    }

    #[test]
    fn vanilla_grouping_has_redundancy_on_some_ranks() {
        // Figure 8(a): G2, G3 (ranks 1, 2) keep redundant training weights.
        let g = GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, GroupingMethod::Vanilla);
        let mut redundant = 0;
        for rank in 0..8 {
            let tr = train_shard(&g.train, rank, 4);
            let ge = gen_shard(&g, rank, 4);
            if tr.minus_fraction(&ge) > 0.0 {
                redundant += 1;
                // The worst case is the full training shard, M/(t·p).
                assert!((tr.minus_fraction(&ge) - 0.25).abs() < 1e-12);
            }
        }
        assert_eq!(redundant, 4, "paper: G2, G3, G6, G7 hold redundant weights");
    }

    #[test]
    fn micro_dp_group_training_shards_tile_the_generation_shard() {
        // The strided transition gathers exactly the micro-DP group's
        // training shards to reconstruct each member's generation shard.
        let g = GenGrouping::new(ParallelSpec::new(2, 4, 1), 1, 2, GroupingMethod::Strided);
        for grp in g.micro_dp_groups() {
            let ge = gen_shard(&g, grp[0], 8);
            let sum: f64 =
                grp.iter().map(|&r| train_shard(&g.train, r, 8).intersection_fraction(&ge)).sum();
            assert!((sum - ge.fraction()).abs() < 1e-12);
            for &r in &grp {
                assert!(train_shard(&g.train, r, 8).is_subset_of(&ge));
            }
        }
    }

    #[test]
    fn shard_layout_ranges_are_exact() {
        let layout = ShardLayout::uniform(4, 16);
        assert_eq!(layout.total_params(), 64);
        let spec = ParallelSpec::new(2, 4, 1);
        let sh = train_shard(
            &spec,
            spec.rank_of(crate::spec::TrainCoord { d_idx: 0, p_idx: 1, t_idx: 2 }),
            4,
        );
        let ranges = layout.ranges(&sh);
        // Stage 1 owns layers 2..4; shard 2/4 owns the third quarter.
        assert_eq!(ranges, vec![32 + 8..32 + 12, 48 + 8..48 + 12]);
        assert_eq!(layout.shard_params(&sh), 8);
    }

    #[test]
    fn layout_shard_params_match_fraction() {
        let layout = ShardLayout::uniform(8, 32);
        let spec = ParallelSpec::new(2, 4, 2);
        for rank in 0..spec.world() {
            let sh = train_shard(&spec, rank, 8);
            let params = layout.shard_params(&sh);
            let expect = (layout.total_params() as f64 * sh.fraction()).round() as usize;
            assert_eq!(params, expect);
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn layout_rejects_indivisible_tp() {
        let layout = ShardLayout::uniform(2, 7);
        let spec = ParallelSpec::new(1, 2, 1);
        layout.ranges(&train_shard(&spec, 0, 2));
    }
}
