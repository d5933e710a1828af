//! Parameter shard ownership under 3D layouts.
//!
//! A transformer's weights are partitioned along two axes: pipeline
//! parallelism splits *layers* across stages, and tensor parallelism
//! splits *each weight matrix* into column/row slices. A rank's shard is
//! therefore a rectangle in (layer × column-fraction) space, its column
//! fraction an exact rational, so the nesting check
//! ([`ModelShard::is_subset_of`]; zero redundancy means `train ⊆ gen`)
//! never suffers float error.
//!
//! [`ShardLayout`] maps rectangles to concrete index ranges over a
//! flattened parameter vector, and [`ReshardPlan`] intersects those
//! ranges into the copies that build one shard's buffer out of others'.
//! The plan's integer lengths are Table 2's quantities: the bytes a rank
//! fetches during the transition, and the part of its training shard
//! (`|train \ gen|`) it must keep beside its generation shard. So
//! `hf-hybridengine` physically reshards the tiny real models from
//! `hf-nn`, asserts byte equality and counts the bytes it moved, all by
//! one plan.

use crate::groups::GenGrouping;
use crate::spec::ParallelSpec;

/// A rectangular shard: a contiguous range of layers crossed with a
/// contiguous column fraction `[col_start/col_den, col_end/col_den)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelShard {
    /// First layer (inclusive), in `0..layers_total`.
    pub(crate) layer_start: usize,
    /// Last layer (exclusive).
    pub(crate) layer_end: usize,
    /// Column-fraction numerator (inclusive).
    pub(crate) col_start: usize,
    /// Column-fraction numerator (exclusive).
    pub(crate) col_end: usize,
    /// Column-fraction denominator.
    pub(crate) col_den: usize,
    /// Total layers in the model (shared context for fraction math).
    pub(crate) layers_total: usize,
}

impl ModelShard {
    fn at_den(self, den: usize) -> (usize, usize) {
        assert_eq!(den % self.col_den, 0, "denominators must be compatible");
        let k = den / self.col_den;
        (self.col_start * k, self.col_end * k)
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
    pub(crate) fn new(layer_sizes: Vec<usize>) -> Self {
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

    /// `shard`'s buffer cut out of `full`, the whole flat vector: its
    /// ranges concatenated in ascending order.
    pub fn extract<T: Clone>(&self, shard: &ModelShard, full: &[T]) -> Vec<T> {
        let mut buf = Vec::with_capacity(self.shard_params(shard));
        for r in self.ranges(shard) {
            buf.extend_from_slice(&full[r]);
        }
        buf
    }
}

/// One copy of a [`ReshardPlan`]: `len` values from offset `src_off` of
/// rank `src_rank`'s shard buffer to offset `dst_off` of the destination
/// buffer.
#[derive(Debug, PartialEq)]
struct ShardCopy {
    src_rank: usize,
    src_off: usize,
    dst_off: usize,
    len: usize,
}

/// The copies that build one shard's buffer out of other shards' buffers
/// (paper §5, Fig. 8): after the transition's all-gather, a rank places
/// its gather group's training shards into its generation shard by this
/// plan, and after generation it cuts its training shard back out of
/// the generation shard by another.
#[derive(Debug)]
pub struct ReshardPlan {
    /// In destination order, tiling `0..dst_len` exactly.
    copies: Vec<ShardCopy>,
    dst_len: usize,
}

impl ReshardPlan {
    /// The plan that fills `dst` from `sources`, each a rank and the
    /// shard its buffer holds (laid out as [`ShardLayout::ranges`]): one
    /// copy per nonempty intersection of a source range with a
    /// destination range.
    ///
    /// # Panics
    ///
    /// Panics unless the copies tile `dst` exactly: a destination value
    /// no source holds (a gap) or two sources hold (an overlap).
    pub fn between(layout: &ShardLayout, sources: &[(usize, ModelShard)], dst: ModelShard) -> Self {
        let dst_ranges = layout.ranges(&dst);
        let mut copies = Vec::new();
        for &(src_rank, shard) in sources {
            let mut src_off = 0;
            for sr in layout.ranges(&shard) {
                let mut dst_off = 0;
                for dr in &dst_ranges {
                    let (lo, hi) = (sr.start.max(dr.start), sr.end.min(dr.end));
                    if lo < hi {
                        copies.push(ShardCopy {
                            src_rank,
                            src_off: src_off + (lo - sr.start),
                            dst_off: dst_off + (lo - dr.start),
                            len: hi - lo,
                        });
                    }
                    dst_off += dr.len();
                }
                src_off += sr.len();
            }
        }
        copies.sort_unstable_by_key(|c| c.dst_off);
        let dst_len = dst_ranges.iter().map(|r| r.len()).sum();
        let mut end = 0;
        for c in &copies {
            assert!(c.dst_off <= end, "reshard sources leave a gap at destination offset {end}");
            assert!(
                c.dst_off == end,
                "reshard sources overlap at destination offset {}",
                c.dst_off
            );
            end += c.len;
        }
        assert!(end == dst_len, "reshard sources leave a gap at destination offset {end}");
        ReshardPlan { copies, dst_len }
    }

    /// The 3D-HybridEngine transition's plan: `rank`'s generation shard
    /// under `grouping`, built from its gather group's training shards
    /// ([`GenGrouping::gather_group`]).
    pub fn to_generation(layout: &ShardLayout, grouping: &GenGrouping, rank: usize) -> Self {
        let layers = layout.layers();
        let sources: Vec<_> = (grouping.gather_group(rank).into_iter())
            .map(|src| (src, train_shard(&grouping.train, src, layers)))
            .collect();
        Self::between(layout, &sources, gen_shard(grouping, rank, layers))
    }

    /// Values in the destination buffer.
    pub fn dst_len(&self) -> usize {
        self.dst_len
    }

    /// Values the plan copies out of `src_rank`'s buffer.
    pub fn values_from(&self, src_rank: usize) -> usize {
        self.copies.iter().filter(|c| c.src_rank == src_rank).map(|c| c.len).sum()
    }

    /// The destination buffer, built from `src(rank)`, each source
    /// rank's shard buffer.
    pub fn apply<'a, T: Clone + 'a>(&self, src: impl Fn(usize) -> &'a [T]) -> Vec<T> {
        let mut buf = Vec::with_capacity(self.dst_len);
        for c in &self.copies {
            buf.extend_from_slice(&src(c.src_rank)[c.src_off..][..c.len]);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::GroupingMethod;

    #[test]
    fn train_shards_tile_the_model() {
        // Each of the d replicas' shards tile the whole model (the one
        // generation shard of a 1-1 generation layout) once: the plan
        // panics on a gap or an overlap.
        let spec = ParallelSpec::new(2, 4, 2);
        let whole = gen_shard(&GenGrouping::new(spec, 1, 1, GroupingMethod::Strided), 0, 8);
        let layout = ShardLayout::uniform(8, 32);
        for replica in 0..spec.d {
            let ranks = (0..spec.world()).filter(|&r| spec.coords(r).d_idx == replica);
            let sources: Vec<_> = ranks.map(|r| (r, train_shard(&spec, r, 8))).collect();
            assert_eq!(ReshardPlan::between(&layout, &sources, whole).dst_len(), 64 * 4);
        }
    }

    /// Values of `rank`'s training shard its generation shard does not
    /// take from it: the redundant training weights of Table 2.
    fn redundant(g: &GenGrouping, layout: &ShardLayout, rank: usize) -> usize {
        let tr = train_shard(&g.train, rank, layout.layers());
        layout.shard_params(&tr) - ReshardPlan::to_generation(layout, g, rank).values_from(rank)
    }

    #[test]
    fn strided_grouping_is_zero_redundancy() {
        // Figure 8(b): every rank's training shard nests in its generation
        // shard under the strided method.
        let g = GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(4, 16);
        for rank in 0..8 {
            let tr = train_shard(&g.train, rank, 4);
            let ge = gen_shard(&g, rank, 4);
            assert!(tr.is_subset_of(&ge), "rank {rank}");
            assert_eq!(redundant(&g, &layout, rank), 0);
        }
    }

    #[test]
    fn vanilla_grouping_has_redundancy_on_some_ranks() {
        // Figure 8(a): G2, G3 (ranks 1, 2) keep redundant training weights.
        let g = GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, GroupingMethod::Vanilla);
        let layout = ShardLayout::uniform(4, 16);
        let mut count = 0;
        for rank in 0..8 {
            if redundant(&g, &layout, rank) > 0 {
                count += 1;
                // The worst case is the full training shard, M/(t·p).
                assert_eq!(redundant(&g, &layout, rank), layout.total_params() / 4);
            }
        }
        assert_eq!(count, 4, "paper: G2, G3, G6, G7 hold redundant weights");
    }

    #[test]
    fn micro_dp_group_training_shards_tile_the_generation_shard() {
        // The strided transition gathers exactly the micro-DP group's
        // training shards to reconstruct each member's generation shard
        // (the plan panics on a gap or an overlap).
        let g = GenGrouping::new(ParallelSpec::new(2, 4, 1), 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(8, 16);
        for grp in g.micro_dp_groups() {
            let ge = gen_shard(&g, grp[0], 8);
            let plan = ReshardPlan::to_generation(&layout, &g, grp[0]);
            assert_eq!(plan.dst_len(), layout.shard_params(&ge));
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
        // A training shard holds 1/(p·t) of the model.
        let layout = ShardLayout::uniform(8, 32);
        let spec = ParallelSpec::new(2, 4, 2);
        for rank in 0..spec.world() {
            let params = layout.shard_params(&train_shard(&spec, rank, 8));
            assert_eq!(params, layout.total_params() / spec.mp());
        }
    }

    #[test]
    fn plan_copies_each_intersection_in_destination_order() {
        // 1-4-1 → generation t_g = 2: ranks 0 and 1 tile generation
        // shard 0 (the first half of every layer).
        let g = GenGrouping::new(ParallelSpec::new(1, 4, 1), 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(2, 16);
        let src = |r| (r, train_shard(&g.train, r, 2));
        let plan = ReshardPlan::between(&layout, &[src(1), src(0)], gen_shard(&g, 0, 2));
        let copy = |src_rank, src_off, dst_off| ShardCopy { src_rank, src_off, dst_off, len: 4 };
        assert_eq!(plan.copies, [copy(0, 0, 0), copy(1, 0, 4), copy(0, 4, 8), copy(1, 4, 12)]);
        assert_eq!((plan.dst_len(), plan.values_from(0), plan.values_from(2)), (16, 8, 0));
        let full: Vec<u32> = (0..32).collect();
        let bufs = [layout.extract(&src(0).1, &full), layout.extract(&src(1).1, &full)];
        assert_eq!(plan.apply(|r| &bufs[r][..]), layout.extract(&gen_shard(&g, 0, 2), &full));
    }

    #[test]
    #[should_panic(expected = "gap at destination offset 4")]
    fn plan_rejects_a_gap() {
        let g = GenGrouping::new(ParallelSpec::new(1, 4, 1), 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(2, 16);
        // Rank 1's quarter is missing from generation shard 0.
        ReshardPlan::between(&layout, &[(0, train_shard(&g.train, 0, 2))], gen_shard(&g, 0, 2));
    }

    #[test]
    #[should_panic(expected = "gap at destination offset 24")]
    fn plan_rejects_a_gap_at_the_end() {
        let g = GenGrouping::new(ParallelSpec::new(2, 2, 1), 1, 1, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(2, 16);
        let src = |r| (r, train_shard(&g.train, r, 2));
        // Rank 3's half of layer 1, the model's last 8 values, is missing.
        ReshardPlan::between(&layout, &[src(0), src(1), src(2)], gen_shard(&g, 0, 2));
    }

    #[test]
    #[should_panic(expected = "overlap at destination offset 0")]
    fn plan_rejects_an_overlap() {
        // Two DP replicas of the same shard both offer it.
        let spec = ParallelSpec::new(1, 1, 2);
        let g = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(2, 16);
        let src = |r| (r, train_shard(&spec, r, 2));
        ReshardPlan::between(&layout, &[src(0), src(1)], gen_shard(&g, 0, 2));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn layout_rejects_indivisible_tp() {
        let layout = ShardLayout::uniform(2, 7);
        let spec = ParallelSpec::new(1, 2, 1);
        layout.ranges(&train_shard(&spec, 0, 2));
    }
}
