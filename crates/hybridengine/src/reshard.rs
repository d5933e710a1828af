//! Functional weight resharding over real flat buffers.
//!
//! [`ActorShards`] scatters a full parameter vector into per-rank
//! training shards (as Megatron would store them), then rebuilds each
//! rank's *generation* shard using only the buffers held by a designated
//! gather group — the micro-DP group under the strided method, or the
//! whole model-parallel group under the vanilla method — by the same
//! [`ReshardPlan::to_generation`] the engine places its all-gather's
//! contributions by. Byte-exact equality with slices of the reference
//! model proves that placement correct (the property Figure 8 argues
//! pictorially).

use hf_parallel::{
    shard::{gen_shard, train_shard},
    GenGrouping, ReshardPlan, ShardLayout,
};

/// Per-rank training-shard buffers of one actor model.
#[derive(Debug, Clone)]
pub struct ActorShards {
    layout: ShardLayout,
    grouping: GenGrouping,
    full: Vec<f32>,
    train_bufs: Vec<Vec<f32>>,
}

impl ActorShards {
    /// Scatters `params` (the flat full model, layer-structured per
    /// `layout`) into training shards under `grouping.train`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != layout.total_params()` or the training
    /// pipeline size does not divide the layer count.
    pub fn scatter(params: &[f32], layout: ShardLayout, grouping: GenGrouping) -> Self {
        assert_eq!(params.len(), layout.total_params(), "param buffer size mismatch");
        let train_bufs = (0..grouping.train.world())
            .map(|rank| {
                layout.extract(&train_shard(&grouping.train, rank, layout.layers()), params)
            })
            .collect();
        ActorShards { layout, grouping, full: params.to_vec(), train_bufs }
    }

    /// Rank `rank`'s training-shard buffer.
    pub fn train_buf(&self, rank: usize) -> &[f32] {
        &self.train_bufs[rank]
    }

    /// The reference generation-shard contents for `rank` (what the
    /// transition must reconstruct), sliced from the full model.
    pub fn reference_gen_buf(&self, rank: usize) -> Vec<f32> {
        self.layout.extract(&gen_shard(&self.grouping, rank, self.layout.layers()), &self.full)
    }

    /// Reconstructs `rank`'s generation shard using *only* the training
    /// buffers of its gather group (the functional all-gather).
    pub fn reshard_to_gen(&self, rank: usize) -> Vec<f32> {
        let plan = ReshardPlan::to_generation(&self.layout, &self.grouping, rank);
        plan.apply(|src| &self.train_bufs[src][..])
    }

    /// Bytes rank `rank` must *receive* during the transition (its
    /// generation shard minus what it already holds locally). Under the
    /// strided method this equals the Table 2 per-GPU volume.
    pub fn recv_bytes(&self, rank: usize) -> usize {
        let plan = ReshardPlan::to_generation(&self.layout, &self.grouping, rank);
        (plan.dst_len() - plan.values_from(rank)) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hf_parallel::{GroupingMethod, ParallelSpec};

    fn params(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    fn shards(
        p: usize,
        t: usize,
        d: usize,
        pg: usize,
        tg: usize,
        method: GroupingMethod,
    ) -> ActorShards {
        let spec = ParallelSpec::new(p, t, d);
        let gen = GenGrouping::new(spec, pg, tg, method);
        let layers = 8;
        let layer_size = 48; // divisible by every t, tg used in tests
        let layout = ShardLayout::uniform(layers, layer_size);
        ActorShards::scatter(&params(layout.total_params()), layout, gen)
    }

    #[test]
    fn training_shards_partition_params() {
        let s = shards(2, 4, 2, 1, 2, GroupingMethod::Strided);
        // Each DP replica's shards concatenate to a permutation covering
        // the whole model once.
        let per_rank: usize = s.train_buf(0).len();
        assert_eq!(per_rank * 8, 8 * 48); // mp = 8 ranks per replica
        let mut seen: Vec<f32> = (0..8).flat_map(|r| s.train_buf(r).to_vec()).collect();
        seen.sort_by(f32::total_cmp);
        let mut expect = params(8 * 48);
        expect.sort_by(f32::total_cmp);
        assert_eq!(seen, expect);
    }

    #[test]
    fn strided_reshard_reconstructs_gen_shards_exactly() {
        for (p, t, d, pg, tg) in
            [(1, 4, 2, 1, 2), (2, 4, 1, 1, 2), (2, 4, 2, 2, 2), (1, 8, 1, 1, 2)]
        {
            let s = shards(p, t, d, pg, tg, GroupingMethod::Strided);
            for rank in 0..s.grouping.train.world() {
                assert_eq!(
                    s.reshard_to_gen(rank),
                    s.reference_gen_buf(rank),
                    "layout {p}-{t}-{d} gen {pg}-{tg} rank {rank}"
                );
            }
        }
    }

    #[test]
    fn vanilla_reshard_also_correct_but_gathers_more() {
        let sv = shards(1, 4, 2, 1, 2, GroupingMethod::Vanilla);
        let ss = shards(1, 4, 2, 1, 2, GroupingMethod::Strided);
        for rank in 0..8 {
            assert_eq!(sv.reshard_to_gen(rank), sv.reference_gen_buf(rank));
            // Vanilla gathers over the whole MP group (4 ranks); strided
            // over the micro-DP group (2 ranks).
            assert_eq!(sv.grouping.gather_group(rank).len(), 4);
            assert_eq!(ss.grouping.gather_group(rank).len(), 2);
        }
    }

    #[test]
    fn strided_needs_no_weights_beyond_micro_dp_group() {
        // The defining property: the micro-DP group suffices. (The
        // reconstruction asserts full coverage internally.)
        let s = shards(2, 4, 2, 1, 2, GroupingMethod::Strided);
        for rank in 0..16 {
            let grp = s.grouping.gather_group(rank);
            assert_eq!(grp.len(), s.grouping.dg());
            assert!(grp.contains(&rank));
        }
    }

    #[test]
    fn recv_bytes_matches_table2_for_strided() {
        let s = shards(1, 8, 2, 1, 2, GroupingMethod::Strided);
        let total_bytes = (8 * 48 * 4) as f64;
        // Table 2: (tp − t_g p_g)/(t_g p_g · tp) · M = (8−2)/(2·8) · M.
        let expect = total_bytes * 6.0 / 16.0;
        for rank in 0..16 {
            assert_eq!(s.recv_bytes(rank) as f64, expect, "rank {rank}");
        }
    }

    #[test]
    fn vanilla_some_ranks_receive_their_whole_gen_shard() {
        // Figure 8(a): ranks whose training shard doesn't overlap their
        // generation shard must fetch all of it.
        let s = shards(1, 4, 2, 1, 2, GroupingMethod::Vanilla);
        let gen_bytes = 48 * 8 / 2 * 4; // half the model in bytes
        let max_recv = (0..8).map(|r| s.recv_bytes(r)).max().unwrap();
        assert_eq!(max_recv, gen_bytes);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn scatter_rejects_wrong_param_count() {
        let spec = ParallelSpec::new(1, 2, 1);
        let gen = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(2, 8);
        ActorShards::scatter(&[0.0; 3], layout, gen);
    }
}
