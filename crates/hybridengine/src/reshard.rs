//! Functional weight resharding over real flat buffers.
//!
//! [`ActorShards`] scatters a full parameter vector into per-rank
//! training shards (as Megatron would store them), then rebuilds each
//! rank's *generation* shard using only the buffers held by a designated
//! gather group — the micro-DP group under the strided method, or the
//! whole model-parallel group under the vanilla method. Byte-exact
//! equality with slices of the reference model proves the resharding
//! correct (the property Figure 8 argues pictorially).

use hf_parallel::{
    shard::{gen_shard, train_shard},
    GenGrouping, ShardLayout,
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
        let layers = layout.layers();
        let world = grouping.train.world();
        let mut train_bufs = Vec::with_capacity(world);
        for rank in 0..world {
            let sh = train_shard(&grouping.train, rank, layers);
            let mut buf = Vec::with_capacity(layout.shard_params(&sh));
            for r in layout.ranges(&sh) {
                buf.extend_from_slice(&params[r]);
            }
            train_bufs.push(buf);
        }
        ActorShards { layout, grouping, full: params.to_vec(), train_bufs }
    }

    /// Rank `rank`'s training-shard buffer.
    pub fn train_buf(&self, rank: usize) -> &[f32] {
        &self.train_bufs[rank]
    }

    /// The reference generation-shard contents for `rank` (what the
    /// transition must reconstruct), sliced from the full model.
    pub fn reference_gen_buf(&self, rank: usize) -> Vec<f32> {
        let sh = gen_shard(&self.grouping, rank, self.layout.layers());
        let mut buf = Vec::with_capacity(self.layout.shard_params(&sh));
        for r in self.layout.ranges(&sh) {
            buf.extend_from_slice(&self.full[r]);
        }
        buf
    }

    /// Reconstructs `rank`'s generation shard using *only* the training
    /// buffers of its gather group (the functional all-gather).
    ///
    /// # Panics
    ///
    /// Panics if the gather group's shards do not cover the generation
    /// shard (impossible for the two supported methods).
    pub fn reshard_to_gen(&self, rank: usize) -> Vec<f32> {
        let layers = self.layout.layers();
        let gshard = gen_shard(&self.grouping, rank, layers);
        let gen_ranges = self.layout.ranges(&gshard);
        let gen_len: usize = gen_ranges.iter().map(|r| r.len()).sum();

        // Map flat model index -> position in the generation buffer.
        let pos_of = |flat: usize| -> Option<usize> {
            let mut off = 0;
            for r in &gen_ranges {
                if r.contains(&flat) {
                    return Some(off + (flat - r.start));
                }
                off += r.len();
            }
            None
        };

        let mut buf = vec![f32::NAN; gen_len];
        let mut filled = 0usize;
        for &src in &self.grouping.gather_group(rank) {
            let src_shard = train_shard(&self.grouping.train, src, layers);
            let src_ranges = self.layout.ranges(&src_shard);
            let mut cursor = 0usize;
            for r in src_ranges {
                for flat in r {
                    if let Some(p) = pos_of(flat) {
                        if buf[p].is_nan() {
                            filled += 1;
                        }
                        buf[p] = self.train_bufs[src][cursor];
                    }
                    cursor += 1;
                }
            }
        }
        assert_eq!(filled, gen_len, "gather group must cover the generation shard exactly");
        buf
    }

    /// Bytes rank `rank` must *receive* during the transition (its
    /// generation shard minus what it already holds locally). Under the
    /// strided method this equals the Table 2 per-GPU volume.
    pub fn recv_bytes(&self, rank: usize) -> usize {
        let gen_len: usize = {
            let sh = gen_shard(&self.grouping, rank, self.layout.layers());
            self.layout.shard_params(&sh)
        };
        let local_overlap = {
            let tr = train_shard(&self.grouping.train, rank, self.layout.layers());
            let ge = gen_shard(&self.grouping, rank, self.layout.layers());
            (tr.intersection_fraction(&ge) * self.layout.total_params() as f64).round() as usize
        };
        (gen_len - local_overlap) * 4
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
            assert!((s.recv_bytes(rank) as f64 - expect).abs() < 1.0, "rank {rank}");
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
