//! Property tests for parallel-group construction and shard ownership.

use hf_parallel::shard::{gen_shard, train_shard};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec, ReshardPlan, ShardLayout};
use proptest::prelude::*;

/// Power-of-two in `[1, max]`.
fn pow2(max_exp: u32) -> impl Strategy<Value = usize> {
    (0..=max_exp).prop_map(|e| 1usize << e)
}

fn layouts() -> impl Strategy<Value = (ParallelSpec, usize, usize)> {
    (pow2(2), pow2(3), pow2(2)).prop_flat_map(|(p, t, d)| {
        let spec = ParallelSpec::new(p, t, d);
        let pg = (0..=p.ilog2()).prop_map(move |e| 1usize << e);
        let tg = (0..=t.ilog2()).prop_map(move |e| 1usize << e);
        (Just(spec), pg, tg)
    })
}

proptest! {
    #[test]
    fn coords_round_trip((spec, _, _) in layouts()) {
        for rank in 0..spec.world() {
            prop_assert_eq!(spec.rank_of(spec.coords(rank)), rank);
        }
    }

    #[test]
    fn every_group_family_partitions_the_world((spec, pg, tg) in layouts(),
                                               strided in any::<bool>()) {
        let method = if strided { GroupingMethod::Strided } else { GroupingMethod::Vanilla };
        let g = GenGrouping::new(spec, pg, tg, method);
        let world: Vec<usize> = (0..spec.world()).collect();
        for groups in [
            spec.tp_groups(), spec.pp_groups(), spec.dp_groups(), spec.mp_groups(),
            g.micro_dp_groups(), g.gen_tp_groups(), g.gen_pp_groups(), g.gen_replica_groups(),
        ] {
            let mut all: Vec<usize> = groups.into_iter().flatten().collect();
            all.sort_unstable();
            prop_assert_eq!(&all, &world);
        }
    }

    #[test]
    fn group_sizes_match_theory((spec, pg, tg) in layouts()) {
        let g = GenGrouping::new(spec, pg, tg, GroupingMethod::Strided);
        let dg = spec.mp() / (pg * tg);
        prop_assert_eq!(g.dg(), dg);
        for grp in g.micro_dp_groups() {
            prop_assert_eq!(grp.len(), dg);
        }
        for grp in g.gen_tp_groups() {
            prop_assert_eq!(grp.len(), tg);
        }
        for grp in g.gen_replica_groups() {
            prop_assert_eq!(grp.len(), pg * tg);
        }
    }

    #[test]
    fn strided_grouping_is_always_zero_redundancy((spec, pg, tg) in layouts()) {
        // The paper's §5.3 claim, for every valid configuration: each
        // rank's training shard nests inside its generation shard.
        let g = GenGrouping::new(spec, pg, tg, GroupingMethod::Strided);
        let layers = spec.p.max(g.pg) * 4; // divisible by both pipeline sizes
        for rank in 0..spec.world() {
            let tr = train_shard(&spec, rank, layers);
            let ge = gen_shard(&g, rank, layers);
            prop_assert!(tr.is_subset_of(&ge), "rank {} under {}->{}-{}", rank, spec, pg, tg);
        }
    }

    #[test]
    fn micro_dp_shards_tile_generation_shard((spec, pg, tg) in layouts()) {
        // The plan panics unless the group's training shards tile the
        // generation shard exactly.
        let g = GenGrouping::new(spec, pg, tg, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(spec.p.max(g.pg) * 4, 64);
        for grp in g.micro_dp_groups() {
            let plan = ReshardPlan::to_generation(&layout, &g, grp[0]);
            prop_assert_eq!(plan.dst_len(), layout.total_params() / (pg * tg));
        }
    }

    #[test]
    fn micro_dp_group_of_matches_filter_oracle((spec, pg, tg) in layouts(),
                                               strided in any::<bool>()) {
        // Regression (hf-audit satellite): micro_dp_group_of is now
        // derived arithmetically from the stride construction; it must
        // agree with the original filter-over-the-world version on every
        // rank of every sampled layout, for both grouping methods.
        let method = if strided { GroupingMethod::Strided } else { GroupingMethod::Vanilla };
        let g = GenGrouping::new(spec, pg, tg, method);
        for rank in 0..spec.world() {
            prop_assert_eq!(g.micro_dp_group_of(rank), g.micro_dp_group_of_filter(rank),
                            "rank {} of {} ({:?})", rank, spec, method);
        }
    }

    #[test]
    fn shard_layout_params_sum_to_total((spec, _, _) in layouts(),
                                        layer_size in (1usize..8).prop_map(|k| k * 64)) {
        let layers = spec.p * 4;
        let layout = ShardLayout::uniform(layers, layer_size);
        // One DP replica's training shards cover the model exactly once.
        let replica: Vec<usize> = (0..spec.mp()).collect();
        let total: usize = replica
            .iter()
            .map(|&r| layout.shard_params(&train_shard(&spec, r, layers)))
            .sum();
        prop_assert_eq!(total, layout.total_params());
    }
}
