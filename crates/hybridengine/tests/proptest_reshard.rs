//! Property tests for the 3D-HybridEngine: byte-exact resharding and
//! Table 2 volume accounting over randomized valid configurations.

use hf_hybridengine::{transition_metrics, ActorShards, EngineMode};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec, ShardLayout};
use proptest::prelude::*;

fn pow2(max_exp: u32) -> impl Strategy<Value = usize> {
    (0..=max_exp).prop_map(|e| 1usize << e)
}

fn configs() -> impl Strategy<Value = (GenGrouping, ShardLayout)> {
    (pow2(1), pow2(3), pow2(1), any::<bool>(), 1usize..4).prop_flat_map(|(p, t, d, strided, k)| {
        let spec = ParallelSpec::new(p, t, d);
        let method = if strided { GroupingMethod::Strided } else { GroupingMethod::Vanilla };
        let tg = (0..=t.ilog2()).prop_map(move |e| 1usize << e);
        let pg = (0..=p.ilog2()).prop_map(move |e| 1usize << e);
        (tg, pg).prop_map(move |(tg, pg)| {
            let grouping = GenGrouping::new(spec, pg, tg, method);
            // Layer sizes divisible by every TP width in play.
            let layout = ShardLayout::uniform(p.max(pg) * 2, k * 64);
            (grouping, layout)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reshard_is_byte_exact_for_all_valid_configs((grouping, layout) in configs()) {
        let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32 * 0.5).collect();
        let shards = ActorShards::scatter(&params, layout, grouping);
        for rank in 0..grouping.train.world() {
            prop_assert_eq!(shards.reshard_to_gen(rank), shards.reference_gen_buf(rank));
        }
    }

    #[test]
    fn strided_recv_bytes_match_table2((grouping, layout) in configs()) {
        prop_assume!(grouping.method == GroupingMethod::Strided);
        let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32).collect();
        let total_bytes = (layout.total_params() * 4) as f64;
        let shards = ActorShards::scatter(&params, layout, grouping);
        let m = transition_metrics(
            EngineMode::HybridFlow,
            total_bytes,
            &grouping.train,
            grouping.pg,
            grouping.tg,
        );
        for rank in 0..grouping.train.world() {
            // Every volume here is a whole number of bytes: layer sizes
            // are multiples of 64, every divisor a power of two ≤ 256.
            prop_assert_eq!(shards.recv_bytes(rank) as f64, m.comm_volume, "rank {}", rank);
        }
    }

    #[test]
    fn table2_metrics_are_consistent(p in pow2(2), t in pow2(3), d in pow2(2),
                                     tg_exp in 0u32..4, pg_exp in 0u32..3) {
        let spec = ParallelSpec::new(p, t, d);
        let tg = (1usize << tg_exp).min(t);
        let pg = (1usize << pg_exp).min(p);
        let m_bytes = 1e9;
        let hf = transition_metrics(EngineMode::HybridFlow, m_bytes, &spec, pg, tg);
        let v = transition_metrics(EngineMode::HybridFlowV, m_bytes, &spec, pg, tg);
        let ds = transition_metrics(EngineMode::DsChat, m_bytes, &spec, pg, tg);
        // Volume ordering and the zero-redundancy invariant.
        prop_assert!(hf.comm_volume <= v.comm_volume + 1e-6);
        prop_assert!(v.comm_volume <= ds.comm_volume + 1e-6);
        prop_assert_eq!(hf.redundancy, 0.0);
        // Peak memory equals the generation shard for HybridFlow.
        prop_assert!((hf.peak_memory - m_bytes / (pg * tg) as f64).abs() < 1e-6);
        // All metrics are within [0, M].
        for m in [hf, v, ds] {
            prop_assert!(m.comm_volume >= 0.0 && m.comm_volume <= m_bytes);
            prop_assert!(m.redundancy >= 0.0 && m.redundancy <= m_bytes);
        }
    }
}
