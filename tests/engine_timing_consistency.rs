//! The functional runtime and the analytic simulators must agree: the
//! virtual time a threaded micro-DP all-gather charges equals the cost
//! model's closed-form prediction, and the resharded bytes match the
//! Table 2 volume accounting.

use std::sync::Arc;
use std::thread;

use hybridflow::hybridengine::{transition_time, ActorShards, EngineMode, HybridEngineRank};
use hybridflow::modelspec::ModelConfig;
use hybridflow::parallel::{GenGrouping, GroupingMethod, ParallelSpec, ShardLayout};
use hybridflow::simcluster::{
    ClusterSpec, CollectiveKind, CommCostModel, CommGroup, Communicator, DeviceId, VirtualClock,
};

#[test]
fn threaded_transition_time_matches_analytic_cost() {
    let spec = ParallelSpec::new(1, 4, 2);
    let grouping = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
    let layout = ShardLayout::uniform(4, 64);
    let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32).collect();
    let shards = ActorShards::scatter(&params, layout.clone(), grouping);
    let cluster = Arc::new(ClusterSpec::a100_with_gpus(8));
    let cost = CommCostModel::default();

    // Analytic prediction: one all-gather of the shard within a micro-DP
    // group of size d_g = 2, payload = per-rank shard × group size.
    let shard_bytes = (shards.train_buf(0).len() * 4) as f64;
    let group0 = grouping.gather_group(0);
    let devices0: Vec<DeviceId> = group0.iter().map(|&r| DeviceId(r)).collect();
    let predicted = cost.collective_time(
        &cluster,
        &devices0,
        CollectiveKind::AllGather,
        shard_bytes * group0.len() as f64,
    );

    // Run the real threaded transition and read the charged clocks.
    let mut groups: Vec<(Vec<usize>, CommGroup)> = Vec::new();
    for r in 0..8 {
        let g = grouping.gather_group(r);
        if !groups.iter().any(|(ranks, _)| ranks == &g) {
            let devs = g.iter().map(|&x| DeviceId(x)).collect();
            groups.push((g, CommGroup::new(devs)));
        }
    }
    let handles: Vec<_> = (0..8)
        .map(|r| {
            let mut eng =
                HybridEngineRank::new(r, grouping, layout.clone(), shards.train_buf(r).to_vec());
            let (ranks, grp) =
                groups.iter().find(|(ranks, _)| ranks.contains(&r)).expect("group").clone();
            let pos = ranks.iter().position(|&x| x == r).unwrap();
            let comm = Communicator::new(grp, pos, cluster.clone(), cost.clone());
            thread::spawn(move || {
                let mut clock = VirtualClock::new();
                eng.to_generation(&comm, &mut clock);
                clock.now()
            })
        })
        .collect();
    for h in handles {
        let measured = h.join().unwrap();
        assert!(
            (measured - predicted).abs() < 1e-9,
            "functional virtual time {measured} must equal analytic {predicted}"
        );
    }

    // And the analytic transition_time for the same setting agrees.
    let devices: Vec<DeviceId> = (0..8).map(DeviceId).collect();
    let analytic = transition_time(
        EngineMode::HybridFlow,
        &ModelConfig::tiny(), // unused fields beyond layers are fine here
        &spec,
        &grouping,
        &devices,
        &cluster,
        &cost,
    );
    assert!(analytic > 0.0);
}

#[test]
fn recv_bytes_sum_matches_comm_volume_claim() {
    // Table 2: per-GPU communication volume under the strided method is
    // (tp − t_g·p_g)/(t_g·p_g·tp) · M.
    let spec = ParallelSpec::new(2, 4, 2);
    let grouping = GenGrouping::new(spec, 2, 2, GroupingMethod::Strided);
    let layout = ShardLayout::uniform(8, 64);
    let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32).collect();
    let shards = ActorShards::scatter(&params, layout.clone(), grouping);
    let m_bytes = (layout.total_params() * 4) as f64;
    let tp = spec.mp() as f64;
    let gen_mp = 4.0;
    let expected = (tp - gen_mp) / (gen_mp * tp) * m_bytes;
    for rank in 0..spec.world() {
        assert_eq!(shards.recv_bytes(rank) as f64, expected, "rank {rank}");
    }
}
