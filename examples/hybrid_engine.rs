//! Walk through the 3D-HybridEngine on the Figure 8 setting: 8 GPUs,
//! training layout 1-4-2, generation layout 1-2-2-2, comparing the
//! vanilla grouping (HybridFlow-V) with the paper's strided grouping —
//! group structure, transition volumes, and a byte-exact functional
//! reshard of a real tiny model's block weights.
//!
//! ```text
//! cargo run --example hybrid_engine
//! ```

use hybridflow::hybridengine::{transition_metrics, ActorShards, EngineMode};
use hybridflow::nn::{LmConfig, TinyLm};
use hybridflow::parallel::{GenGrouping, GroupingMethod, ParallelSpec, ShardLayout};

fn main() {
    let spec = ParallelSpec::new(1, 4, 2); // p-t-d, Figure 8
    println!("Training layout {spec} on 8 GPUs:");
    println!("  TP groups: {:?}", spec.tp_groups());
    println!("  DP groups: {:?}", spec.dp_groups());

    for method in [GroupingMethod::Vanilla, GroupingMethod::Strided] {
        let g = GenGrouping::new(spec, 1, 2, method);
        println!("\nGeneration layout {g} with {method:?} grouping:");
        println!("  generation TP groups: {:?}", g.gen_tp_groups());
        println!("  micro-DP groups:      {:?}", g.micro_dp_groups());
    }

    println!("\nTable 2 overheads (fractions of model size M), training 1-4-2 → generation 1-2:");
    for (label, mode) in [
        ("DS-Chat", EngineMode::DsChat),
        ("HybridFlow-V", EngineMode::HybridFlowV),
        ("HybridFlow", EngineMode::HybridFlow),
    ] {
        let m = transition_metrics(mode, 1.0, &spec, 1, 2);
        println!(
            "  {label:<13} comm {:.4}M  peak {:.4}M  redundancy {:.4}M",
            m.comm_volume, m.peak_memory, m.redundancy
        );
    }

    // Functional proof on a real model: scatter TinyLm block weights into
    // training shards, reshard to generation shards, verify byte equality.
    let lm = TinyLm::new(LmConfig::tiny(), 7);
    let layout = ShardLayout::uniform(lm.cfg.layers, lm.cfg.block_size());
    let grouping = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
    let shards = ActorShards::scatter(lm.block_region(), layout, grouping);
    let mut checked = 0;
    for rank in 0..spec.world() {
        assert_eq!(
            shards.reshard_to_gen(rank),
            shards.reference_gen_buf(rank),
            "rank {rank} reshard mismatch"
        );
        checked += shards.reference_gen_buf(rank).len();
    }
    println!(
        "\nFunctional reshard: reconstructed {} generation-shard parameters on {} ranks",
        checked,
        spec.world()
    );
    println!("byte-exact against the reference model, using only micro-DP-group data. ✓");
    for rank in [0usize, 1] {
        println!(
            "  rank {rank} gathers from ranks {:?} and receives {} bytes",
            grouping.gather_group(rank),
            shards.recv_bytes(rank)
        );
    }
}
