//! Property tests for placement enumeration and allocation search.

use hf_mapping::{enum_alloc, set_partitions, AlgoKind, DataflowSpec, Mapper, Role};
use hf_modelspec::{ModelConfig, PerfModel, RlhfWorkload};
use hf_simcluster::ClusterSpec;
use proptest::prelude::*;

fn bell(k: usize) -> usize {
    // B(1..=5) = 1, 2, 5, 15, 52.
    [1, 1, 2, 5, 15, 52][k]
}

fn binom(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut r = 1usize;
    for i in 0..k {
        r = r * (n - i) / (i + 1);
    }
    r
}

proptest! {
    #[test]
    fn partition_count_is_bell_number(k in 1usize..=5) {
        let roles = [Role::Actor, Role::Critic, Role::Reference, Role::Reward, Role::Cost];
        let plans = set_partitions(&roles[..k]);
        prop_assert_eq!(plans.len(), bell(k));
        // All plans distinct.
        let mut normed: Vec<Vec<Vec<Role>>> = plans
            .iter()
            .map(|p| {
                let mut sets: Vec<Vec<Role>> = p.sets.iter().map(|s| {
                    let mut s = s.clone();
                    s.sort();
                    s
                }).collect();
                sets.sort();
                sets
            })
            .collect();
        normed.sort();
        normed.dedup();
        prop_assert_eq!(normed.len(), bell(k));
    }

    #[test]
    fn alloc_count_matches_compositions(n in 2usize..14, k in 1usize..5) {
        prop_assume!(k <= n);
        let mins = vec![1usize; k];
        let allocs = enum_alloc(n, &mins, 1);
        // Compositions of n into k positive parts: C(n-1, k-1) — the
        // complexity term of Algorithm 1.
        prop_assert_eq!(allocs.len(), binom(n - 1, k - 1));
        for a in &allocs {
            prop_assert_eq!(a.iter().sum::<usize>(), n);
            prop_assert!(a.iter().all(|&g| g >= 1));
        }
    }

    #[test]
    fn alloc_respects_granularity(units in 2usize..10, k in 1usize..4, gran in 1usize..5) {
        prop_assume!(k <= units);
        let n = units * gran;
        let mins = vec![1usize; k];
        let allocs = enum_alloc(n, &mins, gran);
        prop_assert!(!allocs.is_empty());
        for a in &allocs {
            prop_assert_eq!(a.iter().sum::<usize>(), n);
            prop_assert!(a.iter().all(|&g| g % gran == 0 && g >= gran));
        }
    }

    #[test]
    fn allocs_are_distinct(n in 2usize..12, k in 1usize..4) {
        prop_assume!(k <= n);
        let mut allocs = enum_alloc(n, &vec![1; k], 1);
        let before = allocs.len();
        allocs.sort();
        allocs.dedup();
        prop_assert_eq!(allocs.len(), before);
    }
}

fn random_dataflow(algo_idx: usize, model_idx: usize, workload: RlhfWorkload) -> DataflowSpec {
    let algo = [AlgoKind::Ppo, AlgoKind::ReMax, AlgoKind::SafeRlhf][algo_idx % 3];
    let model = [ModelConfig::llama_7b(), ModelConfig::llama_13b()][model_idx % 2].clone();
    DataflowSpec::uniform(algo, model, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // The search invariant: branch-and-bound pruning is a pure
    // acceleration — for any dataflow the pruned search must return the
    // *same mapping* (plan, allocation, strategies, costs) as the
    // exhaustive reference.
    #[test]
    fn pruned_search_cost_equals_exhaustive_cost(
        algo_idx in 0usize..3,
        model_idx in 0usize..2,
        gpus_exp in 3u32..6,            // 8, 16, 32 GPUs
        batch_idx in 0usize..3,
    ) {
        let gpus = 1usize << gpus_exp;
        let batch = [64usize, 256, 1024][batch_idx];
        let workload = RlhfWorkload { global_batch: batch, ..RlhfWorkload::paper() };
        let df = random_dataflow(algo_idx, model_idx, workload);
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(gpus));
        let pruned = Mapper::new(perf.clone(), df.clone(), gpus);
        let exhaustive = Mapper::new(perf, df, gpus);
        prop_assert_eq!(
            pruned.search(),
            exhaustive.search_sequential(),
            "pruned and exhaustive search must agree on the mapping and on feasibility"
        );
    }

    // The elastic re-mapping invariant: after a rank loss shrinks the
    // world to an arbitrary (often non-power-of-two) survivor count,
    // the warm-started re-search over the shrunken world still agrees
    // with the exhaustive reference — the same whole mapping, the same
    // feasibility verdict — and every candidate allocation floor stays
    // aligned to the re-derived granularity.
    #[test]
    fn surviving_subset_research_agrees_with_sequential(
        algo_idx in 0usize..3,
        lost in 1usize..12,
        batch_idx in 0usize..2,
    ) {
        let total = 16usize;
        let world = total - lost; // 4..=15 survivors
        let batch = [64usize, 256][batch_idx];
        let workload = RlhfWorkload { global_batch: batch, ..RlhfWorkload::paper() };
        let df = random_dataflow(algo_idx, 0, workload);
        let perf = PerfModel::new(ClusterSpec::a100_with_gpus(total));
        let mut pruned = Mapper::new(perf.clone(), df.clone(), total);
        let _ = pruned.search(); // warm the strategy/bound caches at full world
        pruned.resize_world(world);
        let mut exhaustive = Mapper::new(perf, df, total);
        exhaustive.resize_world(world);
        let roles = [Role::Actor, Role::Critic, Role::Reference, Role::Reward];
        for role in roles {
            let n = pruned.min_alloc(&[role]);
            prop_assert!(n <= world, "min_alloc {n} exceeds the survivor world {world}");
            prop_assert_eq!(
                n % pruned.granularity, 0,
                "min_alloc {} unaligned to granularity {}", n, pruned.granularity
            );
        }
        let found = pruned.search();
        if let Some(m) = &found {
            prop_assert!(m.alloc.iter().sum::<usize>() <= world);
        }
        prop_assert_eq!(
            found,
            exhaustive.search_sequential(),
            "warm-started and exhaustive search must agree on the survivor-world mapping"
        );
    }
}
