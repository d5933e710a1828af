//! Property tests for `DataProto` and the transfer protocols.

use hf_core::{DataProto, Protocol, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use proptest::prelude::*;

fn batch(rows: usize, width: usize, seed: u64) -> DataProto {
    let mut d = DataProto::with_rows(rows);
    d.insert_f32("x", (0..rows * width).map(|i| (i as u64 ^ seed) as f32).collect(), width);
    d.insert_tokens("ids", (0..(rows * width) as u32).collect(), width);
    d
}

fn pow2(max_exp: u32) -> impl Strategy<Value = usize> {
    (0..=max_exp).prop_map(|e| 1usize << e)
}

proptest! {
    #[test]
    fn chunk_concat_round_trips(rows in 1usize..64, width in 1usize..8,
                                n in 1usize..12, seed in any::<u64>()) {
        let d = batch(rows, width, seed);
        let rt = DataProto::concat(&d.chunk(n)).unwrap();
        prop_assert_eq!(rt, d);
    }

    #[test]
    fn chunk_sizes_differ_by_at_most_one(rows in 0usize..64, n in 1usize..12) {
        let d = batch(rows.max(1), 2, 0).select(0, rows);
        let sizes: Vec<usize> = d.chunk(n).iter().map(|c| c.rows()).collect();
        prop_assert_eq!(sizes.iter().sum::<usize>(), rows);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn select_then_concat_recovers(rows in 2usize..40, cut in 1usize..39,
                                   seed in any::<u64>()) {
        let cut = cut.min(rows - 1);
        let d = batch(rows, 3, seed);
        let joined = DataProto::concat(&[d.select(0, cut), d.select(cut, rows)]).unwrap();
        prop_assert_eq!(joined, d);
    }

    #[test]
    fn three_d_echo_round_trips(p in pow2(1), t in pow2(2), d in pow2(2),
                                per_group in 1usize..4, seed in any::<u64>()) {
        // Echo workers under 3D_PROTO must reproduce the input batch.
        let spec = ParallelSpec::new(p, t, d);
        let layout = WorkerLayout::train_only(spec);
        let data = batch(d * per_group, 2, seed);
        let ins = Protocol::ThreeD.distribute(&layout, &data).unwrap();
        let out = Protocol::ThreeD.collect(&layout, ins).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn micro_dp_echo_round_trips(t in pow2(2), d in pow2(1),
                                 tg_exp in 0u32..3, seed in any::<u64>()) {
        let spec = ParallelSpec::new(1, t, d);
        let tg = (1usize << tg_exp).min(t);
        let gen = GenGrouping::new(spec, 1, tg, GroupingMethod::Strided);
        let layout = WorkerLayout::with_gen(gen);
        let data = batch(gen.gen_replicas_total() * 2, 2, seed);
        let ins = Protocol::ThreeDAllMicroDp.distribute(&layout, &data).unwrap();
        let out = Protocol::ThreeDAllMicroDp.collect(&layout, ins).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn distribute_produces_one_input_per_rank(p in pow2(1), t in pow2(2), d in pow2(2),
                                              rows in 1usize..32) {
        let spec = ParallelSpec::new(p, t, d);
        let layout = WorkerLayout::train_only(spec);
        let data = batch(rows, 1, 0);
        for proto in [Protocol::OneToAll, Protocol::ThreeD, Protocol::AllToAll,
                      Protocol::OneToOne, Protocol::ThreeDPpOnly, Protocol::DpAllGather] {
            let ins = proto.distribute(&layout, &data).unwrap();
            prop_assert_eq!(ins.len(), spec.world(), "{:?}", proto);
        }
    }

    #[test]
    fn collected_ranks_are_nonempty_and_within_world(p in pow2(1), t in pow2(2), d in pow2(2)) {
        let spec = ParallelSpec::new(p, t, d);
        let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let layout = WorkerLayout::with_gen(gen);
        for proto in Protocol::all() {
            let collected: Vec<usize> = (0..layout.world())
                .filter(|&r| proto.is_collected(&layout, r))
                .collect();
            prop_assert!(!collected.is_empty(), "{:?}", proto);
            prop_assert!(collected.iter().all(|&r| r < layout.world()));
        }
    }

    // Row-splitting protocols stamp each chunk with its global first
    // row, continuing from the batch's own stamp; broadcasting ones pass
    // the batch's stamp through; `collect` clears it either way.
    #[test]
    fn row_offsets_tile_the_rows_and_collect_clears_them(
        p in pow2(1), t in pow2(2), d in pow2(2), tg_exp in 0u32..3,
        rows in 1usize..24, stamped in 0u32..2, base in 0usize..100, seed in any::<u64>(),
    ) {
        let base = (stamped == 1).then_some(base);
        let mut data = batch(rows, 2, seed);
        data.set_row_offset(base);
        let row0 = base.unwrap_or(0);
        for proto in Protocol::all() {
            let spec = if proto == Protocol::Dp {
                ParallelSpec::new(1, 1, d)
            } else {
                ParallelSpec::new(p, t, d)
            };
            let tg = (1usize << tg_exp).min(spec.t);
            let layout = WorkerLayout::with_gen(GenGrouping::new(spec, 1, tg, GroupingMethod::Strided));
            let ins = proto.distribute(&layout, &data).unwrap();
            match proto {
                Protocol::ThreeD | Protocol::ThreeDAllMicroDp | Protocol::Dp => {
                    let mut chunks: Vec<(usize, usize)> = ins
                        .iter()
                        .map(|i| (i.row_offset().expect("every chunk is stamped"), i.rows()))
                        .collect();
                    chunks.sort_unstable();
                    chunks.dedup();
                    let mut next = row0;
                    for &(off, n) in &chunks {
                        prop_assert_eq!(off, next, "{:?}: chunks must tile the rows", proto);
                        next += n;
                    }
                    prop_assert_eq!(next, row0 + rows, "{:?}", proto);
                    for i in &ins {
                        let start = i.row_offset().unwrap() - row0;
                        let mut want = data.select(start, start + i.rows());
                        want.set_row_offset(i.row_offset());
                        prop_assert_eq!(i, &want, "{:?}: the stamp names the rows held", proto);
                    }
                }
                Protocol::OneToOne => {
                    prop_assert_eq!(ins[0].row_offset(), base);
                    prop_assert!(ins[1..].iter().all(|i| i.row_offset().is_none()));
                }
                _ => prop_assert!(ins.iter().all(|i| i.row_offset() == base), "{:?}", proto),
            }
            let out = proto.collect(&layout, ins).unwrap();
            prop_assert_eq!(out.row_offset(), None, "{:?}: collect clears the stamp", proto);
        }
    }

    #[test]
    fn union_is_left_biased_on_meta(rows in 1usize..16) {
        let mut a = batch(rows, 1, 1);
        a.meta.insert("k".into(), "old".into());
        let mut b = DataProto::with_rows(rows);
        b.meta.insert("k".into(), "new".into());
        a.union(b).unwrap();
        prop_assert_eq!(a.meta.get("k").map(String::as_str), Some("new"));
    }

    // Copy-on-write invariant: chunks are views over shared buffers, so
    // replacing a column in one chunk must never leak into any sibling
    // chunk or the original batch — and `chunk ∘ concat = id` still
    // holds for the untouched chunks.
    #[test]
    fn cow_mutation_never_aliases_across_chunks(
        rows in 2usize..48, width in 1usize..6, n in 2usize..8,
        victim in 0usize..8, seed in any::<u64>(),
    ) {
        let d = batch(rows, width, seed);
        let mut chunks = d.chunk(n);
        let victim = victim % chunks.len();
        let snapshot: Vec<DataProto> = chunks.clone();

        // "Mutate" the victim chunk: columns are immutable behind Arc,
        // so the write path is whole-column replacement.
        let vrows = chunks[victim].rows();
        chunks[victim].insert_f32("x", vec![-1.0; vrows * width], width);

        // Siblings and the original are untouched.
        for (i, (c, snap)) in chunks.iter().zip(&snapshot).enumerate() {
            if i != victim {
                prop_assert_eq!(c, snap, "sibling chunk {} changed", i);
            }
        }
        prop_assert_eq!(&DataProto::concat(&snapshot).unwrap(), &d);
        // And the mutated chunk really did change (unless it is empty).
        if vrows > 0 {
            let (x, _) = chunks[victim].f32("x").unwrap();
            prop_assert!(x.iter().all(|&v| v == -1.0));
        }
    }

    // The same for metadata, which chunks share copy-on-write: a write
    // to one chunk's map copies it and leaves the siblings and the
    // original batch with the shared one.
    #[test]
    fn cow_meta_never_aliases_across_chunks(
        rows in 2usize..48, n in 2usize..8, victim in 0usize..8, seed in any::<u64>(),
    ) {
        let mut d = batch(rows, 1, seed);
        d.meta.insert("k".into(), "shared".into());
        let mut chunks = d.chunk(n);
        let victim = victim % chunks.len();
        chunks[victim].meta.insert("k".into(), "mine".into());
        chunks[victim].meta.insert("new".into(), seed.to_string());
        for (i, c) in chunks.iter().enumerate() {
            let want = if i == victim { "mine" } else { "shared" };
            prop_assert_eq!(c.meta.get("k").map(String::as_str), Some(want), "chunk {}", i);
            prop_assert_eq!(c.meta.contains_key("new"), i == victim, "chunk {}", i);
        }
        prop_assert_eq!(d.meta.len(), 1);
        prop_assert_eq!(d.meta.get("k").map(String::as_str), Some("shared"));
    }

    // The round-trip every dispatch protocol performs must be a pure
    // refcount operation: no payload bytes are physically copied.
    #[test]
    fn chunk_concat_round_trip_is_zero_copy(
        rows in 1usize..64, width in 1usize..6, n in 1usize..12, seed in any::<u64>(),
    ) {
        let d = batch(rows, width, seed);
        let before = hf_core::physical_copy_bytes();
        let rt = DataProto::concat(&d.chunk(n)).unwrap();
        prop_assert_eq!(&rt, &d);
        prop_assert_eq!(hf_core::physical_copy_bytes(), before,
                        "contiguous chunk/concat must not copy payload");
    }
}
