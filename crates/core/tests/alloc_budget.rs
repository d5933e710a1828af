//! Heap-allocation budget of a batch view and of one call's split and
//! merge, counted by a counting global allocator.
//!
//! A `DataProto` view shares its payload buffers, its column names and
//! its metadata map, so `clone` and `select` allocate only the column
//! table, and cutting a batch into one input per rank allocates a few
//! times per rank — not once per column name and metadata entry. The
//! batch is the shape of `ppo_wide_small`'s experience batch: 9 columns
//! of 8 rows, 6 metadata entries, 8 data-parallel ranks.
//!
//! The counter is per thread, so the harness's other threads do not
//! disturb it. A failure names the operation and its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hf_core::{DataProto, Protocol, WorkerLayout};
use hf_parallel::ParallelSpec;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised, drop-free thread local never fails to
    // access; `try_with` keeps the allocator panic-free regardless.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; counting only bumps a
// thread-local integer and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread (dropping the result is not counted).
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ROWS: usize = 8;
const RANKS: usize = 8;

fn experience_batch() -> DataProto {
    let mut d = DataProto::with_rows(ROWS);
    d.insert_tokens("prompts", vec![1; ROWS * 4], 4);
    d.insert_tokens("responses", vec![2; ROWS * 4], 4);
    for name in ["response_len", "scores"] {
        d.insert_f32(name, vec![0.5; ROWS], 1);
    }
    for name in ["logp_old", "ref_logp", "values", "advantages", "returns"] {
        d.insert_f32(name, vec![0.25; ROWS * 4], 4);
    }
    for (k, v) in [
        ("response_len", "4"),
        ("ptx_coef", "0"),
        ("pad_token", "0"),
        ("stop_tokens", ""),
        ("gen_pass", "3"),
        ("tag", "experience"),
    ] {
        d.meta.insert(k.into(), v.into());
    }
    d
}

/// `(distribute, collect)` allocations of one echo call under `proto`.
fn split_and_merge(proto: Protocol) -> (u64, u64) {
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, RANKS));
    let data = experience_batch();
    let (inputs, distribute) = allocations(|| proto.distribute(&layout, &data).unwrap());
    let (out, collect) = allocations(|| proto.collect(&layout, inputs).unwrap());
    assert_eq!(out.rows(), if proto == Protocol::OneToAll { ROWS * RANKS } else { ROWS });
    (distribute, collect)
}

#[test]
fn a_view_allocates_only_its_column_table() {
    let data = experience_batch();
    let (_, clone) = allocations(|| data.clone());
    let (_, select) = allocations(|| data.select(2, 6));
    assert!(clone <= 1, "DataProto::clone made {clone} allocations (budget 1)");
    assert!(select <= 1, "DataProto::select made {select} allocations (budget 1)");
}

#[test]
fn splitting_a_call_allocates_per_rank_not_per_name() {
    // (protocol, distribute budget, collect budget). A row split is one
    // column table per chunk plus the input vector(s); an echoed row
    // split gathers zero-copy. `OneToAll`'s gather concatenates eight
    // copies of one view, which are not adjacent, so its collect
    // materialises every column (one buffer each, and one more to move
    // it behind an `Arc`).
    for (proto, dist_budget, coll_budget) in
        [(Protocol::ThreeD, 18, 3), (Protocol::Dp, 9, 2), (Protocol::OneToAll, 9, 20)]
    {
        let (distribute, collect) = split_and_merge(proto);
        assert!(
            distribute <= dist_budget,
            "{proto:?} distribute made {distribute} allocations (budget {dist_budget})"
        );
        assert!(
            collect <= coll_budget,
            "{proto:?} collect made {collect} allocations (budget {coll_budget})"
        );
    }
}
