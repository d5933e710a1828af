//! The counting global allocator of hf-rlhf's allocation tests. A test
//! binary installs it by declaring this module
//! (`#[path = "common/counting_alloc.rs"] mod counting_alloc;`), and is
//! its own test binary, so no other test's allocations are counted.
//!
//! It counts two things: every allocation on the calling thread
//! ([`Counting::thread_allocs`]), and allocations of one chosen size on
//! every thread ([`Counting::count_size`], [`Counting::sized`]).
#![allow(dead_code)] // each test target uses its own half

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Forwards to `System`, counting as it goes.
pub struct Counting {
    /// The size [`Counting::sized`] counts (0: none).
    size: AtomicUsize,
    sized: AtomicU64,
}

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[global_allocator]
pub static GLOBAL: Counting = Counting { size: AtomicUsize::new(0), sized: AtomicU64::new(0) };

impl Counting {
    /// Allocations made on the calling thread so far.
    pub fn thread_allocs(&self) -> u64 {
        ALLOCS.with(Cell::get)
    }

    /// Counts allocations of exactly `bytes` on every thread from now
    /// on, from zero.
    pub fn count_size(&self, bytes: usize) {
        self.size.store(bytes, Ordering::SeqCst);
        self.sized.store(0, Ordering::SeqCst);
    }

    /// Allocations of the size given to [`Counting::count_size`] since
    /// it was given.
    pub fn sized(&self) -> u64 {
        self.sized.load(Ordering::SeqCst)
    }

    fn count(&self, bytes: usize) {
        // A const-initialised, drop-free thread local never fails to
        // access; `try_with` keeps the allocator panic-free regardless.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        if bytes == self.size.load(Ordering::Relaxed) {
            self.sized.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the caller; counting only bumps a
// thread-local integer and an atomic, and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
