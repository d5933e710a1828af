//! Paged KV-block storage: fixed-size blocks of decode-state snapshots
//! with free-list allocation and refcounted prefix sharing.
//!
//! One *slot* holds the model's full recurrent cache
//! ([`hf_nn::DecodeState::write_snapshot`]) after consuming one token;
//! a *block* is `block_tokens` consecutive slots. A sequence owns a
//! block table — a list of block ids whose concatenated slots cover its
//! fed token positions — so cache memory is allocated block-at-a-time
//! from a fixed budget rather than reserved up front per sequence
//! (vLLM's PagedAttention layout, transplanted onto this model's
//! cumulative-context cache).
//!
//! Blocks that cover a *full* prompt prefix register under a chained
//! content hash; a later sequence with an identical prompt prefix
//! re-maps those blocks into its own table (refcount++) instead of
//! recomputing the prefill. Shared blocks are immutable by
//! construction: only complete blocks register, and a reusing sequence
//! starts feeding strictly after the shared region.

use std::collections::{HashMap, VecDeque};

/// One entry in the prefix cache: a completed block plus the exact
/// token prefix it covers (kept to verify against hash collisions).
#[derive(Debug)]
struct CachedPrefix {
    block: usize,
    prefix: Vec<usize>,
}

/// The paged block store for one engine run.
#[derive(Debug)]
pub struct BlockManager {
    slot_floats: usize,
    block_tokens: usize,
    /// Snapshot storage, backed lazily: it covers blocks `0..=h` where
    /// `h` is the highest block written so far. Blocks hand out in
    /// ascending order, so a session that touches a few blocks of a
    /// large budget never allocates (or zeroes) the rest.
    data: Vec<f32>,
    free: Vec<usize>,
    /// Registered blocks whose refcount dropped to zero: still in the
    /// prefix cache (a later identical prompt resurrects them) but
    /// evictable the moment allocation runs out of truly-free blocks.
    /// Oldest-released first, so eviction is FIFO. Entries are
    /// `(block, stamp)` and are *lazily* deleted: resurrecting a block
    /// ([`Self::retain`]) just clears its live flag in O(1), and
    /// [`Self::alloc`] skips stale entries when it pops — each entry is
    /// pushed and popped exactly once, so eviction stays O(1) amortized
    /// instead of the old `Vec::remove(0)` / linear-scan O(n²).
    reclaimable: VecDeque<(usize, u64)>,
    /// Stamp of a block's *newest* queue entry; older entries (from
    /// earlier release cycles) mismatch and are skipped as stale.
    reclaim_stamp: Vec<u64>,
    /// Whether the block's newest queue entry is still live.
    in_reclaim: Vec<bool>,
    /// Count of live queue entries (`free_blocks` must not count stale
    /// ones).
    reclaim_live: usize,
    refcount: Vec<u32>,
    /// Content hash a block is registered under, if any.
    hash_of: Vec<Option<u64>>,
    cached: HashMap<u64, CachedPrefix>,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Chained hash of a token prefix (order-sensitive).
fn prefix_hash(tokens: &[usize]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &t in tokens {
        h = mix(h ^ t as u64);
    }
    h
}

impl BlockManager {
    /// Sizes the pool from a byte budget: `num_blocks = budget /
    /// (block_tokens × slot_floats × 4)`, every byte accounted against
    /// real snapshot storage (allocated as blocks are first written).
    pub fn new(slot_floats: usize, block_tokens: usize, budget_bytes: usize) -> Self {
        assert!(slot_floats > 0 && block_tokens > 0);
        let block_bytes = block_tokens * slot_floats * 4;
        let num_blocks = budget_bytes / block_bytes;
        BlockManager {
            slot_floats,
            block_tokens,
            data: Vec::new(),
            // Pop from the back → blocks hand out in ascending order.
            free: (0..num_blocks).rev().collect(),
            reclaimable: VecDeque::new(),
            reclaim_stamp: vec![0; num_blocks],
            in_reclaim: vec![false; num_blocks],
            reclaim_live: 0,
            refcount: vec![0; num_blocks],
            hash_of: vec![None; num_blocks],
            cached: HashMap::new(),
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Total blocks in the pool.
    pub fn num_blocks(&self) -> usize {
        self.refcount.len()
    }

    /// Blocks an [`Self::alloc`] can hand out right now (truly free
    /// plus evictable cached ones).
    pub fn free_blocks(&self) -> usize {
        self.free.len() + self.reclaim_live
    }

    /// Blocks currently owned by at least one sequence.
    pub fn blocks_in_use(&self) -> usize {
        self.num_blocks() - self.free_blocks()
    }

    /// Takes a block (refcount 1): a truly-free one if available,
    /// otherwise the oldest reclaimable cached block is evicted.
    /// `None` when even eviction can't help — the caller's cue to
    /// preempt.
    pub fn alloc(&mut self) -> Option<usize> {
        let b = match self.free.pop() {
            Some(b) => b,
            None => loop {
                let (b, stamp) = self.reclaimable.pop_front()?;
                if self.in_reclaim[b] && self.reclaim_stamp[b] == stamp {
                    self.in_reclaim[b] = false;
                    self.reclaim_live -= 1;
                    break b;
                }
                // Stale entry (block was resurrected, possibly re-queued
                // later): skip.
            },
        };
        if let Some(h) = self.hash_of[b].take() {
            self.cached.remove(&h);
        }
        self.refcount[b] = 1;
        Some(b)
    }

    /// Adds one owner to a block (prefix sharing); resurrects a
    /// reclaimable block back into ownership.
    pub fn retain(&mut self, block: usize) {
        if self.refcount[block] == 0 {
            assert!(self.in_reclaim[block], "refcount-0 retain target must be reclaimable");
            // Lazy deletion: the queue entry stays behind and is skipped
            // by `alloc` when its turn comes.
            self.in_reclaim[block] = false;
            self.reclaim_live -= 1;
        }
        self.refcount[block] += 1;
    }

    /// Current owner count of a block (0 = free or reclaimable).
    pub fn refcount(&self, block: usize) -> u32 {
        self.refcount[block]
    }

    /// Drops one owner. At refcount 0 a registered block turns
    /// reclaimable (cached until evicted); an unregistered one returns
    /// straight to the free list.
    pub fn release(&mut self, block: usize) {
        debug_assert!(self.refcount[block] > 0, "release of a free block");
        self.refcount[block] -= 1;
        if self.refcount[block] == 0 {
            if self.hash_of[block].is_some() {
                self.reclaim_stamp[block] += 1;
                self.reclaimable.push_back((block, self.reclaim_stamp[block]));
                self.in_reclaim[block] = true;
                self.reclaim_live += 1;
            } else {
                self.free.push(block);
            }
        }
    }

    /// Read access to one snapshot slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot of `block` or a higher block was ever written:
    /// reading a snapshot nobody stored is a scheduler bug.
    pub fn slot(&self, block: usize, idx: usize) -> &[f32] {
        debug_assert!(idx < self.block_tokens);
        let off = (block * self.block_tokens + idx) * self.slot_floats;
        &self.data[off..off + self.slot_floats]
    }

    /// Write access to one snapshot slot; backs storage up to and
    /// including `block` on first touch (whole blocks, zero-filled).
    pub fn slot_mut(&mut self, block: usize, idx: usize) -> &mut [f32] {
        debug_assert!(idx < self.block_tokens);
        assert!(block < self.num_blocks(), "block {block} outside the pool");
        let backed = (block + 1) * self.block_tokens * self.slot_floats;
        if self.data.len() < backed {
            self.data.resize(backed, 0.0);
        }
        let off = (block * self.block_tokens + idx) * self.slot_floats;
        &mut self.data[off..off + self.slot_floats]
    }

    /// Registers a completed block as covering exactly the token prefix
    /// `tokens[..end]` (where `end` is a block-boundary multiple). First
    /// writer wins: if an equal prefix is already cached the block stays
    /// private.
    pub fn register_prefix(&mut self, block: usize, prefix: &[usize]) {
        debug_assert!(prefix.len().is_multiple_of(self.block_tokens));
        let h = prefix_hash(prefix);
        if self.cached.contains_key(&h) {
            return;
        }
        self.cached.insert(h, CachedPrefix { block, prefix: prefix.to_vec() });
        self.hash_of[block] = Some(h);
    }

    /// Longest run of cached blocks covering whole-block prefixes of
    /// `tokens`, capped so at least one token remains to feed (the model
    /// must run the final token to produce logits). Does **not** retain;
    /// the caller retains each block when it actually admits the
    /// sequence.
    pub fn lookup_prefix(&self, tokens: &[usize]) -> Vec<usize> {
        let mut blocks = Vec::new();
        let mut end = self.block_tokens;
        while end < tokens.len() {
            let Some(c) = self.cached.get(&prefix_hash(&tokens[..end])) else { break };
            if c.prefix != tokens[..end] {
                break; // hash collision: contents differ, don't share
            }
            blocks.push(c.block);
            end += self.block_tokens;
        }
        blocks
    }

    /// Checks every structural invariant of the block store; returns a
    /// description of the first violation found. Called by the `hf-audit`
    /// BlockManager auditor after every engine step (and from tests).
    pub fn check_invariants(&self) -> Result<(), String> {
        let owned = self.refcount.iter().filter(|&&c| c > 0).count();
        if self.free.len() + self.reclaim_live + owned != self.num_blocks() {
            return Err(format!(
                "conservation broken: {} free + {} reclaimable + {} owned != {} blocks",
                self.free.len(),
                self.reclaim_live,
                owned,
                self.num_blocks()
            ));
        }
        for &b in &self.free {
            if self.refcount[b] != 0 || self.in_reclaim[b] {
                return Err(format!("free block {b} is owned or reclaimable"));
            }
            if self.hash_of[b].is_some() {
                return Err(format!("free block {b} still registered in the prefix cache"));
            }
        }
        let mut live_seen = vec![false; self.num_blocks()];
        let mut live = 0usize;
        for &(b, stamp) in &self.reclaimable {
            if self.in_reclaim[b] && self.reclaim_stamp[b] == stamp {
                if live_seen[b] {
                    return Err(format!("block {b} has two live reclaim entries"));
                }
                live_seen[b] = true;
                live += 1;
                if self.refcount[b] != 0 {
                    return Err(format!("reclaimable block {b} has refcount {}", self.refcount[b]));
                }
                let Some(h) = self.hash_of[b] else {
                    return Err(format!("reclaimable block {b} is not registered"));
                };
                if self.cached.get(&h).map(|c| c.block) != Some(b) {
                    return Err(format!("reclaimable block {b} missing from the prefix cache"));
                }
            }
        }
        if live != self.reclaim_live {
            return Err(format!(
                "reclaim_live={} but {live} live queue entries",
                self.reclaim_live
            ));
        }
        for (b, flag) in self.in_reclaim.iter().enumerate() {
            if *flag && !live_seen[b] {
                return Err(format!("block {b} flagged reclaimable but has no live queue entry"));
            }
        }
        for (h, c) in &self.cached {
            if self.hash_of[c.block] != Some(*h) {
                return Err(format!("cache entry for block {} disagrees with hash_of", c.block));
            }
            if prefix_hash(&c.prefix) != *h {
                return Err(format!("cache entry for block {} keyed under wrong hash", c.block));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_accounting_sizes_the_pool() {
        // 4 floats/slot, 2 tokens/block → 32 bytes/block.
        let bm = BlockManager::new(4, 2, 100);
        assert_eq!(bm.num_blocks(), 3);
        assert_eq!(bm.free_blocks(), 3);
        assert_eq!(BlockManager::new(4, 2, 31).num_blocks(), 0);
    }

    #[test]
    fn alloc_release_cycles_through_free_list() {
        let mut bm = BlockManager::new(1, 1, 8);
        let a = bm.alloc().unwrap();
        let b = bm.alloc().unwrap();
        assert_ne!(a, b);
        assert!(bm.alloc().is_none(), "pool exhausted");
        bm.release(a);
        assert_eq!(bm.free_blocks(), 1);
        assert_eq!(bm.alloc(), Some(a));
    }

    #[test]
    fn refcounted_sharing_frees_only_at_zero() {
        let mut bm = BlockManager::new(1, 1, 8);
        let a = bm.alloc().unwrap();
        bm.retain(a);
        bm.release(a);
        assert_eq!(bm.free_blocks(), 1, "still one owner");
        bm.release(a);
        assert_eq!(bm.free_blocks(), 2);
    }

    #[test]
    fn prefix_lookup_requires_full_blocks_and_a_spare_token() {
        let mut bm = BlockManager::new(1, 2, 100);
        let a = bm.alloc().unwrap();
        let b = bm.alloc().unwrap();
        bm.register_prefix(a, &[5, 6]);
        bm.register_prefix(b, &[5, 6, 7, 8]);
        assert_eq!(bm.lookup_prefix(&[5, 6, 7, 8, 9]), vec![a, b]);
        // Only 4 tokens: reusing both blocks would leave nothing to
        // feed, so the match is capped at one block.
        assert_eq!(bm.lookup_prefix(&[5, 6, 7, 8]), vec![a]);
        assert_eq!(bm.lookup_prefix(&[5, 9, 7, 8, 9]), Vec::<usize>::new());
        // A diverging second block stops the walk after the first.
        assert_eq!(bm.lookup_prefix(&[5, 6, 9, 8, 9]), vec![a]);
    }

    #[test]
    fn released_registered_blocks_are_reclaimable_until_evicted() {
        // 3 floats/slot × 2 slots × 4 bytes = 24 bytes/block → 2 blocks.
        let mut bm = BlockManager::new(3, 2, 48);
        let a = bm.alloc().unwrap();
        bm.register_prefix(a, &[1, 2]);
        bm.release(a);
        // Still cached: a later identical prompt resurrects it.
        assert_eq!(bm.lookup_prefix(&[1, 2, 3]), vec![a]);
        bm.retain(a);
        assert_eq!(bm.blocks_in_use(), 1);
        bm.release(a);
        // Allocation pressure evicts it: one truly-free block first,
        // then the reclaimable one, at which point the cache forgets it.
        let b = bm.alloc().unwrap();
        assert_ne!(b, a);
        assert_eq!(bm.alloc(), Some(a));
        assert!(bm.lookup_prefix(&[1, 2, 3]).is_empty(), "evicted block must leave the cache");
        assert!(bm.alloc().is_none());
    }

    #[test]
    fn resurrected_block_leaves_a_stale_entry_behind() {
        // Regression (hf-audit satellite): retain() used to linear-scan
        // and splice the reclaim list; the lazy-deletion rewrite must
        // still evict in FIFO *release* order, even when a block is
        // resurrected and re-released (its old queue entry is stale).
        let mut bm = BlockManager::new(1, 1, 12); // 3 blocks
        let a = bm.alloc().unwrap();
        let b = bm.alloc().unwrap();
        let c = bm.alloc().unwrap();
        bm.register_prefix(a, &[1]);
        bm.register_prefix(b, &[2]);
        bm.release(a); // queue: [a]
        bm.release(b); // queue: [a, b]
        bm.retain(a); // a resurrected; queue entry for a now stale
        bm.release(a); // queue: [a(stale), b, a] — a now *newer* than b
        bm.check_invariants().unwrap();
        assert_eq!(bm.free_blocks(), 2);
        // Eviction must skip the stale entry and take b (oldest live).
        assert_eq!(bm.alloc(), Some(b));
        assert_eq!(bm.alloc(), Some(a));
        assert!(bm.alloc().is_none());
        let _ = c;
        bm.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_through_a_churn_workload() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut bm = BlockManager::new(1, 1, 64); // 16 blocks
        let mut owned: Vec<usize> = Vec::new();
        let mut registered: Vec<usize> = Vec::new(); // prefix token per registered block
        for step in 0..2000usize {
            match rng.random_range(0..4u32) {
                0 => {
                    if let Some(b) = bm.alloc() {
                        if rng.random_range(0..3u32) == 0 {
                            bm.register_prefix(b, &[step]);
                            registered.push(step);
                        }
                        owned.push(b);
                    }
                }
                1 => {
                    if !owned.is_empty() {
                        let i = rng.random_range(0..owned.len());
                        bm.release(owned.swap_remove(i));
                    }
                }
                2 => {
                    if !owned.is_empty() {
                        let i = rng.random_range(0..owned.len());
                        let b = owned[i];
                        bm.retain(b);
                        owned.push(b);
                    }
                }
                _ => {
                    // Resurrect a cached prefix the way the engine does:
                    // lookup then retain.
                    if !registered.is_empty() {
                        let p = registered[rng.random_range(0..registered.len())];
                        for b in bm.lookup_prefix(&[p, p]) {
                            bm.retain(b);
                            owned.push(b);
                        }
                    }
                }
            }
            bm.check_invariants().unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }

    #[test]
    fn storage_is_backed_up_to_the_highest_block_written() {
        // 2 floats/slot × 2 slots = 4 floats/block; 16 blocks budgeted.
        let mut bm = BlockManager::new(2, 2, 16 * 16);
        assert_eq!((bm.num_blocks(), bm.data.len()), (16, 0), "nothing is backed up front");
        let blocks: Vec<usize> = (0..3).map(|_| bm.alloc().unwrap()).collect();
        assert_eq!(blocks, [0, 1, 2], "blocks hand out in ascending order");
        assert_eq!(bm.data.len(), 0, "allocation alone backs nothing");
        bm.slot_mut(1, 0)[0] = 7.0;
        assert_eq!(bm.data.len(), 2 * 4, "whole blocks, up to the one written");
        assert_eq!(bm.slot(0, 1), &[0.0, 0.0], "lower blocks are backed and zeroed");
        bm.slot_mut(0, 0)[0] = 3.0;
        assert_eq!(bm.data.len(), 2 * 4, "a lower block does not grow the store");
        bm.slot_mut(2, 1)[1] = 9.0;
        assert_eq!(bm.data.len(), 3 * 4);
        assert_eq!((bm.slot(1, 0)[0], bm.slot(2, 1)[1]), (7.0, 9.0), "growth keeps contents");
    }

    #[test]
    #[should_panic]
    fn reading_a_block_nobody_wrote_is_a_bug() {
        let mut bm = BlockManager::new(2, 2, 16 * 16);
        let _ = (bm.alloc(), bm.alloc());
        bm.slot_mut(0, 0)[0] = 1.0;
        let _ = bm.slot(1, 0);
    }

    #[test]
    fn slots_round_trip() {
        let mut bm = BlockManager::new(3, 2, 1000);
        let a = bm.alloc().unwrap();
        bm.slot_mut(a, 1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(bm.slot(a, 1), &[1.0, 2.0, 3.0]);
        assert_eq!(bm.slot(a, 0), &[0.0, 0.0, 0.0]);
    }
}
