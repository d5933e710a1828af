//! ZeRO-3 as an optimizer placement (the paper's `ZeROWorker` base
//! class, §4.1): [`crate::ActorWorker::zero`] is the actor with its
//! parameters and optimizer state sharded, not a second worker. What a
//! rank stores between calls is its 1/world shard of the flat parameter
//! vector and that shard's Adam ([`ZeroParamStore`]), plus the model's
//! working copy: 1 + 3/world parameter-sized vectors, where a replicated
//! actor rank holds 3 (weights and two Adam moments). Every call that
//! reads the weights all-gathers the full parameters through the
//! virtual NCCL into that working copy — the one `TinyLm` the rank
//! trains and generation decodes; `save_shard` replies from the store
//! and a restore re-cuts it — and the copy stays resident between calls (DeepSpeed frees
//! it after each layer); gradients are reduce-scattered so each rank's
//! Adam updates only its own slice. ROADMAP's "The 3D-HybridEngine holds
//! the weights: a rank keeps only its shard" is what would drop the
//! resident copy.
//!
//! Because Adam is elementwise, the ZeRO path is numerically identical
//! to the replicated-actor path (`reduce-scatter(Σg)/d` + shard-local
//! Adam ≡ `all-reduce(Σg)/d` + full Adam restricted to the shard); the
//! integration suite asserts bit-identical learning trajectories.

use std::ops::Range;

use hf_core::{DataProto, Result};
use hf_nn::Adam;
use hf_resilience::{encode_shard, shard_range, ShardHeader};
use hf_simcluster::{Communicator, RowPool, SumPart, VirtualClock};

/// A ZeRO-3 parameter store: this rank's contiguous shard of the flat
/// parameter vector plus shard-local optimizer state.
pub struct ZeroParamStore {
    /// This rank's slice, padded to a length uniform across ranks.
    shard: Vec<f32>,
    /// Where the slice sits in the flat vector (the padding is past it).
    range: Range<usize>,
    total: usize,
    opt: Adam,
}

impl ZeroParamStore {
    /// Shards `full` across `world` ranks, keeping slice `rank`, with a
    /// fresh Adam.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world` or `full` is empty.
    pub fn new(full: &[f32], rank: usize, world: usize, lr: f32) -> Self {
        let zeros = vec![0.0; full.len()];
        Self::cut([full, &zeros, &zeros], 0, rank, world, lr)
    }

    /// Slice `rank` of `world` of the parameters and both Adam moments
    /// in `full`, cut by one range and padded, with Adam at step `t`.
    pub(crate) fn cut(full: [&[f32]; 3], t: u64, rank: usize, world: usize, lr: f32) -> Self {
        let total = full[0].len();
        assert!(rank < world && total > 0);
        assert!(full.iter().all(|x| x.len() == total), "optimizer moment length mismatch");
        let (range, padded) = shard_range(total, rank, world);
        let [shard, m, v] = full.map(|x| {
            let mut slice = x[range.clone()].to_vec();
            slice.resize(padded, 0.0);
            slice
        });
        let mut opt = Adam::new(padded, lr);
        opt.load_state(&m, &v, t);
        ZeroParamStore { shard, range, total, opt }
    }

    /// Bytes of the stored parameter shard: `total/world`, padded. The
    /// actor's working copy, full size, is not counted.
    pub fn resident_param_bytes(&self) -> usize {
        self.shard.len() * 4
    }

    /// All-gathers the full flat parameter vector, which the caller
    /// copies into the actor's resident weights.
    pub(crate) fn gather(&self, comm: &Communicator, clock: &mut VirtualClock) -> Vec<f32> {
        let mut full = comm.all_gather(clock, &self.shard);
        full.truncate(self.total);
        full
    }

    /// Reduce-scatters `full_grad` (each rank's *unscaled* chunk
    /// gradient sum, given by value: nothing of its size is copied),
    /// divides by the global row count, and applies Adam to this rank's
    /// shard. The sum's buffers come from and go back to `rows`.
    ///
    /// `local_rows` is this rank's chunk row count; the counts are
    /// all-reduced (exact: small integers in f32) so the mean divides by
    /// the same global denominator the replicated path uses — one
    /// division, after the tree-structured reduction, keeping the ZeRO
    /// update bit-identical to the replicated one across layouts.
    ///
    /// # Panics
    ///
    /// Panics if `full_grad` does not hold `total` values.
    pub(crate) fn apply_grads(
        &mut self,
        comm: &Communicator,
        clock: &mut VirtualClock,
        full_grad: impl SumPart,
        local_rows: f32,
        rows: &RowPool,
    ) {
        assert_eq!(full_grad.as_ref().len(), self.total, "gradient length mismatch");
        // Chunks of the padded length, charged as the padded vector; the
        // padding behind the last rank's values has a zero gradient.
        let summed = comm.reduce_scatter_sum_shared(clock, full_grad, rows);
        let total_rows = comm.all_reduce_sum(clock, &[local_rows])[0];
        let mut my_grad = summed.to_vec();
        rows.give(summed.into_buffer());
        my_grad.resize(self.shard.len(), 0.0);
        self.opt.step_mean(&mut self.shard, &my_grad, total_rows.max(1.0));
    }

    /// This rank's `save_shard` reply: the store *is* the shard, and its
    /// Adam — the one [`ZeroParamStore::apply_grads`] steps — is the
    /// optimizer state worth saving; every rank owns its slice.
    pub(crate) fn shard_reply(&self, rank: usize, gen_round: u64) -> Result<DataProto> {
        let (m, v, opt_t) = self.opt.state();
        let (start, len) = (self.range.start, self.range.len());
        let head =
            ShardHeader { rank, start, len, owner: true, total: self.total, gen_round, opt_t };
        encode_shard(head, self.shard.len(), [&self.shard[..], m, v].map(|x| &x[..len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_shards_and_ranges_tile() {
        let full: Vec<f32> = (0..103).map(|i| i as f32).collect();
        let mut covered = 0;
        for r in 0..4 {
            let s = ZeroParamStore::new(&full, r, 4, 0.01);
            covered += s.range.len();
            assert!(s.resident_param_bytes() <= full.len() * 4 / 4 + 8);
        }
        assert_eq!(covered, 103);
    }

    #[test]
    #[should_panic(expected = "rank < world")]
    fn store_rejects_bad_rank() {
        ZeroParamStore::new(&[1.0], 2, 2, 0.1);
    }
}
