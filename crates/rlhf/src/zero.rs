//! A functional ZeRO-3 actor (the paper's `ZeROWorker` base class,
//! §4.1): model parameters live *sharded* 1/world per rank, are
//! all-gathered through the virtual NCCL before any computation, and
//! gradients are reduce-scattered so each rank's Adam updates only its
//! own slice — DeepSpeed-style data parallelism, executing for real.
//!
//! Because Adam is elementwise, the ZeRO path is numerically identical
//! to the replicated-actor path (`reduce-scatter(Σg)/d` + shard-local
//! Adam ≡ `all-reduce(Σg)/d` + full Adam restricted to the shard); the
//! integration suite asserts bit-identical learning trajectories.

use hf_core::{CoreError, DataProto, RankCtx, Result, Worker};
use hf_nn::{Adam, LmConfig};
use hf_resilience::{encode_shard, shard_range, AssembledState, ShardHeader};
use hf_simcluster::{Communicator, SumPart, VirtualClock};

use crate::workers::{ActorWorker, GradOnly, WorkerHyper};

/// A ZeRO-3 parameter store: this rank's contiguous shard of the flat
/// parameter vector plus shard-local optimizer state.
pub struct ZeroParamStore {
    shard: Vec<f32>,
    start: usize,
    total: usize,
    opt: Adam,
    /// Padded shard length (uniform across ranks so collectives align).
    padded: usize,
}

impl ZeroParamStore {
    /// Shards `full` across `world` ranks, keeping slice `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world` or `full` is empty.
    pub fn new(full: &[f32], rank: usize, world: usize, lr: f32) -> Self {
        assert!(rank < world && !full.is_empty());
        let total = full.len();
        let (range, padded) = shard_range(total, rank, world);
        let start = range.start;
        let mut shard = full[range].to_vec();
        shard.resize(padded, 0.0);
        ZeroParamStore { opt: Adam::new(padded, lr), shard, start, total, padded }
    }

    /// Bytes of parameters resident on this rank (the ZeRO-3 memory
    /// claim: `total/world`, not `total`).
    pub fn resident_param_bytes(&self) -> usize {
        self.shard.len() * 4
    }

    /// All-gathers the full flat parameter vector (transient; dropped
    /// after the pass, as ZeRO-3 materializes parameters on demand).
    pub(crate) fn gather(&self, comm: &Communicator, clock: &mut VirtualClock) -> Vec<f32> {
        let mut full = comm.all_gather(clock, &self.shard);
        full.truncate(self.total);
        full
    }

    /// Reduce-scatters `full_grad` (each rank's *unscaled* chunk
    /// gradient sum, given by value: nothing of its size is copied),
    /// divides by the global row count, and applies Adam to this rank's
    /// shard.
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
    ) {
        assert_eq!(full_grad.as_ref().len(), self.total, "gradient length mismatch");
        // Chunks of `padded` values, charged as the padded vector; the
        // padding behind the last rank's values has a zero gradient.
        let summed = comm.reduce_scatter_sum_shared(clock, full_grad);
        let total_rows = comm.all_reduce_sum(clock, &[local_rows])[0];
        let mut my_grad = summed.to_vec();
        my_grad.resize(self.padded, 0.0);
        self.opt.step_mean(&mut self.shard, &my_grad, total_rows.max(1.0));
    }

    /// This rank's shard slice within the flat vector.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.start..(self.start + self.padded).min(self.total)
    }

    /// This rank's padded shard (tail zeros beyond [`ZeroParamStore::range`]).
    pub(crate) fn shard(&self) -> &[f32] {
        &self.shard
    }

    /// Total (unpadded) parameter count.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Shard-local Adam state `(m, v, t)` at padded width.
    pub(crate) fn opt_state(&self) -> (&[f32], &[f32], u64) {
        self.opt.state()
    }

    /// Restores this rank's shard-local Adam moments from *full*
    /// moment vectors (e.g. assembled from a checkpoint), slicing and
    /// padding to this shard's range.
    ///
    /// # Panics
    ///
    /// Panics if the moment lengths disagree with `total`.
    pub(crate) fn load_opt_from_full(&mut self, m_full: &[f32], v_full: &[f32], t: u64) {
        assert_eq!(m_full.len(), self.total, "optimizer m length mismatch");
        assert_eq!(v_full.len(), self.total, "optimizer v length mismatch");
        let r = self.range();
        let mut m = m_full[r.clone()].to_vec();
        let mut v = v_full[r].to_vec();
        m.resize(self.padded, 0.0);
        v.resize(self.padded, 0.0);
        self.opt.load_state(&m, &v, t);
    }
}

/// An actor whose weights are ZeRO-3-sharded across the worker group
/// (pure data parallelism: layout must be `1-1-d`).
pub struct ZeroActorWorker {
    inner: ActorWorker,
    store: Option<ZeroParamStore>,
    lr: f32,
}

impl ZeroActorWorker {
    /// Builds the ZeRO actor; sharding is established lazily on the
    /// first call (when the rank/world are known from the context).
    pub fn new(cfg: LmConfig, hyper: WorkerHyper) -> Self {
        let lr = hyper.lr;
        ZeroActorWorker { inner: ActorWorker::new(cfg, hyper), store: None, lr }
    }

    fn ensure_store(&mut self, ctx: &RankCtx) {
        if self.store.is_none() {
            let full = self.inner.lm().flat().to_vec();
            self.store = Some(ZeroParamStore::new(
                &full,
                ctx.comms.world.rank(),
                ctx.comms.world.size(),
                self.lr,
            ));
        }
    }
}

impl Worker for ZeroActorWorker {
    fn execute(&mut self, method: &str, data: DataProto, ctx: &mut RankCtx) -> Result<DataProto> {
        if ctx.layout.spec.mp() != 1 {
            return Err(CoreError::Config(
                "ZeroActorWorker requires a pure data-parallel layout (1-1-d)".into(),
            ));
        }
        self.ensure_store(ctx);
        // Materialize the full weights for this pass (ZeRO-3 gather).
        let full = {
            let store = self.store.as_ref().expect("store initialized");
            let mut clock = ctx.clock;
            let full = store.gather(&ctx.comms.world, &mut clock);
            ctx.clock = clock;
            full
        };
        self.inner.lm_mut().flat_mut().copy_from_slice(&full);
        self.inner.mark_weights_dirty();
        match method {
            "update_actor" => {
                let (sum, m) = self.inner.actor_grads(&data, ctx)?;
                let store = self.store.as_mut().expect("store initialized");
                // The gradient reduce-scatter runs as a second collective
                // round on the world communicator.
                let mut clock = ctx.clock;
                let count = *sum.as_ref().last().expect("the row count");
                store.apply_grads(&ctx.comms.world, &mut clock, GradOnly(sum), count);
                ctx.clock = clock;
                Ok(m)
            }
            // ZeRO-aware sharded checkpoint: the store *is* the shard,
            // and the shard-local Adam (the one actually stepped, not the
            // inner worker's) is the optimizer state worth saving — every
            // rank owns its slice.
            "save_shard" => {
                let store = self.store.as_ref().expect("store initialized");
                let (m, v, opt_t) = store.opt_state();
                let range = store.range();
                let len = range.len();
                let head = ShardHeader {
                    rank: ctx.rank,
                    start: range.start,
                    len,
                    owner: true,
                    total: store.total(),
                    gen_round: self.inner.gen_round(),
                    opt_t,
                };
                encode_shard(head, store.shard().len(), [store.shard(), m, v].map(|x| &x[..len]))
            }
            "load_checkpoint" => {
                let st = AssembledState::from_load_input(&data, full.len())?;
                self.inner.load_state(&st);
                // Rebuild the shard store from the restored weights:
                // without this, the next pass's gather would overwrite
                // the restored parameters with the stale pre-restore
                // shards. The shard-local Adam — the one `update_actor`
                // actually steps — is restored from the full moments.
                let world = &ctx.comms.world;
                let mut store =
                    ZeroParamStore::new(&st.params, world.rank(), world.size(), self.lr);
                store.load_opt_from_full(&st.opt_m, &st.opt_v, st.opt_t);
                self.store = Some(store);
                Ok(DataProto::empty())
            }
            other => self.inner.execute(other, data, ctx),
        }
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
            covered += s.range().len();
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
