//! Per-rank 3D-HybridEngine state machine over the virtual NCCL.
//!
//! Each actor rank holds its training shard; [`HybridEngineRank::to_generation`]
//! performs the real all-gather inside the rank's micro-DP group
//! communicator (one concurrent collective per group, §5.3), charging
//! virtual time, and materializes the generation shard.
//! [`HybridEngineRank::to_training`] drops generation-only weights; under
//! the strided method the training shard is a sub-slice of the
//! generation shard, so nothing extra was ever resident — the
//! zero-redundancy property, checked by [`HybridEngineRank::resident_param_bytes`].

use hf_parallel::{
    shard::{gen_shard, train_shard},
    GenGrouping, GroupingMethod, ShardLayout,
};
use hf_simcluster::{CollectiveKind, Communicator, VirtualClock};
use hf_telemetry::{SpanKind, Telemetry};

/// One rank's view of the actor weights across the two stages.
#[derive(Debug, Clone)]
pub struct HybridEngineRank {
    grouping: GenGrouping,
    layout: ShardLayout,
    rank: usize,
    train_buf: Vec<f32>,
    gen_buf: Option<Vec<f32>>,
}

impl HybridEngineRank {
    /// Creates the engine for `rank` holding `train_buf` (its training
    /// shard contents under `grouping.train`).
    ///
    /// # Panics
    ///
    /// Panics if `train_buf` has the wrong size for the rank's shard.
    pub fn new(
        rank: usize,
        grouping: GenGrouping,
        layout: ShardLayout,
        train_buf: Vec<f32>,
    ) -> Self {
        let sh = train_shard(&grouping.train, rank, layout.layers());
        assert_eq!(
            train_buf.len(),
            layout.shard_params(&sh),
            "training shard buffer size mismatch for rank {rank}"
        );
        HybridEngineRank { grouping, layout, rank, train_buf, gen_buf: None }
    }

    /// The rank's training-shard buffer.
    pub fn train_buf(&self) -> &[f32] {
        &self.train_buf
    }

    /// The generation-shard buffer, if currently materialized.
    pub fn gen_buf(&self) -> Option<&[f32]> {
        self.gen_buf.as_deref()
    }

    /// Parameter bytes resident on this rank right now. After
    /// [`Self::to_generation`], the strided method holds exactly the
    /// generation shard (training weights are a sub-slice and reuse it);
    /// the vanilla method additionally keeps the non-overlapping part of
    /// the training shard.
    pub fn resident_param_bytes(&self) -> usize {
        match &self.gen_buf {
            None => self.train_buf.len() * 4,
            Some(g) => {
                let layers = self.layout.layers();
                let tr = train_shard(&self.grouping.train, self.rank, layers);
                let ge = gen_shard(&self.grouping, self.rank, layers);
                let overlap = (tr.intersection_fraction(&ge) * self.layout.total_params() as f64)
                    .round() as usize;
                g.len() * 4 + (self.train_buf.len() - overlap) * 4
            }
        }
    }

    /// Transitions train → generation: one all-gather within the rank's
    /// micro-DP group (strided) or model-parallel group (vanilla),
    /// executed through `comm` with virtual-time charging, then local
    /// placement of every member's training shard into this rank's
    /// generation shard.
    ///
    /// `comm` must be the communicator of [`Self::gather_group`], with
    /// members ordered by ascending global rank.
    ///
    /// # Panics
    ///
    /// Panics if the communicator size disagrees with the gather group.
    pub fn to_generation(&mut self, comm: &Communicator, clock: &mut VirtualClock) -> &[f32] {
        let group = self.gather_group();
        assert_eq!(comm.size(), group.len(), "communicator/gather-group size mismatch");
        let my_pos = group.iter().position(|&r| r == self.rank).expect("member");
        assert_eq!(comm.rank(), my_pos, "communicator rank order mismatch");

        let shard_bytes: f64 = (self.train_buf.len() * 4) as f64;
        let contributions = comm.exchange_timed(
            clock,
            self.train_buf.clone(),
            CollectiveKind::AllGather,
            shard_bytes * comm.size() as f64,
        );

        let layers = self.layout.layers();
        let gshard = gen_shard(&self.grouping, self.rank, layers);
        let gen_ranges = self.layout.ranges(&gshard);
        let gen_len: usize = gen_ranges.iter().map(|r| r.len()).sum();
        let mut buf = vec![0.0f32; gen_len];
        // Each member's intersection with each generation range is one
        // copy, in member order (a later member wins an overlap); the
        // copied index ranges must cover the generation shard.
        let mut placed: Vec<(usize, usize)> = Vec::new();
        for (i, &src) in group.iter().enumerate() {
            let data = &contributions[i].1;
            let mut src_off = 0usize;
            for sr in self.layout.ranges(&train_shard(&self.grouping.train, src, layers)) {
                let mut gen_off = 0usize;
                for gr in &gen_ranges {
                    let (lo, hi) = (sr.start.max(gr.start), sr.end.min(gr.end));
                    if lo < hi {
                        let dst = gen_off + (lo - gr.start);
                        buf[dst..dst + (hi - lo)]
                            .copy_from_slice(&data[src_off + (lo - sr.start)..][..hi - lo]);
                        placed.push((dst, dst + (hi - lo)));
                    }
                    gen_off += gr.len();
                }
                src_off += sr.len();
            }
        }
        placed.sort_unstable();
        let (covered, _) = placed.iter().fold((0, 0), |(covered, end), &(lo, hi)| {
            (covered + hi.saturating_sub(lo.max(end)), end.max(hi))
        });
        assert_eq!(covered, gen_len, "gather group must cover the generation shard");
        self.gen_buf = Some(buf);
        self.gen_buf.as_deref().expect("just set")
    }

    /// Whether the generation shard holds, bit for bit, what `params` —
    /// the whole flat parameter vector of this engine's layout — holds at
    /// the shard's ranges: after [`Self::to_generation`], whether the
    /// gather group's replicas agreed with this rank's. Bits, not floats:
    /// a NaN every replica holds matches, and a `+0.0` gathered where
    /// `params` holds `-0.0` does not.
    ///
    /// # Panics
    ///
    /// Panics if no generation shard is materialized or `params` is
    /// shorter than the layout.
    pub fn gen_matches(&self, params: &[f32]) -> bool {
        let gen = self.gen_buf.as_deref().expect("gen_matches requires a generation shard");
        let ranges =
            self.layout.ranges(&gen_shard(&self.grouping, self.rank, self.layout.layers()));
        let mut rest = gen;
        ranges.into_iter().all(|r| {
            let (held, tail) = rest.split_at(r.len());
            rest = tail;
            // Without an early exit inside a range, which vectorises.
            held.iter().zip(&params[r]).fold(0, |diff, (a, b)| diff | (a.to_bits() ^ b.to_bits()))
                == 0
        })
    }

    /// [`Self::to_generation`] with telemetry: records the all-gather as
    /// a communication span on `track` and counts the bytes this rank
    /// receives from its gather-group peers — `(group_size − 1) ×
    /// train_shard_bytes`, the per-GPU transition volume of Table 2.
    /// Recording reads the clock but never advances it, so traced and
    /// untraced transitions take identical virtual time.
    ///
    /// `cause` is the causal-graph id of the dispatch that triggered
    /// this transition (0 = none). The span also carries a
    /// `collective` arg naming the gather instance (`tag@rounds`),
    /// identical on every member rank, from which hf-insight stitches
    /// collective-membership edges.
    pub fn to_generation_traced(
        &mut self,
        comm: &Communicator,
        clock: &mut VirtualClock,
        telemetry: &Telemetry,
        track: &str,
        cause: u64,
    ) -> &[f32] {
        let start = clock.now();
        let recv_bytes = (comm.size() - 1) * self.train_buf.len() * 4;
        let round0 = comm.rounds();
        self.to_generation(comm, clock);
        let round1 = comm.rounds();
        if telemetry.is_enabled() {
            telemetry.span_causal(
                track,
                "transition.to_generation",
                SpanKind::Comm,
                start,
                clock.now(),
                0,
                &[cause],
                &[
                    ("recv_bytes", recv_bytes.to_string()),
                    ("collective", format!("{}@{round0}..{round1}", comm.collective_tag())),
                ],
            );
        }
        telemetry.add_counter("transition.to_generation.recv_bytes", recv_bytes as u64);
        telemetry.observe("transition.to_generation.seconds", clock.now() - start);
        self.gen_buf.as_deref().expect("just set")
    }

    /// [`Self::to_generation_traced`] for pipelined execution: models
    /// the all-gather as having started at `overlap_from` — the virtual
    /// time the controller dispatched the call that needs the
    /// generation weights — so it overlaps with whatever kept this rank
    /// busy past that instant (typically the tail of the previous train
    /// step draining from the mailbox). The collective itself runs on a
    /// scratch clock seeded from the rank's current time, so peer
    /// lockstep and the gather's cost `dt` are identical to the
    /// blocking entry; only the charge against this rank's clock
    /// shrinks to the portion of `dt` not already hidden:
    /// `charged = max(0, overlap_from + dt − now)`.
    ///
    /// With `overlap_from == clock.now()` this is byte- and
    /// time-identical to [`Self::to_generation_traced`].
    ///
    /// # Panics
    ///
    /// Panics if `overlap_from` is later than the rank's current time —
    /// a dispatch cannot postdate the execution it caused.
    #[allow(clippy::too_many_arguments)]
    pub fn to_generation_overlapped(
        &mut self,
        comm: &Communicator,
        clock: &mut VirtualClock,
        telemetry: &Telemetry,
        track: &str,
        cause: u64,
        overlap_from: f64,
    ) -> &[f32] {
        let now = clock.now();
        assert!(overlap_from <= now, "overlap_from {overlap_from} postdates the rank clock {now}");
        let recv_bytes = (comm.size() - 1) * self.train_buf.len() * 4;
        let round0 = comm.rounds();
        let mut scratch = *clock;
        self.to_generation(comm, &mut scratch);
        let round1 = comm.rounds();
        let dt = scratch.now() - now;
        let overlapped = dt.min(now - overlap_from);
        clock.sync_to((overlap_from + dt).max(now));
        if telemetry.is_enabled() {
            telemetry.span_causal(
                track,
                "transition.to_generation",
                SpanKind::Comm,
                now,
                clock.now(),
                0,
                &[cause],
                &[
                    ("recv_bytes", recv_bytes.to_string()),
                    ("collective", format!("{}@{round0}..{round1}", comm.collective_tag())),
                    ("overlapped_s", format!("{overlapped:.9}")),
                ],
            );
        }
        telemetry.add_counter("transition.to_generation.recv_bytes", recv_bytes as u64);
        telemetry.add_counter(
            "transition.to_generation.overlapped_us",
            (overlapped * 1e6).round() as u64,
        );
        telemetry.observe("transition.to_generation.seconds", clock.now() - now);
        telemetry.observe("transition.to_generation.overlapped_s", overlapped);
        self.gen_buf.as_deref().expect("just set")
    }

    /// Transitions generation → train: re-extracts the (possibly updated)
    /// training shard from the generation buffer and releases it.
    ///
    /// # Panics
    ///
    /// Panics if no generation shard is materialized.
    pub fn to_training(&mut self) {
        let g = self.gen_buf.take().expect("to_training requires a generation shard");
        let layers = self.layout.layers();
        let tr = train_shard(&self.grouping.train, self.rank, layers);
        let ge = gen_shard(&self.grouping, self.rank, layers);
        if tr.is_subset_of(&ge) {
            // Zero-redundancy path: the training weights live inside the
            // generation buffer; copy them back out.
            let gen_ranges = self.layout.ranges(&ge);
            let mut cursor = 0usize;
            let mut out = Vec::with_capacity(self.train_buf.len());
            for gr in &gen_ranges {
                for tr_range in self.layout.ranges(&tr) {
                    let lo = tr_range.start.max(gr.start);
                    let hi = tr_range.end.min(gr.end);
                    if lo < hi {
                        let off = cursor + (lo - gr.start);
                        out.extend_from_slice(&g[off..off + (hi - lo)]);
                    }
                }
                cursor += gr.len();
            }
            assert_eq!(out.len(), self.train_buf.len());
            self.train_buf = out;
        }
        // Vanilla / non-overlapping: the separately-kept training shard
        // is already authoritative; the generation buffer is dropped.
    }

    /// [`Self::to_training`] with telemetry: the strided copy-back is
    /// communication-free, so the span is an instantaneous marker that
    /// shows in traces where the engine flips back to training mode.
    /// `cause` links the marker to the dispatch that triggered it.
    pub fn to_training_traced(
        &mut self,
        clock: &VirtualClock,
        telemetry: &Telemetry,
        track: &str,
        cause: u64,
    ) {
        self.to_training();
        let now = clock.now();
        telemetry.span_causal(
            track,
            "transition.to_training",
            SpanKind::Comm,
            now,
            now,
            0,
            &[cause],
            &[("recv_bytes", "0".into())],
        );
        telemetry.add_counter("transition.to_training.count", 1);
    }

    /// The global ranks whose shards this rank gathers.
    pub fn gather_group(&self) -> Vec<usize> {
        match self.grouping.method {
            GroupingMethod::Strided => self.grouping.micro_dp_group_of(self.rank),
            GroupingMethod::Vanilla => self.grouping.train.mp_group_of(self.rank),
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::reshard::ActorShards;
    use hf_parallel::ParallelSpec;
    use hf_simcluster::{ClusterSpec, CommCostModel, CommGroup, DeviceId};
    use std::sync::Arc;
    use std::thread;

    fn run_transition(method: GroupingMethod) -> (Vec<Vec<f32>>, Vec<f64>, ActorShards) {
        let params: Vec<f32> = (0..4 * 32).map(|i| i as f32).collect();
        let (engines, times, shards) = transition_of(method, &params);
        let gens = engines.iter().map(|e| e.gen_buf().unwrap().to_vec()).collect();
        (gens, times, shards)
    }

    /// Every rank's engine after the train→generation transition of
    /// `params` (`4 × 32` values) on actor 1-4-2, `t_g = 2`.
    fn transition_of(
        method: GroupingMethod,
        params: &[f32],
    ) -> (Vec<HybridEngineRank>, Vec<f64>, ActorShards) {
        let spec = ParallelSpec::new(1, 4, 2);
        let grouping = GenGrouping::new(spec, 1, 2, method);
        let layout = ShardLayout::uniform(4, 32);
        let shards = ActorShards::scatter(params, layout.clone(), grouping);

        // Build one CommGroup per distinct gather group.
        let world = spec.world();
        let cluster = Arc::new(ClusterSpec::a100_with_gpus(world));
        let mut engines: Vec<HybridEngineRank> = (0..world)
            .map(|r| {
                HybridEngineRank::new(r, grouping, layout.clone(), shards.train_buf(r).to_vec())
            })
            .collect();
        let mut groups: Vec<(Vec<usize>, CommGroup)> = Vec::new();
        for r in 0..world {
            let g = engines[r].gather_group();
            if !groups.iter().any(|(ranks, _)| ranks == &g) {
                let devices = g.iter().map(|&x| DeviceId(x)).collect();
                groups.push((g, CommGroup::new(devices)));
            }
        }
        let handles: Vec<_> = engines
            .drain(..)
            .enumerate()
            .map(|(r, mut eng)| {
                let (ranks, grp) = groups
                    .iter()
                    .find(|(ranks, _)| ranks.contains(&r))
                    .expect("group exists")
                    .clone();
                let pos = ranks.iter().position(|&x| x == r).unwrap();
                let comm = Communicator::new(grp, pos, cluster.clone(), CommCostModel::default());
                thread::spawn(move || {
                    let mut clock = VirtualClock::new();
                    eng.to_generation(&comm, &mut clock);
                    (eng, clock.now())
                })
            })
            .collect();
        let (engines, times) = handles.into_iter().map(|h| h.join().unwrap()).unzip();
        (engines, times, shards)
    }

    /// Runs the strided transition on every rank through
    /// `to_generation_overlapped` with the dispatch `back` seconds
    /// before each rank's current time; returns per-rank generation
    /// buffers, the time each rank's blocking baseline would have
    /// finished at, and the overlapped finish times.
    fn run_overlapped(back: f64) -> (Vec<Vec<f32>>, Vec<f64>, Vec<f64>, ActorShards) {
        let spec = ParallelSpec::new(1, 4, 2);
        let grouping = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(4, 32);
        let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32).collect();
        let shards = ActorShards::scatter(&params, layout.clone(), grouping);
        let world = spec.world();
        let cluster = Arc::new(ClusterSpec::a100_with_gpus(world));
        let engines: Vec<HybridEngineRank> = (0..world)
            .map(|r| {
                HybridEngineRank::new(r, grouping, layout.clone(), shards.train_buf(r).to_vec())
            })
            .collect();
        let mut groups: Vec<(Vec<usize>, CommGroup)> = Vec::new();
        for r in 0..world {
            let g = engines[r].gather_group();
            if !groups.iter().any(|(ranks, _)| ranks == &g) {
                let devices = g.iter().map(|&x| DeviceId(x)).collect();
                groups.push((g, CommGroup::new(devices)));
            }
        }
        let start = 100.0; // all ranks already `start` seconds in
        let handles: Vec<_> = engines
            .into_iter()
            .enumerate()
            .map(|(r, mut eng)| {
                let (ranks, grp) = groups
                    .iter()
                    .find(|(ranks, _)| ranks.contains(&r))
                    .expect("group exists")
                    .clone();
                let pos = ranks.iter().position(|&x| x == r).unwrap();
                let comm = Communicator::new(grp, pos, cluster.clone(), CommCostModel::default());
                thread::spawn(move || {
                    let tel = hf_telemetry::Telemetry::disabled();
                    let mut clock = VirtualClock::new();
                    clock.advance(start);
                    // What the blocking entry would charge (scratch run
                    // shape): rerun below measures the real one.
                    let before = clock.now();
                    eng.to_generation_overlapped(
                        &comm,
                        &mut clock,
                        &tel,
                        "gpu-0",
                        0,
                        before - back,
                    );
                    (eng.gen_buf().unwrap().to_vec(), before, clock.now())
                })
            })
            .collect();
        let mut gens = Vec::new();
        let mut befores = Vec::new();
        let mut afters = Vec::new();
        for h in handles {
            let (g, b, a) = h.join().unwrap();
            gens.push(g);
            befores.push(b);
            afters.push(a);
        }
        (gens, befores, afters, shards)
    }

    #[test]
    fn overlapped_transition_with_no_headroom_matches_blocking_cost() {
        let (_, times_blocking, _) = run_transition(GroupingMethod::Strided);
        let (gens, befores, afters, shards) = run_overlapped(0.0);
        for (rank, g) in gens.iter().enumerate() {
            assert_eq!(g, &shards.reference_gen_buf(rank), "rank {rank}");
            let charged = afters[rank] - befores[rank];
            assert!(
                (charged - times_blocking[rank]).abs() < 1e-12,
                "rank {rank}: zero headroom must charge the full gather ({charged} vs {})",
                times_blocking[rank]
            );
        }
    }

    #[test]
    fn overlapped_transition_hides_the_gather_behind_queue_wait() {
        let (gens, befores, afters, shards) = run_overlapped(1e6);
        for (rank, g) in gens.iter().enumerate() {
            assert_eq!(g, &shards.reference_gen_buf(rank), "rank {rank}");
            assert_eq!(
                afters[rank], befores[rank],
                "rank {rank}: a dispatch far in the past fully hides the gather"
            );
        }
    }

    #[test]
    fn threaded_strided_transition_is_byte_exact() {
        let (gens, times, shards) = run_transition(GroupingMethod::Strided);
        for (rank, g) in gens.iter().enumerate() {
            assert_eq!(g, &shards.reference_gen_buf(rank), "rank {rank}");
        }
        assert!(times.iter().all(|&t| t > 0.0), "all-gather must cost time");
    }

    #[test]
    fn threaded_vanilla_transition_is_byte_exact() {
        let (gens, _, shards) = run_transition(GroupingMethod::Vanilla);
        for (rank, g) in gens.iter().enumerate() {
            assert_eq!(g, &shards.reference_gen_buf(rank), "rank {rank}");
        }
    }

    #[test]
    fn replica_check_compares_bits() {
        let mut params: Vec<f32> = (0..4 * 32).map(|i| i as f32).collect();
        params[5] = f32::NAN;
        for method in [GroupingMethod::Strided, GroupingMethod::Vanilla] {
            let (engines, _, _) = transition_of(method, &params);
            // A NaN every replica holds is no drift.
            assert!(engines.iter().all(|e| e.gen_matches(&params)), "{method:?}: shared NaN");
            // Rank 0's generation shard starts at parameter 0, which it
            // gathered as `+0.0`; a `-0.0` replica and a changed value
            // each differ from it.
            for (at, v) in [(0, -0.0), (1, 1.5)] {
                let mut other = params.clone();
                other[at] = v;
                assert!(!engines[0].gen_matches(&other), "{method:?}: {v} at {at} not reported");
            }
        }
    }

    #[test]
    fn strided_is_zero_redundancy_vanilla_is_not() {
        let spec = ParallelSpec::new(1, 4, 2);
        let layout = ShardLayout::uniform(4, 32);
        let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32).collect();
        let total_gen_bytes = layout.total_params() / 2 * 4; // t_g = 2 shard

        for (method, any_redundant) in
            [(GroupingMethod::Strided, false), (GroupingMethod::Vanilla, true)]
        {
            let grouping = GenGrouping::new(spec, 1, 2, method);
            let shards = ActorShards::scatter(&params, layout.clone(), grouping);
            let mut redundant = false;
            for r in 0..8 {
                let mut eng = HybridEngineRank::new(
                    r,
                    grouping,
                    layout.clone(),
                    shards.train_buf(r).to_vec(),
                );
                // Bypass threads: emulate the gather locally.
                eng.gen_buf = Some(shards.reshard_to_gen(r));
                if eng.resident_param_bytes() > total_gen_bytes {
                    redundant = true;
                }
            }
            assert_eq!(redundant, any_redundant, "{method:?}");
        }
    }

    #[test]
    fn round_trip_preserves_updated_weights() {
        // Generation-stage weight edits inside the overlapping region
        // must survive to_training (same memory in the real engine).
        let spec = ParallelSpec::new(1, 4, 1);
        let grouping = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(4, 32);
        let params: Vec<f32> = (0..layout.total_params()).map(|i| i as f32).collect();
        let shards = ActorShards::scatter(&params, layout.clone(), grouping);
        let mut eng =
            HybridEngineRank::new(1, grouping, layout.clone(), shards.train_buf(1).to_vec());
        eng.gen_buf = Some(shards.reshard_to_gen(1));
        // Overwrite the entire generation buffer with +1000.
        for v in eng.gen_buf.as_mut().unwrap().iter_mut() {
            *v += 1000.0;
        }
        eng.to_training();
        let expect: Vec<f32> = shards.train_buf(1).iter().map(|v| v + 1000.0).collect();
        assert_eq!(eng.train_buf(), expect.as_slice());
        assert!(eng.gen_buf().is_none());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_shard_size_rejected() {
        let spec = ParallelSpec::new(1, 4, 1);
        let grouping = GenGrouping::new(spec, 1, 2, GroupingMethod::Strided);
        let layout = ShardLayout::uniform(4, 32);
        HybridEngineRank::new(0, grouping, layout, vec![0.0; 3]);
    }
}
