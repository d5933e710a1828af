//! Per-rank 3D-HybridEngine state machine over the virtual NCCL.
//!
//! An engine is built from a rank's training shard (the RLHF actor cuts
//! it out of the full replica it trains); [`HybridEngineRank::to_generation`]
//! performs the real all-gather inside the rank's gather group — its
//! micro-DP group under the strided method (one concurrent collective
//! per group, §5.3), its training model-parallel group under the
//! vanilla one — charging virtual time, and places the gathered
//! training shards into a generation shard by the group's
//! [`ReshardPlan`]. [`HybridEngineRank::to_generation_traced`] is the
//! same all-gather with telemetry, overlapped with the wait of the call
//! that caused it, and places nothing; it is the RLHF actor's one entry,
//! under both drivers and both groupings, and the actor drops the engine
//! with the generation call whose weights [`HybridEngineRank::gen_matches`]
//! checked. The all-gather shares the rank's training shard with its
//! peers instead of copying it, and the engine keeps the one shared list
//! of every member's shard the all-gather returns, which
//! [`HybridEngineRank::to_training`] drops. Which weights a rank would
//! hold beyond its generation shard is the plan's to count: hf-parallel's
//! `strided_grouping_is_zero_redundancy` and
//! `vanilla_grouping_has_redundancy_on_some_ranks` check Table 2's
//! redundancy column on it.

use std::sync::Arc;

use hf_parallel::{shard::train_shard, GenGrouping, ReshardPlan, ShardLayout};
use hf_simcluster::{CollectiveKind, Communicator, VirtualClock};
use hf_telemetry::{SpanKind, Telemetry};

/// Every gather-group member's training shard, in the group's rank
/// order, as the all-gather shared it.
type Gathered = Arc<Vec<(f64, Arc<Vec<f32>>)>>;

/// One rank's view of the actor weights across the two stages.
#[derive(Debug, Clone)]
pub struct HybridEngineRank {
    grouping: GenGrouping,
    layout: ShardLayout,
    rank: usize,
    train_buf: Arc<Vec<f32>>,
    gathered: Option<Gathered>,
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
        HybridEngineRank { grouping, layout, rank, train_buf: Arc::new(train_buf), gathered: None }
    }

    /// Transitions train → generation: one all-gather within the rank's
    /// micro-DP group (strided) or model-parallel group (vanilla),
    /// executed through `comm` with virtual-time charging, then placement
    /// of every member's training shard into this rank's generation shard
    /// by the group's [`ReshardPlan`], which is returned.
    ///
    /// `comm` must be the communicator of this rank's
    /// [`GenGrouping::gather_group`], with
    /// members ordered by ascending global rank.
    ///
    /// # Panics
    ///
    /// Panics if the communicator size disagrees with the gather group.
    pub fn to_generation(&mut self, comm: &Communicator, clock: &mut VirtualClock) -> Vec<f32> {
        self.gather(comm, clock);
        let group = self.grouping.gather_group(self.rank);
        let gathered = self.gathered.as_deref().expect("just gathered");
        let member = |src| &gathered[group.iter().position(|&r| r == src).expect("member")].1[..];
        ReshardPlan::to_generation(&self.layout, &self.grouping, self.rank).apply(member)
    }

    /// [`Self::to_generation`]'s all-gather; returns the bytes the
    /// generation shard takes from the group's other members.
    fn gather(&mut self, comm: &Communicator, clock: &mut VirtualClock) -> usize {
        let group = self.grouping.gather_group(self.rank);
        assert_eq!(comm.size(), group.len(), "communicator/gather-group size mismatch");
        let my_pos = group.iter().position(|&r| r == self.rank).expect("member");
        assert_eq!(comm.rank(), my_pos, "communicator rank order mismatch");

        let shard_bytes: f64 = (self.train_buf.len() * 4) as f64;
        self.gathered = Some(comm.exchange_timed(
            clock,
            Arc::clone(&self.train_buf),
            CollectiveKind::AllGather,
            shard_bytes * comm.size() as f64,
        ));
        let plan = ReshardPlan::to_generation(&self.layout, &self.grouping, self.rank);
        (plan.dst_len() - plan.values_from(self.rank)) * 4
    }

    /// Whether every training shard the last all-gather brought in holds,
    /// bit for bit, what `params` — the whole flat parameter vector of
    /// this engine's layout — holds at that member's training ranges:
    /// whether the gather group's replicas agreed with this rank's on
    /// everything its generation shard is placed from. Bits, not floats:
    /// a NaN every replica holds matches, and a `+0.0` gathered where
    /// `params` holds `-0.0` does not.
    ///
    /// # Panics
    ///
    /// Panics if nothing is gathered or `params` is shorter than the
    /// layout.
    pub fn gen_matches(&self, params: &[f32]) -> bool {
        let gathered = self.gathered.as_deref().expect("gen_matches requires a gathered group");
        let layers = self.layout.layers();
        let group = self.grouping.gather_group(self.rank);
        group.into_iter().zip(gathered).all(|(member, (_, shard))| {
            let mut rest = &shard[..];
            let ranges = self.layout.ranges(&train_shard(&self.grouping.train, member, layers));
            ranges.into_iter().all(|r| {
                let (held, tail) = rest.split_at(r.len());
                rest = tail;
                // Without an early exit inside a range, which vectorises.
                (held.iter().zip(&params[r]))
                    .fold(0, |diff, (a, b)| diff | (a.to_bits() ^ b.to_bits()))
                    == 0
            })
        })
    }

    /// [`Self::to_generation`]'s all-gather with telemetry, overlapped
    /// with the wait of the call that needs the generation weights:
    /// records the all-gather as a communication span on `track` and
    /// counts the bytes this rank's generation shard takes from its
    /// gather-group peers — the per-GPU transition volume of Table 2.
    /// Recording reads the clock but never advances it.
    ///
    /// `arrival` is the virtual time the call reached this rank (the
    /// RLHF actor passes hf-core's `RankCtx::dispatch_time`); the
    /// all-gather is modeled as having started then, so it overlaps with
    /// whatever kept the rank busy past that instant (a queue of earlier
    /// calls, the tail of a train step draining from the mailbox). The collective
    /// runs on a scratch clock seeded from the rank's current time, so
    /// peer lockstep and the gather's cost `dt` are those of
    /// [`Self::to_generation`]; the rank's clock is charged only the
    /// portion of `dt` not already hidden, `max(0, arrival + dt − now)`.
    /// A rank idle at arrival (`arrival == now`) is charged `dt` in
    /// full, bit for bit [`Self::to_generation`]'s clock:
    /// `now + (scratch − now)` is `scratch` exactly while `dt ≤ now`
    /// (Sterbenz). When some of the gather was hidden, the span, a
    /// counter and a digest record the hidden part (`overlapped_s`,
    /// `…overlapped_us`).
    ///
    /// `cause` is the causal-graph id of the dispatch that triggered
    /// this transition (0 = none). The span also carries a
    /// `collective` arg naming the gather instance (`tag@rounds`),
    /// identical on every member rank, from which hf-insight stitches
    /// collective-membership edges.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` is later than the rank's current time — a
    /// call cannot arrive after it started executing.
    pub fn to_generation_traced(
        &mut self,
        comm: &Communicator,
        clock: &mut VirtualClock,
        telemetry: &Telemetry,
        track: &str,
        cause: u64,
        arrival: f64,
    ) {
        let now = clock.now();
        assert!(arrival <= now, "arrival {arrival} postdates the rank clock {now}");
        let round0 = comm.rounds();
        let mut scratch = *clock;
        let recv_bytes = self.gather(comm, &mut scratch);
        let dt = scratch.now() - now;
        clock.sync_to((arrival + dt).max(now));
        let overlapped = dt.min(now - arrival);
        let round1 = comm.rounds();
        if telemetry.is_enabled() {
            let mut args = vec![
                ("recv_bytes", recv_bytes.to_string()),
                ("collective", format!("{}@{round0}..{round1}", comm.collective_tag())),
            ];
            if overlapped > 0.0 {
                args.push(("overlapped_s", format!("{overlapped:.9}")));
            }
            telemetry.span_causal(
                track,
                "transition.to_generation",
                SpanKind::Comm,
                now,
                clock.now(),
                0,
                &[cause],
                &args,
            );
        }
        telemetry.add_counter("transition.to_generation.recv_bytes", recv_bytes as u64);
        telemetry.observe("transition.to_generation.seconds", clock.now() - now);
        if overlapped > 0.0 {
            telemetry.add_counter(
                "transition.to_generation.overlapped_us",
                (overlapped * 1e6).round() as u64,
            );
            telemetry.observe("transition.to_generation.overlapped_s", overlapped);
        }
    }

    /// Transitions generation → train: drops what the all-gather
    /// gathered. The training shard never left the engine.
    ///
    /// # Panics
    ///
    /// Panics if nothing is gathered.
    pub fn to_training(&mut self) {
        self.gathered.take().expect("to_training requires a gathered group");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reshard::ActorShards;
    use hf_parallel::{GroupingMethod, ParallelSpec};
    use hf_simcluster::{ClusterSpec, CommCostModel, CommGroup, DeviceId};
    use std::thread;

    /// Every rank is this far into its clock when the transition starts.
    const START: f64 = 100.0;

    /// One rank after the train→generation transition: its engine, the
    /// generation shard [`HybridEngineRank::to_generation`] placed (none
    /// from the traced entry), and the time its clock was charged.
    type Transitioned = (HybridEngineRank, Option<Vec<f32>>, f64);

    /// Every rank after the train→generation transition of `params`
    /// (`4 × 32` values) on actor 1-4-2, `t_g = 2`, through
    /// [`HybridEngineRank::to_generation_traced`] with the call's arrival
    /// `back` seconds before [`START`] (`None`: the untraced, blocking
    /// [`HybridEngineRank::to_generation`]).
    fn transition_of(
        method: GroupingMethod,
        params: &[f32],
        back: Option<f64>,
    ) -> (Vec<Transitioned>, ActorShards) {
        let spec = ParallelSpec::new(1, 4, 2);
        let grouping = GenGrouping::new(spec, 1, 2, method);
        let layout = ShardLayout::uniform(4, 32);
        let shards = ActorShards::scatter(params, layout.clone(), grouping);

        let world = spec.world();
        let cluster = Arc::new(ClusterSpec::a100_with_gpus(world));
        let groups: Vec<(Vec<usize>, CommGroup)> = (grouping.gather_groups().into_iter())
            .map(|g| {
                let devices = g.iter().map(|&x| DeviceId(x)).collect();
                (g, CommGroup::new(devices))
            })
            .collect();
        let handles: Vec<_> = (0..world)
            .map(|r| {
                let mut eng = HybridEngineRank::new(
                    r,
                    grouping,
                    layout.clone(),
                    shards.train_buf(r).to_vec(),
                );
                let (ranks, grp) = groups
                    .iter()
                    .find(|(ranks, _)| ranks.contains(&r))
                    .expect("group exists")
                    .clone();
                let pos = ranks.iter().position(|&x| x == r).unwrap();
                let comm = Communicator::new(grp, pos, cluster.clone(), CommCostModel::default());
                thread::spawn(move || {
                    let tel = Telemetry::disabled();
                    let mut clock = VirtualClock::new();
                    clock.advance(START);
                    let placed = match back {
                        None => Some(eng.to_generation(&comm, &mut clock)),
                        Some(back) => {
                            let arrival = START - back;
                            eng.to_generation_traced(&comm, &mut clock, &tel, "gpu-0", 0, arrival);
                            None
                        }
                    };
                    (eng, placed, clock.now() - START)
                })
            })
            .collect();
        (handles.into_iter().map(|h| h.join().unwrap()).collect(), shards)
    }

    fn iota() -> Vec<f32> {
        (0..4 * 32).map(|i| i as f32).collect()
    }

    #[test]
    fn overlapped_transition_with_no_headroom_matches_blocking_cost() {
        for method in [GroupingMethod::Strided, GroupingMethod::Vanilla] {
            let (blocking, _) = transition_of(method, &iota(), None);
            let (traced, _) = transition_of(method, &iota(), Some(0.0));
            for (rank, ((eng, _, charged), (_, _, blocking))) in
                traced.iter().zip(&blocking).enumerate()
            {
                assert!(eng.gen_matches(&iota()), "{method:?} rank {rank}");
                assert_eq!(
                    charged.to_bits(),
                    blocking.to_bits(),
                    "{method:?} rank {rank}: a rank idle at arrival is charged the blocking gather \
                     ({charged} vs {blocking})",
                );
            }
        }
    }

    #[test]
    fn overlapped_transition_hides_the_gather_behind_queue_wait() {
        let (traced, _) = transition_of(GroupingMethod::Strided, &iota(), Some(1e6));
        for (rank, (eng, _, charged)) in traced.iter().enumerate() {
            assert!(eng.gen_matches(&iota()), "rank {rank}");
            assert_eq!(
                *charged, 0.0,
                "rank {rank}: a dispatch far in the past fully hides the gather"
            );
        }
    }

    #[test]
    fn threaded_transition_is_byte_exact() {
        for method in [GroupingMethod::Strided, GroupingMethod::Vanilla] {
            let (ranks, shards) = transition_of(method, &iota(), None);
            for (rank, (_, placed, charged)) in ranks.iter().enumerate() {
                let placed = placed.as_deref().expect("to_generation places");
                assert_eq!(placed, shards.reference_gen_buf(rank), "{method:?} rank {rank}");
                assert!(*charged > 0.0, "{method:?} rank {rank}: all-gather must cost time");
            }
        }
    }

    #[test]
    fn replica_check_compares_bits() {
        let mut params = iota();
        params[5] = f32::NAN;
        for method in [GroupingMethod::Strided, GroupingMethod::Vanilla] {
            let (ranks, _) = transition_of(method, &params, Some(0.0));
            // A NaN every replica holds is no drift.
            assert!(ranks.iter().all(|(e, _, _)| e.gen_matches(&params)), "{method:?}: shared NaN");
            // Rank 0 gathered its own shard, which starts at parameter 0
            // as `+0.0`; a `-0.0` replica and a changed value each differ
            // from it.
            for (at, v) in [(0, -0.0), (1, 1.5)] {
                let mut other = params.clone();
                other[at] = v;
                assert!(!ranks[0].0.gen_matches(&other), "{method:?}: {v} at {at} not reported");
            }
        }
    }

    #[test]
    fn to_training_drops_the_gathered_group() {
        let (mut ranks, _) = transition_of(GroupingMethod::Strided, &iota(), None);
        let eng = &mut ranks[0].0;
        eng.to_training();
        assert!(eng.gathered.is_none());
        assert_eq!(Arc::strong_count(&eng.train_buf), 2, "rank 1 still holds the gathered list");
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
