//! Transfer protocols (paper §4.1, Appendix B / Table 3).
//!
//! Each worker-group method is registered with a transfer protocol: a
//! `distribute` function mapping the controller's input batch to
//! per-rank inputs, and a `collect` function assembling per-rank outputs
//! back into one batch. Protocols hide many-to-many data resharding
//! between models with different parallelism from the algorithm code.

use hf_parallel::{GenGrouping, ParallelSpec};

use crate::data::DataProto;
use crate::error::{CoreError, Result};

/// Parallel layout of a worker group: the training-stage 3D spec plus an
/// optional generation grouping (present on the actor, which transitions
/// between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLayout {
    /// The `p-t-d` layout the group is constructed with.
    pub spec: ParallelSpec,
    /// The generation grouping, if the group runs a 3D-HybridEngine.
    pub gen: Option<GenGrouping>,
}

impl WorkerLayout {
    /// A layout with no generation stage.
    pub fn train_only(spec: ParallelSpec) -> Self {
        WorkerLayout { spec, gen: None }
    }

    /// A layout with a generation grouping (actor model).
    pub fn with_gen(gen: GenGrouping) -> Self {
        WorkerLayout { spec: gen.train, gen: Some(gen) }
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.spec.world()
    }
}

/// Stamps each row chunk, laid out in global order, with its global
/// starting row ([`DataProto::row_offset`]) — chunk-local row indices
/// differ across `d`/micro-DP layouts and were the source of a
/// cross-layout generation divergence hf-audit caught.
///
/// If the batch already carries a row offset (inherited by every chunk
/// via `DataProto::chunk`), it is the batch's own global starting row
/// and offsets continue from it. A pipelined driver uses this to
/// dispatch one *slice* of a logical batch per call while keeping global
/// row identity — and with it per-request sampler seeds — identical to
/// the unsliced dispatch. Unstamped batches start at 0.
fn annotate_row_offsets(chunks: &mut [DataProto]) {
    let mut row0 = chunks.first().and_then(DataProto::row_offset).unwrap_or(0);
    for c in chunks.iter_mut() {
        c.set_row_offset(Some(row0));
        row0 += c.rows();
    }
}

/// The eight predefined transfer protocols (Table 3), plus the
/// collect/distribute contract they implement. Users can add custom
/// protocols by implementing [`Protocol::distribute`]-equivalent logic
/// at the call site; the runtime only needs the two functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Broadcast the input to every rank; gather all ranks' outputs
    /// (row-concatenated). Model initialization and other SPMD-uniform
    /// methods.
    OneToAll,
    /// Split the input across DP groups (all ranks of a DP group see the
    /// same chunk); collect row-concatenated outputs from the `p = last,
    /// t = 0` rank of each DP group — the 3D-parallel training scenario.
    ThreeD,
    /// Split the input across generation (micro-DP) replicas; collect
    /// from the first rank of each replica. Used with the HybridEngine
    /// when the actor switches between training and generation layouts.
    ThreeDAllMicroDp,
    /// Broadcast to all ranks; collect from the `t = 0, d = 0` rank of
    /// every pipeline stage (e.g. examining per-stage weight names).
    ThreeDPpOnly,
    /// Split the input across DP ranks one-to-one; collect from all
    /// ranks. Pure data-parallel groups (`world == d`).
    Dp,
    /// No distribution transform (every rank receives the full input);
    /// gather all ranks' outputs. Debugging.
    AllToAll,
    /// Send the input to rank 0 only; collect rank 0's output.
    /// Controller-driven coordination such as checkpointing (§9).
    OneToOne,
    /// Broadcast the full input to every rank; collect concatenated
    /// outputs from DP-group leaders (a replicated compute with
    /// DP-sharded outputs, e.g. scoring a shared batch).
    DpAllGather,
}

impl Protocol {
    /// All predefined protocols.
    pub fn all() -> [Protocol; 8] {
        [
            Protocol::OneToAll,
            Protocol::ThreeD,
            Protocol::ThreeDAllMicroDp,
            Protocol::ThreeDPpOnly,
            Protocol::Dp,
            Protocol::AllToAll,
            Protocol::OneToOne,
            Protocol::DpAllGather,
        ]
    }

    /// Splits the controller's `data` into one input per rank.
    ///
    /// Ranks that receive no work get an empty batch (they still execute
    /// the method, which lets SPMD code participate in collectives).
    pub fn distribute(&self, layout: &WorkerLayout, data: &DataProto) -> Result<Vec<DataProto>> {
        let world = layout.world();
        let spec = &layout.spec;
        match self {
            Protocol::OneToAll
            | Protocol::AllToAll
            | Protocol::ThreeDPpOnly
            | Protocol::DpAllGather => Ok(vec![data.clone(); world]),
            Protocol::OneToOne => {
                let mut out = vec![DataProto::empty(); world];
                out[0] = data.clone();
                Ok(out)
            }
            Protocol::Dp => {
                if world != spec.d {
                    return Err(CoreError::Config(format!(
                        "DP_PROTO needs a pure data-parallel group (world {world} != d {})",
                        spec.d
                    )));
                }
                let mut chunks = data.chunk(world);
                annotate_row_offsets(&mut chunks);
                Ok(chunks)
            }
            Protocol::ThreeD => {
                let mut chunks = data.chunk(spec.d);
                annotate_row_offsets(&mut chunks);
                Ok((0..world).map(|r| chunks[spec.coords(r).d_idx].clone()).collect())
            }
            Protocol::ThreeDAllMicroDp => {
                let gen = layout.gen.ok_or_else(|| {
                    CoreError::Config("3D_ALL_MICRO_DP requires a generation grouping".into())
                })?;
                let replicas = gen.gen_replicas_total();
                let mut chunks = data.chunk(replicas);
                annotate_row_offsets(&mut chunks);
                Ok((0..world).map(|r| chunks[gen.gen_coords(r).replica].clone()).collect())
            }
        }
    }

    /// Assembles per-rank `outputs` into the controller's result.
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len()` disagrees with the layout's world size.
    pub fn collect(&self, layout: &WorkerLayout, mut outputs: Vec<DataProto>) -> Result<DataProto> {
        let world = layout.world();
        assert_eq!(outputs.len(), world, "collect needs one output per rank");
        let spec = &layout.spec;
        // Leaders are distinct ranks: move their outputs, do not clone.
        let mut take = |rank: usize| std::mem::take(&mut outputs[rank]);
        let mut out = match self {
            Protocol::OneToAll | Protocol::AllToAll | Protocol::Dp => DataProto::concat(&outputs),
            Protocol::OneToOne => Ok(take(0)),
            Protocol::ThreeD | Protocol::DpAllGather => {
                // One leader per DP group: p = last stage, t = 0, ordered
                // by d_idx.
                let leaders: Vec<DataProto> = (0..spec.d)
                    .map(|d_idx| {
                        take(spec.rank_of(hf_parallel::TrainCoord {
                            d_idx,
                            p_idx: spec.p - 1,
                            t_idx: 0,
                        }))
                    })
                    .collect();
                DataProto::concat(&leaders)
            }
            Protocol::ThreeDAllMicroDp => {
                let gen = layout.gen.ok_or_else(|| {
                    CoreError::Config("3D_ALL_MICRO_DP requires a generation grouping".into())
                })?;
                let replicas = gen.gen_replicas_total();
                // First rank of each generation replica, ordered by replica.
                let mut leader_of = vec![usize::MAX; replicas];
                for r in 0..world {
                    let gc = gen.gen_coords(r);
                    if r < leader_of[gc.replica] {
                        leader_of[gc.replica] = r;
                    }
                }
                let leaders: Vec<DataProto> = leader_of.iter().map(|&r| take(r)).collect();
                DataProto::concat(&leaders)
            }
            Protocol::ThreeDPpOnly => {
                let leaders: Vec<DataProto> = (0..spec.p)
                    .map(|p_idx| {
                        take(spec.rank_of(hf_parallel::TrainCoord { d_idx: 0, p_idx, t_idx: 0 }))
                    })
                    .collect();
                DataProto::concat(&leaders)
            }
        }?;
        // The row offset is per-chunk provenance; a reassembled batch
        // starts at row 0 again.
        out.set_row_offset(None);
        Ok(out)
    }

    /// Whether rank `r` is a *collected* rank under this protocol (its
    /// output reaches the controller). Model workers use this to decide
    /// which ranks materialize outputs.
    pub fn is_collected(&self, layout: &WorkerLayout, r: usize) -> bool {
        let spec = &layout.spec;
        match self {
            Protocol::OneToAll | Protocol::AllToAll | Protocol::Dp => true,
            Protocol::OneToOne => r == 0,
            Protocol::ThreeD | Protocol::DpAllGather => {
                let c = spec.coords(r);
                c.p_idx == spec.p - 1 && c.t_idx == 0
            }
            Protocol::ThreeDAllMicroDp => {
                let Some(gen) = layout.gen else { return false };
                let gc = gen.gen_coords(r);
                (0..r).all(|s| gen.gen_coords(s).replica != gc.replica)
            }
            Protocol::ThreeDPpOnly => {
                let c = spec.coords(r);
                c.d_idx == 0 && c.t_idx == 0
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use hf_parallel::GroupingMethod;

    fn batch(rows: usize) -> DataProto {
        let mut d = DataProto::with_rows(rows);
        d.insert_f32("v", (0..rows).map(|v| v as f32).collect(), 1);
        d
    }

    fn layout_3d() -> WorkerLayout {
        WorkerLayout::train_only(ParallelSpec::new(2, 2, 2))
    }

    #[test]
    fn one_to_all_broadcasts_and_gathers() {
        let l = layout_3d();
        let d = batch(3);
        let ins = Protocol::OneToAll.distribute(&l, &d).unwrap();
        assert_eq!(ins.len(), 8);
        assert!(ins.iter().all(|i| i == &d));
        let out = Protocol::OneToAll.collect(&l, ins).unwrap();
        assert_eq!(out.rows(), 24);
    }

    #[test]
    fn row_offsets_continue_from_a_pre_stamped_base() {
        let l = WorkerLayout::train_only(ParallelSpec::new(1, 1, 2));
        // Unstamped: offsets start at 0.
        let ins = Protocol::Dp.distribute(&l, &batch(4)).unwrap();
        assert_eq!(ins[0].row_offset(), Some(0));
        assert_eq!(ins[1].row_offset(), Some(2));
        // A batch stamped as a slice starting at global row 6 keeps its
        // rows' global identity across the per-rank split.
        let mut sliced = batch(4);
        sliced.set_row_offset(Some(6));
        let ins = Protocol::Dp.distribute(&l, &sliced).unwrap();
        assert_eq!(ins[0].row_offset(), Some(6));
        assert_eq!(ins[1].row_offset(), Some(8));
        // Collect still strips the per-chunk stamp.
        let out = Protocol::Dp.collect(&l, ins).unwrap();
        assert_eq!(out.row_offset(), None);
    }

    #[test]
    fn three_d_splits_by_dp_group() {
        let l = layout_3d();
        let d = batch(8);
        let ins = Protocol::ThreeD.distribute(&l, &d).unwrap();
        // Ranks 0..4 are DP group 0, ranks 4..8 DP group 1.
        for r in 0..4 {
            assert_eq!(ins[r].f32("v").unwrap().0, &[0.0, 1.0, 2.0, 3.0]);
        }
        for r in 4..8 {
            assert_eq!(ins[r].f32("v").unwrap().0, &[4.0, 5.0, 6.0, 7.0]);
        }
    }

    #[test]
    fn three_d_collects_from_last_stage_leaders() {
        let l = layout_3d();
        // Give each rank a distinct output; only leaders must surface.
        let outs: Vec<DataProto> = (0..8)
            .map(|r| {
                let mut d = DataProto::with_rows(1);
                d.insert_f32("v", vec![r as f32], 1);
                d
            })
            .collect();
        let out = Protocol::ThreeD.collect(&l, outs).unwrap();
        // Leaders: d=0 → rank p=1,t=0 → 2; d=1 → rank 6.
        assert_eq!(out.f32("v").unwrap().0, &[2.0, 6.0]);
    }

    #[test]
    fn round_trip_three_d_identity_workers() {
        // If every worker echoes its input, distribute ∘ collect must be
        // the identity on the batch.
        let l = layout_3d();
        let d = batch(8);
        let ins = Protocol::ThreeD.distribute(&l, &d).unwrap();
        let out = Protocol::ThreeD.collect(&l, ins).unwrap();
        assert_eq!(out, d);
    }

    #[test]
    fn three_d_all_splits_by_gen_replica() {
        let gen = GenGrouping::new(ParallelSpec::new(1, 4, 2), 1, 2, GroupingMethod::Strided);
        let l = WorkerLayout::with_gen(gen);
        let d = batch(8);
        let ins = Protocol::ThreeDAllMicroDp.distribute(&l, &d).unwrap();
        // 4 generation replicas → chunks of 2 rows; replica of rank r.
        for r in 0..8 {
            let rep = gen.gen_coords(r).replica;
            assert_eq!(
                ins[r].f32("v").unwrap().0,
                &[2.0 * rep as f32, 2.0 * rep as f32 + 1.0],
                "rank {r}"
            );
        }
        let out = Protocol::ThreeDAllMicroDp.collect(&l, ins).unwrap();
        assert_eq!(out, d, "echo workers must round-trip");
    }

    #[test]
    fn three_d_all_split_requires_gen_grouping() {
        let l = layout_3d();
        assert!(Protocol::ThreeDAllMicroDp.distribute(&l, &batch(4)).is_err());
    }

    #[test]
    fn dp_proto_requires_pure_dp() {
        let l = layout_3d();
        assert!(Protocol::Dp.distribute(&l, &batch(4)).is_err());
        let pure = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
        let ins = Protocol::Dp.distribute(&pure, &batch(4)).unwrap();
        assert_eq!(ins.len(), 4);
        assert_eq!(ins[2].f32("v").unwrap().0, &[2.0]);
    }

    #[test]
    fn one_to_one_touches_only_rank_zero() {
        let l = layout_3d();
        let ins = Protocol::OneToOne.distribute(&l, &batch(2)).unwrap();
        assert_eq!(ins[0].rows(), 2);
        assert!(ins[1..].iter().all(|i| i.rows() == 0));
    }

    #[test]
    fn pp_only_collects_one_rank_per_stage() {
        let l = layout_3d();
        let outs: Vec<DataProto> = (0..8)
            .map(|r| {
                let mut d = DataProto::with_rows(1);
                d.insert_f32("v", vec![r as f32], 1);
                d
            })
            .collect();
        let out = Protocol::ThreeDPpOnly.collect(&l, outs).unwrap();
        // Stages: p=0 → rank 0; p=1 → rank 2 (d=0, t=0).
        assert_eq!(out.f32("v").unwrap().0, &[0.0, 2.0]);
    }

    #[test]
    fn is_collected_matches_collect() {
        let gen = GenGrouping::new(ParallelSpec::new(2, 2, 2), 1, 2, GroupingMethod::Strided);
        let l = WorkerLayout::with_gen(gen);
        for proto in Protocol::all() {
            let collected: Vec<usize> =
                (0..l.world()).filter(|&r| proto.is_collected(&l, r)).collect();
            assert!(!collected.is_empty(), "{proto:?} must collect someone");
        }
    }
}
