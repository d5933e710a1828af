//! The mid-run re-map conformance dimension.
//!
//! Elastic re-mapping (`hf_rlhf::remap_recoverable`) promises that a
//! run which loses a rank, re-places itself onto the survivors, and
//! reshards *live* through the restore broadcast commits exactly the
//! bits a fresh run would: launch a new system directly in the
//! re-mapped layout, restore the same committed checkpoint, replay the
//! same iterations, and every parameter, Adam moment, and RNG round
//! must agree byte for byte. This module runs both sides and diffs
//! them, the same obligation shape as the layout [`oracle`](crate::oracle)
//! — but across a *re-map event* instead of across static layouts.

use hf_core::{Controller, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{AssembledState, CheckpointStore, FaultInjector, FaultPlan, FaultTrigger};
use hf_rlhf::{
    remap_recoverable, restore_system_checkpoint, save_system_checkpoint, Algorithm, MapperPlanner,
    Placement, RemapConfig, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, CommCostModel, DeviceId, ResourcePool};
use hf_telemetry::Telemetry;

/// One mid-run re-map audit scenario.
#[derive(Debug, Clone, Copy)]
pub struct RemapAuditConfig {
    /// Devices the run starts on (the initial layout is the widest
    /// `(1, t, d)` splitting them; the cluster is sized to fit).
    pub(crate) world: usize,
    /// The rank of the actor group to kill.
    pub(crate) victim: usize,
    /// Kill on the victim's `nth` `update_actor` dispatch (1-based).
    pub(crate) kill_nth: u64,
    /// Iterations to run (checkpointed every iteration).
    pub(crate) iterations: usize,
    /// Prompt rows per iteration.
    pub(crate) rows: usize,
    /// Data seed.
    pub(crate) seed: u64,
}

impl Default for RemapAuditConfig {
    fn default() -> Self {
        RemapAuditConfig { world: 4, victim: 1, kill_nth: 3, iterations: 4, rows: 8, seed: 0 }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Byte-exact comparison of two assembled group states; `Some` names
/// the first divergence.
fn diff_state(group: &str, a: &AssembledState, b: &AssembledState) -> Option<String> {
    if a.opt_t != b.opt_t {
        return Some(format!("{group}: opt_t {} vs {}", a.opt_t, b.opt_t));
    }
    if a.gen_round != b.gen_round {
        return Some(format!("{group}: gen_round {} vs {}", a.gen_round, b.gen_round));
    }
    for (field, x, y) in [
        ("params", &a.params, &b.params),
        ("opt_m", &a.opt_m, &b.opt_m),
        ("opt_v", &a.opt_v, &b.opt_v),
    ] {
        let (xb, yb) = (bits(x), bits(y));
        if xb.len() != yb.len() {
            return Some(format!("{group}.{field}: length {} vs {}", xb.len(), yb.len()));
        }
        if let Some(i) = xb.iter().zip(&yb).position(|(p, q)| p != q) {
            return Some(format!("{group}.{field}[{i}]: {:#010x} vs {:#010x}", xb[i], yb[i]));
        }
    }
    None
}

fn store(tag: &str, cfg: &RemapAuditConfig) -> Result<CheckpointStore, String> {
    let dir = std::env::temp_dir().join(format!(
        "hf-audit-remap-{tag}-{}-{}-{}",
        cfg.seed,
        cfg.victim,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir).map_err(|e| format!("store: {e}"))
}

fn initial_placement(world: usize) -> Placement {
    // Widest data-parallel split with t = 2 when it divides: exercises
    // resharding across a genuinely different (t, d) on the way down.
    let (t, d) = if world.is_multiple_of(2) { (2, world / 2) } else { (1, world) };
    let spec = ParallelSpec::new(1, t, d);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    Placement::colocated(
        ResourcePool::contiguous(0, world),
        WorkerLayout::with_gen(gen),
        true,
        false,
    )
}

/// Runs the live re-map scenario and its fixed-layout twin, returning
/// the first divergence (`Ok(None)` when byte-identical end to end).
/// Infrastructure failures surface as `Err`.
pub fn remap_divergence(cfg: &RemapAuditConfig) -> Result<Option<String>, String> {
    // Side A: the live run — loses the victim mid-run, re-maps onto the
    // survivors on the same controller, continues to the end.
    let live = store("live", cfg)?;
    let plan = FaultPlan::new().kill_rank(
        "actor",
        cfg.victim,
        FaultTrigger::OnCall { method: "update_actor".into(), nth: cfg.kill_nth },
    );
    let ctrl = Controller::with_faults(
        ClusterSpec::a100_with_gpus(cfg.world),
        CommCostModel::default(),
        Telemetry::enabled(),
        FaultInjector::new(plan),
    );
    let remap_cfg = RemapConfig {
        iterations: cfg.iterations,
        checkpoint_every: 1,
        batch: cfg.rows,
        data_seed: cfg.seed,
        allowed: Some((0..cfg.world).map(DeviceId).collect()),
        ..Default::default()
    };
    let mut planner = MapperPlanner::toy(cfg.world);
    let report = remap_recoverable(
        &ctrl,
        &live,
        &remap_cfg,
        &initial_placement(cfg.world),
        RlhfConfig::tiny(),
        &mut planner,
    )
    .map_err(|e| format!("live remap run: {e}"))?;
    let _ = ctrl.shutdown();
    let ev = report
        .remaps
        .first()
        .ok_or_else(|| format!("the kill never triggered a re-map: {:?}", report.log))?
        .clone();
    let last = cfg.iterations as u64;
    let live_actor = live.load_group(last, "actor").map_err(|e| format!("live actor: {e}"))?;
    let live_critic = live.load_group(last, "critic").map_err(|e| format!("live critic: {e}"))?;

    // Side B: the fixed-layout twin — a fresh controller placed
    // directly in the re-mapped layout, restoring the checkpoint the
    // live run resumed from, replaying the same iterations.
    let twin = store("twin", cfg)?;
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(cfg.world));
    let survivors: Vec<DeviceId> =
        (0..cfg.world).map(DeviceId).filter(|d| d.0 != cfg.victim).take(ev.world_after).collect();
    let gen = GenGrouping::new(ev.spec, 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::new(survivors),
        WorkerLayout::with_gen(gen),
        true,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, RlhfConfig::tiny())
        .map_err(|e| format!("twin spawn: {e}"))?;
    restore_system_checkpoint(&live, &sys, ev.resumed_step)
        .map_err(|e| format!("twin restore: {e}"))?;
    for i in ev.resumed_step..last {
        Algorithm::Ppo
            .iteration(&sys, &ctrl, cfg.rows, cfg.seed, i)
            .map_err(|e| format!("twin iteration {i}: {e}"))?;
        save_system_checkpoint(&twin, &sys, &ctrl, i + 1)
            .map_err(|e| format!("twin checkpoint {}: {e}", i + 1))?;
    }
    let twin_actor = twin.load_group(last, "actor").map_err(|e| format!("twin actor: {e}"))?;
    let twin_critic = twin.load_group(last, "critic").map_err(|e| format!("twin critic: {e}"))?;
    let _ = ctrl.shutdown();

    Ok(diff_state("actor", &live_actor, &twin_actor)
        .or_else(|| diff_state("critic", &live_critic, &twin_critic)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mid_run_remap_is_bit_identical_to_a_fixed_layout_run() {
        for victim in [1usize, 3] {
            let cfg = RemapAuditConfig { victim, ..Default::default() };
            let verdict = remap_divergence(&cfg).expect("audit scenario runs");
            assert_eq!(verdict, None, "victim {victim} diverged");
        }
    }
}
