//! Renders one functional PPO iteration as a Table 1-style execution
//! pattern: every worker-group call on the controller's virtual-time
//! timeline, showing generation → preparation (concurrent futures) →
//! alternating critic/actor updates.
//!
//! ```text
//! cargo run --example stage_timeline
//! ```

use hybridflow::core::{Controller, WorkerLayout};
use hybridflow::parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hybridflow::rlhf::env::make_prompts;
use hybridflow::rlhf::{ppo_iteration, Placement, RlhfConfig, RlhfSystem};
use hybridflow::simcluster::{ClusterSpec, ResourcePool};

fn main() {
    let cfg = RlhfConfig::tiny();
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let placement = Placement::colocated(
        ResourcePool::contiguous(0, 4),
        WorkerLayout::with_gen(gen),
        true,
        false,
    );
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).expect("build");

    // Warm one iteration, then record a clean one.
    let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    ppo_iteration(&sys, &ctrl, &prompts).expect("warmup");
    ctrl.clear_timeline();
    let t0 = ctrl.clock();
    ppo_iteration(&sys, &ctrl, &prompts).expect("measured iteration");

    let timeline = ctrl.timeline();
    let t_end = timeline.iter().map(|e| e.completed).fold(t0, f64::max);
    let span = (t_end - t0).max(1e-12);
    println!("One PPO iteration, virtual time {:.4}s, call by call:", span);
    println!("{:<10} {:<22} {:>9} {:>9}  gantt", "group", "method", "start", "end");
    for e in &timeline {
        let width = 48.0;
        let s = (((e.started - t0) / span) * width).round() as usize;
        let w = ((((e.completed - e.started) / span) * width).round() as usize).max(1);
        println!(
            "{:<10} {:<22} {:>8.4}s {:>8.4}s  {}{}",
            e.group,
            e.method,
            e.started - t0,
            e.completed - t0,
            " ".repeat(s.min(60)),
            "#".repeat(w.min(60)),
        );
    }
    println!("\nNote the preparation-stage calls (critic/reference/reward):");
    println!("issued with generation, on its future, they all start the");
    println!("instant generation finishes — asynchronous dataflow execution;");
    println!("on disjoint pools their bars would overlap fully.");
}
