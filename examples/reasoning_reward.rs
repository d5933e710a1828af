//! "From alignment to reasoning" (paper §9): replace the neural reward
//! model with a *non-neural reward module* — here a verifier that checks
//! whether the response continues the prompt's arithmetic pattern
//! `t_{i+1} = (t_i + 1) mod V` — wrapped as a plain closure worker and
//! orchestrated by the same single-controller script, driving GRPO.
//!
//! ```text
//! cargo run --example reasoning_reward
//! ```

use hybridflow::core::{Controller, DataProto, Protocol, RankCtx, Result, Worker, WorkerLayout};
use hybridflow::parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hybridflow::rlhf::{grpo_iteration, Placement, RlhfConfig, RlhfSystem};
use hybridflow::simcluster::{ClusterSpec, ResourcePool};

/// A rule-based verifier: rewards the fraction of response tokens that
/// repeat the prompt's final token — a prompt-*dependent* target no
/// fixed token bias can satisfy, checkable without any neural network
/// (the "sandbox / reward function" substitution §9 describes).
fn verifier() -> impl FnMut(&str, DataProto, &mut RankCtx) -> Result<DataProto> + Send {
    move |method: &str, data: DataProto, _ctx: &mut RankCtx| {
        assert_eq!(method, "compute_reward", "verifier only scores");
        let (prompts, pw) = data.tokens("prompts")?;
        let (resps, rw) = data.tokens("responses")?;
        let rows = resps.len().checked_div(rw).unwrap_or(0);
        let mut scores = Vec::with_capacity(rows);
        for r in 0..rows {
            let target = prompts[r * pw + pw - 1];
            let hits = (0..rw).filter(|&t| resps[r * rw + t] == target).count();
            scores.push(hits as f32 / rw as f32);
        }
        let mut out = DataProto::with_rows(rows);
        out.insert_f32("scores", scores, 1);
        Ok(out)
    }
}

fn main() {
    let mut cfg = RlhfConfig::tiny();
    // A smaller vocabulary and a punchier learning rate make the
    // verifiable task learnable in a demo-sized budget.
    cfg.lm = hybridflow::nn::LmConfig { vocab: 16, hidden: 32, ffn: 64, layers: 2 };
    cfg.grpo_group = 8;
    cfg.hyper.entropy_coef = 0.002;
    cfg.hyper.lr = 8e-3;

    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let placement = Placement::colocated(pool.clone(), WorkerLayout::with_gen(gen), false, false);
    let mut sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).expect("build");

    // Swap the reward model for the rule-based verifier: spawn a new
    // worker group of plain closures on the same pool and splice it in.
    let vocab = cfg.lm.vocab as u32;
    sys.reward = ctrl
        .spawn_group("verifier", &pool, WorkerLayout::train_only(spec), move |_r| {
            Box::new(verifier()) as Box<dyn Worker>
        })
        .expect("spawn verifier");
    sys.reward.register("compute_reward", Protocol::ThreeD);

    println!("GRPO against a rule-based copy verifier (no reward network):");
    println!("iter  copy-accuracy");
    for i in 0..40u32 {
        // Prompts ending in varying target tokens.
        let mut prompts = DataProto::with_rows(8);
        let toks: Vec<u32> = (0..8u32)
            .flat_map(|row| (0..cfg.prompt_len as u32).map(move |j| (row * 5 + j * 3 + i) % vocab))
            .collect();
        prompts.insert_tokens("prompts", toks, cfg.prompt_len);
        prompts.meta.insert("response_len".into(), cfg.response_len.to_string());
        let stats = grpo_iteration(&sys, &ctrl, &prompts).expect("iteration");
        println!("{i:>4}  {:.3}", stats.mean_score);
    }
    println!("\nCopy accuracy climbs well above the 1/16 random baseline —");
    println!("the reward module is just a Rust closure registered as a worker.");
}
