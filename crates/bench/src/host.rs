//! The experiments that read the host clock: the mapping search against
//! its exhaustive reference, generation-engine throughput, the inference
//! forward against the tape it replaced, and the cross-layout audit
//! sweep. Their JSON is informational — wall-clock columns differ run to
//! run; every count beside them is exact.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hf_audit::{sample_configs, sweep};
use hf_core::{Controller, DataProto, Protocol, RankCtx, Worker, WorkerLayout};
use hf_genserve::{BlockManager, GenConfig, GenRequest};
use hf_mapping::{AlgoKind, DataflowSpec, Mapper};
use hf_modelspec::RlhfWorkload;
use hf_nn::{LmConfig, TinyLm};
use hf_parallel::ParallelSpec;
use hf_rlhf::{CriticWorker, WorkerHyper};
use hf_simcluster::{ClusterSpec, ResourcePool};
use hf_sync::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments;
use crate::table::{col, label, Report, Table};

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median wall-clock seconds of `run` over `reps` repetitions, and the
/// last repetition's result.
fn median_secs<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(run());
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(times), last.expect("reps > 0"))
}

/// The pruned mapping search vs the exhaustive reference over the
/// Figure 16 scale ladder: median wall time of cold searches (a fresh
/// mapper per repetition) and a whole-mapping equality check.
pub(crate) fn mapping_search(fast: bool) -> Report {
    let reps = if fast { 5 } else { 50 };
    let mut table = Table::new(
        format!("auto-mapping search: pruned vs exhaustive reference (median of {reps} cold runs)"),
        vec![
            label("model"),
            label("gpus"),
            col("exhaustive", "us", 1),
            col("pruned", "us", 1),
            col("speedup", "x", 2),
            label("evals exhaustive"),
            label("evals pruned"),
            label("pruned out"),
        ],
    );
    for (model, gpus) in experiments::mapping_ladder() {
        let df = DataflowSpec::uniform(AlgoKind::Ppo, model.clone(), RlhfWorkload::paper());
        let make = || Mapper::new(experiments::perf(gpus), df.clone(), gpus);
        let (reference_s, (reference, reference_stats)) = median_secs(reps, || {
            let m = make();
            (m.search_sequential(), m.stats())
        });
        let (pruned_s, (pruned, pruned_stats)) = median_secs(reps, || {
            let m = make();
            (m.search(), m.stats())
        });
        assert!(pruned.is_some(), "{} on {gpus} GPUs must map", model.name);
        assert_eq!(
            pruned, reference,
            "{} on {gpus} GPUs: pruned search must return the exhaustive search's mapping",
            model.name
        );
        assert!(pruned_stats.pruned > 0, "{} on {gpus} GPUs: bound must prune", model.name);
        table.push(vec![
            model.name.into(),
            gpus.into(),
            (reference_s * 1e6).into(),
            (pruned_s * 1e6).into(),
            (reference_s / pruned_s).into(),
            reference_stats.evaluations.into(),
            pruned_stats.evaluations.into(),
            pruned_stats.pruned.into(),
        ]);
    }
    let note = "(mappings verified equal between the two searches at every point)";
    Report::new(vec![table], vec![note.into()])
}

/// Sequential per-sequence decoding (one `TinyLm::generate` per request,
/// the NeMo-Aligner-style baseline) vs hf-genserve's paged-KV continuous
/// batching, at two batch sizes and two cache budgets. The tight budget
/// is sized to force preemption-by-recompute mid-run, so the speedup it
/// reports is the one that survives cache pressure.
pub(crate) fn genserve_throughput(fast: bool) -> Report {
    // Sized so the weights (~13 MB) overflow on-core caches: each
    // sequential decode step re-streams them from memory, while the
    // batched step streams them once for every active lane — the same
    // arithmetic-intensity argument that makes continuous batching pay
    // on real accelerators.
    let cfg = LmConfig { vocab: 256, hidden: 256, ffn: 1024, layers: 6 };
    let lm = TinyLm::new(cfg, 7);
    let prompt_len = 24;
    let max_new = if fast { 32 } else { 96 };
    let block_tokens = 8;
    let block_bytes = block_tokens * lm.decode_start().snapshot_len() * 4;
    // Blocks one sequence occupies when run to completion (the final
    // sampled token is never fed back, hence the −1).
    let per_seq_blocks = (prompt_len + max_new - 1usize).div_ceil(block_tokens);

    let mut table = Table::new(
        "genserve throughput: continuous batching vs sequential decode",
        vec![
            label("batch"),
            label("budget"),
            label("blocks"),
            label("preemptions"),
            label("steps"),
            col("baseline", "tok/s", 0),
            col("genserve", "tok/s", 0),
            col("speedup", "x", 2),
        ],
    );
    for batch in [16usize, 64] {
        // Distinct deterministic prompts so prefix sharing cannot flatter
        // the engine: every token the engine serves, it computed.
        let reqs: Vec<GenRequest> = (0..batch)
            .map(|row| GenRequest {
                prompt: (0..prompt_len).map(|j| (row * 131 + j * 7 + 1) % cfg.vocab).collect(),
                max_new_tokens: max_new,
                temperature: 0.0,
                seed: 0,
                stop_tokens: Vec::new(),
            })
            .collect();

        // Sequential baseline: each request decoded alone, start to end.
        let t0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(0);
        let baseline: Vec<Vec<usize>> =
            reqs.iter().map(|r| lm.generate(&r.prompt, r.max_new_tokens, 0.0, &mut rng)).collect();
        let tokens = (batch * max_new) as f64;
        let base_tps = tokens / t0.elapsed().as_secs_f64();

        // Ample: every sequence can hold its full footprint at once.
        // Tight: half that, so the pool runs dry mid-decode and the
        // scheduler must preempt.
        let ample = batch * per_seq_blocks;
        let tight = (ample / 2).max(per_seq_blocks);
        for (budget, blocks) in [("ample", ample), ("tight", tight)] {
            let engine = GenConfig {
                block_tokens,
                cache_budget_bytes: blocks * block_bytes,
                max_batch: batch,
            };
            let t0 = Instant::now();
            let (outs, rep) = engine.generate(&lm, &reqs).expect("generate");
            let tps = tokens / t0.elapsed().as_secs_f64();
            for (out, base) in outs.iter().zip(&baseline) {
                assert_eq!(&out.tokens, base, "engine output must match sequential decode");
            }
            assert!(
                budget == "ample" || rep.preemptions > 0,
                "tight budget ({blocks} blocks) was expected to force preemption"
            );
            table.push(vec![
                batch.into(),
                budget.into(),
                blocks.into(),
                rep.preemptions.into(),
                rep.steps.into(),
                base_tps.into(),
                tps.into(),
                (tps / base_tps).into(),
            ]);
        }
    }
    let note = format!(
        "model {} params, prompt {prompt_len}, max_new {max_new}, block {block_tokens} slots",
        cfg.param_count()
    );
    Report::new(vec![table], vec![note])
}

/// TP all-reduces each rank makes in one `tp_inference` pass
/// (`compute_values`) over a chunk of `rows` rows on 1-2-2, as the ranks'
/// TP communicators count them.
fn tp_joins_per_chunk(cfg: LmConfig, rows: usize) -> u64 {
    let hyper = WorkerHyper { tp_inference: true, ..WorkerHyper::default() };
    let joins = Arc::new(Mutex::new(Vec::new()));
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 2, 2));
    let group = ctrl
        .spawn_group("critic", &ResourcePool::contiguous(0, 4), layout, |_r| {
            let (mut critic, joins) = (CriticWorker::new(cfg, hyper.clone()), joins.clone());
            Box::new(move |method: &str, data: DataProto, ctx: &mut RankCtx| {
                let before = ctx.comms.tp.rounds();
                let reply = critic.execute(method, data, ctx);
                joins.lock().push(ctx.comms.tp.rounds() - before);
                reply
            })
        })
        .expect("spawn the critic group");
    // Two data-parallel groups: a chunk of `rows` each.
    let mut batch = DataProto::with_rows(2 * rows);
    batch.insert_tokens("prompts", vec![3; 2 * rows * 6], 6);
    batch.insert_tokens("responses", vec![5; 2 * rows * 6], 6);
    group.call_sync("compute_values", &batch, Protocol::ThreeD).expect("compute_values");
    let joins = joins.lock().clone();
    assert!(joins.iter().all(|&j| j == joins[0]), "ranks disagree: {joins:?}");
    joins[0]
}

/// What a forward-only pass costs on `LmConfig::tiny()`: building the
/// tape's forward (`forward`, both heads at every position: what
/// `log_probs` / `values` paid until they left the tape) beside the
/// tape-free `values_stacked` and `log_probs_stacked`, one sequence of
/// `T` fed tokens a call, reading every position and then only the
/// response half (the last `T / 2`, as a worker reads a response) — and
/// what a training step's pass costs: the tape's forward, a PPO-shaped
/// loss on its next-token log-probs and `backward_into` a reused buffer,
/// and that pass over the tape's forward (`bwd / fwd`). Exact beside the
/// timings: whether the tape-free and the half-window
/// passes give the tape's bits, and the TP all-reduces a `tp_inference`
/// pass makes for an 8-row chunk on 1-2-2 — `layers`, where a pass per
/// row made `8 × layers`.
pub(crate) fn inference_forward(fast: bool) -> Report {
    const BATCH: usize = 50;
    let batches = if fast { 3 } else { 31 };
    let cfg = LmConfig::tiny();
    let lm = TinyLm::new(cfg, 7);
    let joins = tp_joins_per_chunk(cfg, 8);
    // The allocator state of a long-running worker, not of a fresh
    // process: freeing one large block raises glibc's trim threshold, so
    // that a tape's few hundred KB are not given back to the kernel and
    // faulted in again on every call (EXPERIMENTS.md's history, "one
    // inference forward": that alone reads as 1.3-1.6x).
    drop(black_box(vec![1u8; 8 << 20]));
    let mut table = Table::new(
        format!(
            "inference forward: tape vs tape-free (median of {batches} batches of {BATCH} calls)"
        ),
        vec![
            label("T"),
            col("tape forward", "us", 1),
            col("tape fwd+bwd", "us", 1),
            col("values_stacked", "us", 1),
            col("log_probs_stacked", "us", 1),
            col("values, T/2 read", "us", 1),
            col("log-probs, T/2 read", "us", 1),
            col("tape / values", "x", 2),
            col("bwd / fwd", "x", 2),
            label("bit-equal"),
            label("TP joins / 8-row chunk"),
        ],
    );
    let mut failures = Vec::new();
    for t in [12usize, 24, 64, 96] {
        // `T + 1` tokens, so that the log-prob pass feeds `T` as well.
        let seq: Vec<usize> = (0..=t).map(|i| (i * 7 + 3) % cfg.vocab).collect();
        let fed = &seq[..t];
        // One sequence's read window: every position, the response half.
        #[allow(clippy::single_range_in_vec_init)]
        let (every, half) = ([0..t], [t - t / 2..t]);
        // Ratios on both sides of the clip range (the model's own
        // log-probs sit near −ln 32), advantages of both signs.
        let old_logp: Vec<f32> = (0..t).map(|i| -3.8 + 0.1 * (i % 7) as f32).collect();
        let adv: Vec<f32> = (0..t).map(|i| if i % 3 == 0 { -0.5 } else { 0.7 }).collect();
        let mut grads = vec![Vec::new()];
        // Each path runs `BATCH` calls back to back — its own steady
        // state, not the cache the other left behind — and the paths take
        // turns by the batch, so drift in the host's speed falls on all
        // of them alike.
        let mut times = [(); 6].map(|_| Vec::new());
        for _ in 0..batches {
            let mut timed = |slot: usize, call: &mut dyn FnMut()| {
                let t0 = Instant::now();
                (0..BATCH).for_each(|_| call());
                times[slot].push(t0.elapsed().as_secs_f64() / BATCH as f64);
            };
            timed(0, &mut || drop(black_box(lm.forward(fed))));
            timed(1, &mut || {
                let (mut fp, lp) = lm.next_token_log_probs(&[&seq], &every);
                let loss = fp.tape.ppo_clip_loss(lp, &old_logp, &adv, 0.2);
                fp.backward_into(loss, black_box(&mut grads));
            });
            timed(2, &mut || drop(black_box(lm.values_stacked(&[fed], &every))));
            timed(3, &mut || drop(black_box(lm.log_probs_stacked(&[&seq], &every))));
            timed(4, &mut || drop(black_box(lm.values_stacked(&[fed], &half))));
            timed(5, &mut || drop(black_box(lm.log_probs_stacked(&[&seq], &half))));
        }
        let [tape_s, train_s, values_s, logps_s, half_values_s, half_logps_s] = times.map(median);
        let fp = lm.forward(fed);
        let (lp_pass, lp) = lm.next_token_log_probs(&[&seq], &every);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (all_values, all_logps) = (fp.tape.value(fp.values), lp_pass.tape.value(lp));
        let equal = [every, half].iter().all(|read| {
            let (values, logps) =
                (lm.values_stacked(&[fed], read), lm.log_probs_stacked(&[&seq], read));
            let from = read[0].start;
            bits(&values[0]) == bits(&all_values.data()[from..])
                && bits(&logps[0]) == bits(&all_logps.data()[from..])
        });
        if !equal {
            failures.push(format!("T = {t}: a tape-free pass left the tape's bits"));
        }
        table.push(vec![
            t.into(),
            (tape_s * 1e6).into(),
            (train_s * 1e6).into(),
            (values_s * 1e6).into(),
            (logps_s * 1e6).into(),
            (half_values_s * 1e6).into(),
            (half_logps_s * 1e6).into(),
            (tape_s / values_s).into(),
            (train_s / tape_s).into(),
            if equal { "yes" } else { "NO" }.into(),
            joins.into(),
        ]);
    }
    if joins != cfg.layers as u64 {
        failures.push(format!("a TP pass made {joins} all-reduces, not one per layer"));
    }
    let note = format!(
        "model {} params, {} layers; one sequence a call, unpinned (pin with `taskset -c 1` for figures)",
        cfg.param_count(),
        cfg.layers
    );
    Report { failures, ..Report::new(vec![table], vec![note]) }
}

/// ns/alloc under reclaim-queue churn: every block is registered in the
/// prefix cache and released, so each `alloc` must evict through the
/// FIFO queue — the path that used to linear-scan.
fn churn_ns_per_alloc(blocks: usize, churn: usize) -> f64 {
    // slot_floats = 1, block_tokens = 1 → 4 bytes/block.
    let mut bm = BlockManager::new(1, 1, blocks * 4);
    let mut owned = Vec::with_capacity(blocks);
    while let Some(b) = bm.alloc() {
        owned.push(b);
    }
    for (i, &b) in owned.iter().enumerate() {
        bm.register_prefix(b, &[i]);
        bm.release(b);
    }
    let mut best = f64::INFINITY;
    for rep in 0..3 {
        let start = Instant::now();
        for i in 0..churn {
            let b = bm.alloc().expect("reclaimable pool never empties");
            bm.register_prefix(b, &[blocks + rep * churn + i]);
            bm.release(b);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / churn as f64);
    }
    best
}

/// Cross-layout differential conformance sweep: samples `(p,t,d) ×
/// (p_g,t_g) × {vanilla,strided} × {ZeRO,replicated}` configurations
/// (208 up to world 8; 24 up to world 4 when `fast`), runs each for
/// real, and checks byte-exact agreement with the `1-1-1` single-device
/// reference — weights, Adam moments, logprobs, generated token
/// streams. A divergence is shrunk to a minimal failing configuration
/// and reported as a failure.
///
/// Also guards the paged-KV block allocator's complexity: FIFO eviction
/// through the reclaim queue must stay O(1) amortized, checked by
/// comparing ns/alloc across an 8× pool-size spread.
pub(crate) fn audit_sweep(fast: bool) -> Report {
    let (n, max_world) = if fast { (24, 4) } else { (208, 8) };
    let configs = sample_configs(n, max_world, 0x5EED);
    let wall = Instant::now();
    let mut done = 0usize;
    let outcome = sweep(&configs, 2, |_, _| {
        done += 1;
        if done.is_multiple_of(32) {
            eprintln!("  ... {done}/{n} configs checked");
        }
    });
    let mut summary = Table::new(
        "audit sweep: sampled layouts vs the 1-1-1 reference",
        vec![
            label("configs"),
            label("max world"),
            label("runs"),
            label("diverged"),
            col("wall", "s", 1),
        ],
    );
    summary.push(vec![
        n.into(),
        max_world.into(),
        outcome.checked.into(),
        outcome.divergences.len().into(),
        wall.elapsed().as_secs_f64().into(),
    ]);
    let mut failures: Vec<String> = outcome
        .divergences
        .iter()
        .map(|d| {
            let minimal = d.minimal.map_or(String::new(), |m| format!(" (minimal: {})", m.label()));
            format!("{} diverged from the reference: {}{minimal}", d.config.label(), d.detail)
        })
        .collect();

    // 8× the pool → per-alloc cost must stay within noise, far below
    // the 8× an O(n) eviction would show.
    let mut churn =
        Table::new("block-allocator eviction churn", vec![label("blocks"), col("alloc", "ns", 1)]);
    let (small, large) = (churn_ns_per_alloc(4096, 50_000), churn_ns_per_alloc(32_768, 50_000));
    churn.push(vec![4096usize.into(), small.into()]);
    churn.push(vec![32_768usize.into(), large.into()]);
    if large / small >= 4.0 {
        failures.push(format!(
            "block eviction no longer O(1) amortized: ns/alloc grew x{:.2} for an 8x pool",
            large / small
        ));
    }
    Report { failures, ..Report::new(vec![summary, churn], Vec::new()) }
}
