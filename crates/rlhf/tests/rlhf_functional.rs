//! End-to-end functional RLHF: the four algorithm drivers run on the
//! hybrid runtime with real tiny models, real collectives, and the
//! rule-based reward — and actually learn.

use hf_core::{Controller, CoreError, DataProto, Protocol, Worker, WorkerLayout};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::{collect_state, decode_shards, AssembledState, ShardHeader};
use hf_rlhf::env::{make_pretrain, make_prompts};
use hf_rlhf::{
    grpo_iteration, ppo_iteration, ppo_iteration_captured, remax_iteration, restore_checkpoint,
    safe_rlhf_iteration, save_checkpoint, Placement, RlhfConfig, RlhfSystem,
};
use hf_simcluster::{ClusterSpec, ResourcePool};

fn controller(gpus: usize) -> Controller {
    Controller::new(ClusterSpec::a100_with_gpus(gpus))
}

/// Colocated placement on 4 GPUs: actor 1-2-2 with a strided
/// HybridEngine generation grouping (t_g = 1 → 4 generation replicas).
fn colocated_4gpu(cfg: &RlhfConfig, critic: bool, cost: bool) -> (Controller, RlhfSystem) {
    let ctrl = controller(4);
    let spec = ParallelSpec::new(1, 2, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let pool = ResourcePool::contiguous(0, 4);
    let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), critic, cost);
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    (ctrl, sys)
}

#[test]
fn ppo_improves_reward() {
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let mut first = 0.0;
    let mut last = 0.0;
    for iter in 0..20 {
        let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = ppo_iteration(&sys, &ctrl, &prompts).unwrap();
        assert!(stats.mean_score.is_finite());
        assert!(stats.actor_loss.is_finite());
        assert!(stats.critic_loss.is_finite());
        if iter == 0 {
            first = stats.mean_score;
        }
        last = stats.mean_score;
    }
    // Random policy over vocab 32 with 4 good tokens scores ~0.125; PPO
    // must push the policy toward the rewarded tokens.
    assert!(last > first + 0.1, "PPO must improve reward: first {first}, last {last}");
}

#[test]
fn remax_improves_reward() {
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, false, false);
    let mut first = 0.0;
    let mut last = 0.0;
    for iter in 0..20 {
        let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = remax_iteration(&sys, &ctrl, &prompts).unwrap();
        if iter == 0 {
            first = stats.mean_score;
        }
        last = stats.mean_score;
    }
    assert!(last > first + 0.1, "ReMax must improve reward: first {first}, last {last}");
}

#[test]
fn grpo_improves_reward() {
    let mut cfg = RlhfConfig::tiny();
    cfg.grpo_group = 4;
    let (ctrl, sys) = colocated_4gpu(&cfg, false, false);
    let mut first = 0.0;
    let mut last = 0.0;
    for iter in 0..15 {
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = grpo_iteration(&sys, &ctrl, &prompts).unwrap();
        if iter == 0 {
            first = stats.mean_score;
        }
        last = stats.mean_score;
    }
    assert!(last > first + 0.08, "GRPO must improve reward: first {first}, last {last}");
}

#[test]
fn safe_rlhf_improves_reward_under_cost_penalty() {
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, true);
    let mut first_obj = 0.0;
    let mut last_obj = 0.0;
    for iter in 0..20 {
        let prompts = make_prompts(16, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let pretrain =
            make_pretrain(16, cfg.prompt_len + cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = safe_rlhf_iteration(&sys, &ctrl, &prompts, &pretrain).unwrap();
        assert!(stats.ptx_loss.is_finite());
        let obj = stats.mean_score - cfg.lambda_cost * stats.mean_cost;
        if iter == 0 {
            first_obj = obj;
        }
        last_obj = obj;
    }
    assert!(
        last_obj > first_obj + 0.08,
        "Safe-RLHF must improve the penalized objective: {first_obj} -> {last_obj}"
    );
}

#[test]
fn iteration_consumes_virtual_time() {
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    let stats = ppo_iteration(&sys, &ctrl, &prompts).unwrap();
    assert!(stats.virtual_seconds > 0.0);
}

#[test]
fn dp_replicas_stay_in_lockstep() {
    // After updates on different DP chunks, gradient all-reduce must keep
    // every data-parallel replica identical: on 1-2-2 each rank's
    // `save_shard` reply equals the owner's at its model-parallel
    // position. (That the two positions come from one model is pinned by
    // `mp_split_parity`'s assembled-state digests.)
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 42);
    ppo_iteration(&sys, &ctrl, &prompts).unwrap();
    let reply = sys.actor.invoke_sync("save_shard", &DataProto::empty()).unwrap();
    let shards = decode_shards(&reply).unwrap();
    assert_eq!(shards.len(), 4);
    assert_eq!(shards.iter().filter(|s| s.head.owner).count(), 2, "one owner per slice");
    for s in &shards {
        let owner = shards.iter().find(|o| o.head.owner && o.head.start == s.head.start).unwrap();
        let (rank, of) = (s.head.rank, owner.head.rank);
        assert_eq!(s.head, ShardHeader { rank, owner: s.head.owner, ..owner.head }, "rank {rank}");
        assert_eq!(s.state, owner.state, "rank {rank} diverged from rank {of}");
    }
}

#[test]
fn checkpoint_round_trip_restores_weights() {
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 1);
    let state = |sys: &RlhfSystem| {
        [&sys.actor, sys.critic.as_ref().unwrap()].map(|g| collect_state(g).unwrap())
    };

    let saved = state(&sys);
    let ckpt = save_checkpoint(&sys).unwrap();
    ppo_iteration(&sys, &ctrl, &prompts).unwrap();
    assert_ne!(state(&sys), saved, "training must change weights");
    restore_checkpoint(&sys, &ckpt).unwrap();
    assert_eq!(state(&sys), saved, "weights, Adam state and sampler round restored");
}

#[test]
fn a_nan_weight_every_replica_holds_is_not_drift() {
    // The train→generation reshard checks the gathered shard against the
    // rank's own weights bit for bit: a NaN restored onto every replica
    // is the same weight on each, not replicas that drifted apart.
    let cfg = RlhfConfig::tiny();
    let (_ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let mut ckpt = save_checkpoint(&sys).unwrap();
    let mut state = AssembledState::from_load_input(&ckpt.actor, cfg.lm.param_count()).unwrap();
    let first_block_weight = hf_nn::TinyLm::new(cfg.lm, 0).block_region_start();
    state.params[first_block_weight] = f32::NAN;
    ckpt.actor = state.to_load_input();
    restore_checkpoint(&sys, &ckpt).unwrap();
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    let generated = sys.actor.invoke_sync("generate_sequences", &prompts);
    assert!(generated.is_ok(), "{:?}", generated.err());
}

#[test]
fn ppo_without_critic_fails_cleanly() {
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, false, false);
    let prompts = make_prompts(4, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    assert!(ppo_iteration(&sys, &ctrl, &prompts).is_err());
}

#[test]
fn out_of_vocab_prompt_is_a_typed_error_not_a_rank_panic() {
    // Malformed input: prompts drawn over twice the model's vocabulary.
    // The ranks used to panic inside `hf-nn` (`WorkerPanicked`, rank
    // lost, communicators poisoned); now the batch is turned down with
    // `Config` and the same system trains on.
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let vocab = cfg.lm.vocab as u32;
    let bad = make_prompts(16, cfg.prompt_len, cfg.response_len, 2 * vocab, 0);
    let err = ppo_iteration(&sys, &ctrl, &bad).unwrap_err();
    assert!(matches!(err, CoreError::Config(_)), "{err:?}");
    assert!(ctrl.lost_ranks().is_empty(), "no rank may be lost to malformed input");
    let good = make_prompts(16, cfg.prompt_len, cfg.response_len, vocab, 1);
    assert!(ppo_iteration(&sys, &ctrl, &good).unwrap().mean_score.is_finite());
}

#[test]
fn out_of_vocab_token_in_one_training_chunk_releases_the_other_ranks() {
    // Four data-parallel actor ranks; only rank 0's chunk of the
    // training batch is malformed. Rank 0 replies `Config` before the
    // gradient all-reduce its peers go on to: they must be released
    // from that rendezvous, not left waiting, and the call must report
    // the malformed input, not their `PeerFailed`.
    use hf_rlhf::workers::{ActorWorker, WorkerHyper};
    let ctrl = controller(4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 1, 4));
    let pool = ResourcePool::contiguous(0, 4);
    let lm = hf_nn::LmConfig::tiny();
    let group = ctrl
        .spawn_group("actor", &pool, layout, |_r| {
            Box::new(ActorWorker::new(lm, WorkerHyper::default())) as Box<dyn Worker>
        })
        .unwrap();
    let prompts = make_prompts(8, 6, 6, lm.vocab as u32, 0);
    let mut batch = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
    let (mut responses, w) = {
        let (r, w) = batch.tokens("responses").unwrap();
        (r.to_vec(), w)
    };
    responses[0] = lm.vocab as u32;
    batch.insert_tokens("responses", responses, w);
    batch.insert_f32("advantages", vec![0.5; 8 * w], w);
    let err = group
        .call("update_actor", &batch, Protocol::ThreeD)
        .unwrap()
        .wait_deadline(std::time::Duration::from_secs(60))
        .unwrap_err();
    assert!(matches!(err, CoreError::Config(_)), "{err:?}");
}

#[test]
fn out_of_vocab_row_is_turned_down_by_every_model_parallel_peer() {
    // A 1-2-2 reference: each chunk goes to a tensor-parallel pair that
    // splits its rows and swaps the results. Both peers of the pair
    // holding the malformed row must turn the chunk down *before* that
    // swap — one of them entering it alone would wait forever — and the
    // pair must be usable afterwards.
    use hf_rlhf::workers::{ReferenceWorker, WorkerHyper};
    let ctrl = controller(4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 2, 2));
    let lm = hf_nn::LmConfig::tiny();
    let group = ctrl
        .spawn_group("reference", &ResourcePool::contiguous(0, 4), layout, |_r| {
            Box::new(ReferenceWorker::new(lm, WorkerHyper::default())) as Box<dyn Worker>
        })
        .unwrap();
    let call = |batch: &DataProto| {
        group
            .call("compute_ref_log_prob", batch, Protocol::ThreeD)
            .unwrap()
            .wait_deadline(std::time::Duration::from_secs(60))
    };
    let mut batch = make_prompts(8, 6, 6, lm.vocab as u32, 0);
    batch.insert_tokens("responses", vec![1; 8 * 6], 6);
    let good = batch.clone();
    let mut responses = vec![1u32; 8 * 6];
    responses[0] = lm.vocab as u32;
    batch.insert_tokens("responses", responses, 6);

    let err = call(&batch).unwrap_err();
    assert!(matches!(err, CoreError::Config(_)), "{err:?}");
    assert!(ctrl.lost_ranks().is_empty());
    let out = call(&good).unwrap();
    let (logp, w) = out.f32("ref_logp").unwrap();
    assert_eq!((logp.len(), w), (8 * 6, 6));
}

#[test]
fn out_of_vocab_pretrain_row_is_turned_down_before_the_gradient_fold() {
    // A 1-2-2 actor with a ptx column: PPO rows and ptx rows go into ONE
    // rendezvous of each tensor-parallel pair, so every column must be
    // checked before the first row is computed. Both peers of the pair
    // holding the malformed pretrain row reply `Config` without entering
    // the fold (one entering alone would wait forever); the other pair,
    // whose chunk is fine, is released from the DP all-reduce.
    use hf_rlhf::workers::{ActorWorker, WorkerHyper};
    let ctrl = controller(4);
    let layout = WorkerLayout::train_only(ParallelSpec::new(1, 2, 2));
    let lm = hf_nn::LmConfig::tiny();
    let group = ctrl
        .spawn_group("actor", &ResourcePool::contiguous(0, 4), layout, |_r| {
            Box::new(ActorWorker::new(lm, WorkerHyper::default())) as Box<dyn Worker>
        })
        .unwrap();
    let prompts = make_prompts(8, 6, 6, lm.vocab as u32, 0);
    let mut batch = group.call_sync("generate_sequences", &prompts, Protocol::ThreeD).unwrap();
    let w = batch.tokens("responses").unwrap().1;
    batch.insert_f32("advantages", vec![0.5; 8 * w], w);
    let mut pretrain = vec![2u32; 8 * 10];
    pretrain[3] = lm.vocab as u32;
    batch.insert_tokens("pretrain", pretrain, 10);
    batch.meta.insert("ptx_coef".into(), "0.2".into());
    let err = group
        .call("update_actor", &batch, Protocol::ThreeD)
        .unwrap()
        .wait_deadline(std::time::Duration::from_secs(60))
        .unwrap_err();
    assert!(matches!(err, CoreError::Config(_)), "{err:?}");
    assert!(ctrl.lost_ranks().is_empty());
}

#[test]
fn a_per_token_column_of_the_wrong_width_is_a_typed_error_not_four_lost_ranks() {
    // `update_actor` reads `logp_old` and `advantages`, `update_critic`
    // reads `returns` and `values`: one value per response token. A column
    // one token narrower than `responses` must be turned down with
    // `Config` naming the column before it reaches the loss's `assert_eq!`
    // on every rank (`WorkerPanicked`, all four ranks lost), and the same
    // groups must train on.
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    let (_, batch) = ppo_iteration_captured(&sys, &ctrl, &prompts).unwrap();
    let rw = batch.tokens("responses").unwrap().1;
    let update = |method: &str, batch: &DataProto| {
        let group =
            if method == "update_actor" { &sys.actor } else { sys.critic.as_ref().unwrap() };
        group
            .call(method, batch, Protocol::ThreeD)
            .unwrap()
            .wait_deadline(std::time::Duration::from_secs(60))
    };
    for (method, column) in [
        ("update_actor", "logp_old"),
        ("update_actor", "advantages"),
        ("update_critic", "returns"),
        ("update_critic", "values"),
    ] {
        let mut bad = batch.clone();
        let (vals, w) = bad.f32(column).unwrap();
        assert_eq!(w, rw, "{column}");
        let narrow: Vec<f32> = vals.chunks(rw).flat_map(|row| &row[..rw - 1]).copied().collect();
        bad.insert_f32(column, narrow, rw - 1);
        match update(method, &bad).unwrap_err() {
            CoreError::Config(reason) => assert!(
                reason.contains(&format!("`{column}` is {} values wide", rw - 1))
                    && reason.contains(&format!("is {rw} tokens wide")),
                "{column}: {reason}"
            ),
            err => panic!("{column}: {err:?}"),
        }
        assert!(ctrl.lost_ranks().is_empty(), "{column}: no rank may be lost to malformed input");
    }
    for method in ["update_actor", "update_critic"] {
        update(method, &batch).unwrap();
    }
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 1);
    assert!(ppo_iteration(&sys, &ctrl, &prompts).unwrap().mean_score.is_finite());
}

#[test]
fn malformed_generation_and_training_meta_is_a_typed_error_not_a_default() {
    // A meta key that is present but does not parse is turned down with
    // `Config` naming it — not read as its default (pad with 0, stop on
    // the tokens that parse, sample instead of greedy, advance the rank's
    // own sampler round, compute the `logp_old` the driver will not
    // read, train without the PPO-ptx loss) — and the same group answers
    // the next well-formed call.
    let cfg = RlhfConfig::tiny();
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 0);
    let (_, batch) = ppo_iteration_captured(&sys, &ctrl, &prompts).unwrap();
    let call = |method: &str, data: &DataProto| {
        sys.actor.invoke(method, data).unwrap().wait_deadline(std::time::Duration::from_secs(60))
    };
    let malformed = [
        ("generate_sequences", "pad_token", "x"),
        ("generate_sequences", "stop_tokens", "3,x"),
        ("generate_sequences", "greedy", "true"),
        ("generate_sequences", hf_rlhf::GEN_PASS_META, "x"),
        ("generate_sequences", hf_rlhf::NO_LOGP_META, "true"),
        ("update_actor", "ptx_coef", "x"),
    ];
    for (method, key, value) in malformed {
        let good = if method == "update_actor" { &batch } else { &prompts };
        let mut bad = good.clone();
        bad.meta.insert(key.into(), value.into());
        match call(method, &bad) {
            Err(CoreError::Config(reason)) => assert!(reason.contains(key), "{key}: {reason}"),
            other => panic!("{key}={value:?}: {:?}", other.map(|d| d.rows())),
        }
        assert!(ctrl.lost_ranks().is_empty(), "{key}: no rank may be lost to malformed meta");
        call(method, good).unwrap_or_else(|e| panic!("{method} after {key}: {e:?}"));
    }
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 1);
    assert!(ppo_iteration(&sys, &ctrl, &prompts).unwrap().mean_score.is_finite());
}

#[test]
fn standalone_placement_also_learns() {
    // OpenRLHF-style placement: every model on its own devices.
    let cfg = RlhfConfig::tiny();
    let ctrl = controller(8);
    let spec = ParallelSpec::new(1, 1, 2);
    let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
    let mp = |start: usize, layout: WorkerLayout| hf_rlhf::ModelPlacement {
        pool: ResourcePool::contiguous(start, 2),
        layout,
    };
    let placement = Placement {
        actor: mp(0, WorkerLayout::with_gen(gen)),
        critic: Some(mp(2, WorkerLayout::train_only(spec))),
        reference: mp(4, WorkerLayout::train_only(spec)),
        reward: mp(6, WorkerLayout::train_only(spec)),
        cost: None,
    };
    let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
    let mut first = 0.0;
    let mut last = 0.0;
    for iter in 0..15 {
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let stats = ppo_iteration(&sys, &ctrl, &prompts).unwrap();
        if iter == 0 {
            first = stats.mean_score;
        }
        last = stats.mean_score;
    }
    assert!(last > first, "standalone PPO must still learn: {first} -> {last}");
}

#[test]
fn recompute_logp_path_matches_generation_logp() {
    // With identical numerics on both paths (same tiny model), the
    // optional compute_log_prob pass must reproduce the generation
    // engine's log-probs exactly, so PPO stats are unchanged — and since
    // it replaces the column, generation is told not to compute it.
    let traced = || {
        Controller::with_telemetry(
            ClusterSpec::a100_with_gpus(4),
            hf_simcluster::CommCostModel::default(),
            hf_telemetry::Telemetry::enabled(),
        )
    };
    let build = |cfg: &RlhfConfig| {
        let ctrl = traced();
        let gen = GenGrouping::new(ParallelSpec::new(1, 2, 2), 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::contiguous(0, 4);
        let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
        let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
        (ctrl, sys)
    };
    let mut cfg = RlhfConfig::tiny();
    let (ctrl_a, sys_a) = build(&cfg);
    cfg.recompute_logp = true;
    let (ctrl_b, sys_b) = build(&cfg);
    let bits = |batch: &DataProto| -> Vec<u32> {
        batch.f32("logp_old").unwrap().0.iter().map(|v| v.to_bits()).collect()
    };
    for iter in 0..3 {
        let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, iter);
        let (a, batch_a) = ppo_iteration_captured(&sys_a, &ctrl_a, &prompts).unwrap();
        let (b, batch_b) = ppo_iteration_captured(&sys_b, &ctrl_b, &prompts).unwrap();
        assert_eq!(a.mean_score, b.mean_score, "iter {iter}");
        assert_eq!(a.actor_loss, b.actor_loss, "iter {iter}");
        assert_eq!(
            bits(&batch_a),
            bits(&batch_b),
            "iter {iter}: cur_logp is generation's logp_old"
        );
        assert_eq!(batch_a.meta, batch_b.meta, "iter {iter}: the request is not part of the batch");
    }
    // Three generation replies each; B's came without the column.
    let collected =
        |ctrl: &Controller| ctrl.telemetry().counter("protocol.ThreeDAllMicroDp.collect_bytes");
    let column = (8 * cfg.response_len * 4) as u64;
    assert_eq!(collected(&ctrl_a) - collected(&ctrl_b), 3 * column);
}

#[test]
fn generation_leaves_out_the_log_probs_a_driver_will_not_read() {
    let cfg = RlhfConfig::tiny();
    let reply = |stamped: bool| {
        let (_ctrl, sys) = colocated_4gpu(&cfg, false, false);
        let mut prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 7);
        if stamped {
            prompts.meta.insert(hf_rlhf::NO_LOGP_META.into(), "1".into());
        }
        sys.actor.invoke_sync("generate_sequences", &prompts).unwrap()
    };
    let (plain, stamped) = (reply(false), reply(true));
    assert!(plain.has("logp_old") && !stamped.has("logp_old"));
    assert!(!stamped.meta.contains_key(hf_rlhf::NO_LOGP_META), "the stamp is not echoed");
    assert_eq!(plain.tokens("responses").unwrap(), stamped.tokens("responses").unwrap());
    assert_eq!(plain.f32("response_len").unwrap(), stamped.f32("response_len").unwrap());
}

#[test]
fn compute_loss_is_the_mean_next_token_cross_entropy() {
    // The one Table 4 method no driver calls: a forward-only pass, so it
    // runs tape-free like the rest — here against the model itself.
    let cfg = RlhfConfig::tiny();
    let (_ctrl, sys) = colocated_4gpu(&cfg, false, false);
    let pretrain = make_pretrain(8, cfg.prompt_len + cfg.response_len, cfg.lm.vocab as u32, 4);
    let reply = sys.actor.invoke_sync("compute_loss", &pretrain).unwrap();
    let lm = hf_nn::TinyLm::new(cfg.lm, cfg.hyper.seed);
    let (toks, w) = pretrain.tokens("pretrain").unwrap();
    // Two data-parallel groups of four rows, each replying its own mean.
    let expect: Vec<f32> = (toks.chunks(4 * w))
        .map(|chunk| {
            let mut total = 0.0f32;
            for row in chunk.chunks(w) {
                let lp = lm.log_probs(&row.iter().map(|&t| t as usize).collect::<Vec<_>>());
                total -= lp.iter().sum::<f32>() / lp.len() as f32;
            }
            total / 4.0
        })
        .collect();
    assert_eq!(reply.f32("ptx_loss").unwrap().0, expect);
}

#[test]
fn tp_inference_matches_replicated_inference() {
    // compute_log_prob under real tensor parallelism (sharded weights +
    // all-reduce joins over the virtual NCCL) must match the replicated
    // full-model forward to float tolerance.
    let cfg = RlhfConfig::tiny();
    let run = |tp: bool| -> Vec<f32> {
        let ctrl = controller(4);
        let spec = ParallelSpec::new(1, 2, 2);
        let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::contiguous(0, 4);
        let mut c = cfg.clone();
        c.hyper.tp_inference = tp;
        let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
        let sys = RlhfSystem::build(&ctrl, &placement, c.clone()).unwrap();
        let prompts = make_prompts(8, c.prompt_len, c.response_len, c.lm.vocab as u32, 3);
        let batch = sys.actor.invoke_sync("generate_sequences", &prompts).unwrap();
        let lp = sys.actor.invoke_sync("compute_log_prob", &batch).unwrap();
        lp.f32("cur_logp").unwrap().0.to_vec()
    };
    let replicated = run(false);
    let sharded = run(true);
    assert_eq!(replicated.len(), sharded.len());
    for (i, (a, b)) in replicated.iter().zip(sharded.iter()).enumerate() {
        assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()), "position {i}: replicated {a} vs TP {b}");
    }
}

#[test]
fn pipeline_parallel_inference_matches_replicated() {
    // compute_log_prob on a 2-stage × 2-shard model-parallel grid: real
    // TP all-reduces inside each stage, real p2p activation hand-offs
    // between stages, collected from the last stage.
    let mut cfg = RlhfConfig::tiny();
    cfg.lm.layers = 4; // divisible by p = 2
    let run = |tp: bool| -> Vec<f32> {
        let ctrl = controller(8);
        let spec = ParallelSpec::new(2, 2, 2);
        let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::contiguous(0, 8);
        let mut c = cfg.clone();
        c.hyper.tp_inference = tp;
        let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
        let sys = RlhfSystem::build(&ctrl, &placement, c.clone()).unwrap();
        let prompts = make_prompts(8, c.prompt_len, c.response_len, c.lm.vocab as u32, 5);
        let batch = sys.actor.invoke_sync("generate_sequences", &prompts).unwrap();
        let lp = sys.actor.invoke_sync("compute_log_prob", &batch).unwrap();
        lp.f32("cur_logp").unwrap().0.to_vec()
    };
    let replicated = run(false);
    let sharded = run(true);
    assert_eq!(replicated.len(), sharded.len());
    for (i, (a, b)) in replicated.iter().zip(sharded.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-4 * (1.0 + a.abs()),
            "position {i}: replicated {a} vs 2D-MP {b}"
        );
    }
}

#[test]
fn tp_critic_values_match_replicated() {
    // 1-2-2: tensor shards only. 2-2-1: two pipeline stages as well — the
    // critic runs them for real, as the actor does, and its values are
    // read from the last.
    let cfg = RlhfConfig::tiny();
    for spec in [ParallelSpec::new(1, 2, 2), ParallelSpec::new(2, 2, 1)] {
        let run = |tp: bool| -> Vec<f32> {
            let ctrl = controller(4);
            let gen = GenGrouping::new(spec, 1, 1, GroupingMethod::Strided);
            let pool = ResourcePool::contiguous(0, 4);
            let mut c = cfg.clone();
            c.hyper.tp_inference = tp;
            let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), true, false);
            let sys = RlhfSystem::build(&ctrl, &placement, c.clone()).unwrap();
            let prompts = make_prompts(8, c.prompt_len, c.response_len, c.lm.vocab as u32, 9);
            let batch = sys.actor.invoke_sync("generate_sequences", &prompts).unwrap();
            let vals = sys.critic.as_ref().unwrap().invoke_sync("compute_values", &batch).unwrap();
            vals.f32("values").unwrap().0.to_vec()
        };
        let a = run(false);
        let b = run(true);
        assert!(b.iter().any(|&v| v != 0.0), "{spec:?}: the last stage's values are collected");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()), "{spec:?} position {i}: {x} vs {y}");
        }
    }
}

#[test]
fn an_indivisible_shape_is_the_same_typed_error_from_actor_and_critic() {
    // t = 2 does not divide ffn = 63: neither pass may fall back to
    // replicated rows, and both say so before any collective.
    let mut cfg = RlhfConfig::tiny();
    cfg.lm.ffn = 63;
    cfg.hyper.tp_inference = true;
    let (ctrl, sys) = colocated_4gpu(&cfg, true, false);
    let prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 2);
    let batch = sys.actor.invoke_sync("generate_sequences", &prompts).unwrap();
    let critic = sys.critic.as_ref().unwrap();
    for (group, method) in [(&sys.actor, "compute_log_prob"), (critic, "compute_values")] {
        let err = group.invoke_sync(method, &batch).unwrap_err();
        assert!(
            matches!(&err, CoreError::Config(why) if why.contains("t | ffn")),
            "{method}: {err:?}"
        );
    }
    assert!(ctrl.lost_ranks().is_empty());
}
