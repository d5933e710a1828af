//! The workers' forwards compute only the rows their replies and losses
//! read — a response's window `pw − 1..pw − 1 + rw`, a reward's last
//! position — and that moves no bit. Every reply and every updated weight
//! here is what a forward over each whole sequence alone gives, sliced in
//! the test: `TinyLm::forward` / `log_probs` for the replicated passes,
//! one sequence's stage forward over the 1-2-2 shard grid for
//! `tp_inference`, and for an update the per-sequence gradients summed
//! as the workers sum rows, then one Adam step.

use hf_core::{Controller, DataProto, Protocol, Worker, WorkerGroup, WorkerLayout};
use hf_nn::{grid_forward, Adam, LmConfig, ShardedLm, Tensor, TinyLm};
use hf_parallel::{GenGrouping, GroupingMethod, ParallelSpec};
use hf_resilience::collect_state;
use hf_rlhf::env::make_prompts;
use hf_rlhf::{
    ActorWorker, CriticWorker, Placement, ReferenceWorker, RewardKind, RewardWorker, RlhfConfig,
    RlhfSystem, WorkerHyper,
};
use hf_simcluster::{tree_sum_parts, ClusterSpec, ResourcePool};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Prompt and response tokens of every row.
const PW: usize = 5;
const RW: usize = 6;
/// Rows of a batch: ragged against two data-parallel chunks and the
/// stacked passes' row budget.
const ROWS: usize = 7;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The positions that predict or value a row's response tokens.
fn response() -> std::ops::Range<usize> {
    PW - 1..PW - 1 + RW
}

/// A group of `spec` running the worker `make` builds on every rank.
fn group(spec: ParallelSpec, make: impl Fn() -> Box<dyn Worker>) -> (Controller, WorkerGroup) {
    let ctrl = Controller::new(ClusterSpec::a100_with_gpus(spec.world()));
    let pool = ResourcePool::contiguous(0, spec.world());
    let group = ctrl.spawn_group("g", &pool, WorkerLayout::train_only(spec), |_| make()).unwrap();
    (ctrl, group)
}

/// [`ROWS`] rows of prompts and responses over `vocab`, with the per-token
/// columns an update reads: old log-probs near the model's own (ratios on
/// both sides of the clip range, and row 2 far below it: every one of its
/// PPO terms clipped), advantages of both signs, returns and old values
/// (row 4's value terms all clipped).
fn batch(vocab: usize, seed: u64) -> (DataProto, Vec<Vec<usize>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tokens =
        |n: usize| -> Vec<u32> { (0..n).map(|_| rng.random_range(0..vocab as u32)).collect() };
    let (prompts, resps) = (tokens(ROWS * PW), tokens(ROWS * RW));
    let seqs = (0..ROWS)
        .map(|i| {
            let row = prompts[i * PW..(i + 1) * PW].iter().chain(&resps[i * RW..(i + 1) * RW]);
            row.map(|&t| t as usize).collect()
        })
        .collect();
    let mut draw = |lo: f32, hi: f32| -> Vec<f32> {
        (0..ROWS * RW).map(|_| lo + (hi - lo) * rng.random::<f32>()).collect()
    };
    let (mut old_logp, mut adv) = (draw(-3.9, -3.0), draw(-1.0, 1.0));
    let (mut returns, mut old_v) = (draw(-0.5, 0.5), draw(-0.5, 0.5));
    old_logp[2 * RW..3 * RW].fill(-30.0);
    adv[2 * RW..3 * RW].fill(0.5);
    returns[4 * RW..5 * RW].fill(-40.0);
    old_v[4 * RW..5 * RW].fill(40.0);
    let mut data = DataProto::with_rows(ROWS);
    data.insert_tokens("prompts", prompts, PW);
    data.insert_tokens("responses", resps, RW);
    for (name, column) in
        [("logp_old", old_logp), ("advantages", adv), ("returns", returns), ("values", old_v)]
    {
        data.insert_f32(name, column, RW);
    }
    (data, seqs)
}

/// Column `name` of a reply, as bits.
fn column(reply: &DataProto, name: &str) -> Vec<u32> {
    bits(reply.f32(name).unwrap().0)
}

#[test]
fn forward_only_replies_are_each_sequence_alone_sliced() {
    let (cfg, hyper) = (LmConfig::tiny(), WorkerHyper::default());
    let (data, seqs) = batch(cfg.vocab, 1);
    // The models each worker builds from `hyper.seed`.
    let (actor, critic) = (TinyLm::new(cfg, hyper.seed), TinyLm::new(cfg, hyper.seed ^ 0xc417));
    let want_logps: Vec<f32> =
        seqs.iter().flat_map(|seq| actor.log_probs(seq)[response()].to_vec()).collect();
    let want_values: Vec<f32> = (seqs.iter())
        .flat_map(|seq| {
            let fp = critic.forward(seq);
            fp.tape.value(fp.values).data()[response()].to_vec()
        })
        .collect();
    // Alone, and with the rows shared across a model-parallel pair.
    for spec in [ParallelSpec::new(1, 1, 1), ParallelSpec::new(1, 2, 2)] {
        let hyper = hyper.clone();
        let (_c, actor) = group(spec, || Box::new(ActorWorker::new(cfg, hyper.clone())));
        let reply = actor.call_sync("compute_log_prob", &data, Protocol::ThreeD).unwrap();
        assert_eq!(column(&reply, "cur_logp"), bits(&want_logps), "compute_log_prob on {spec:?}");
        let (_c, reference) = group(spec, || Box::new(ReferenceWorker::new(cfg, hyper.clone())));
        let reply = reference.call_sync("compute_ref_log_prob", &data, Protocol::ThreeD).unwrap();
        assert_eq!(column(&reply, "ref_logp"), bits(&want_logps), "compute_ref_log_prob");
        let (_c, critic) = group(spec, || Box::new(CriticWorker::new(cfg, hyper.clone())));
        let reply = critic.call_sync("compute_values", &data, Protocol::ThreeD).unwrap();
        assert_eq!(column(&reply, "values"), bits(&want_values), "compute_values on {spec:?}");
    }
}

#[test]
fn tp_inference_replies_are_each_sequence_s_shard_grid_sliced() {
    let cfg = LmConfig::tiny();
    let hyper = WorkerHyper { tp_inference: true, ..WorkerHyper::default() };
    let spec = ParallelSpec::new(1, 2, 2);
    let (data, seqs) = batch(cfg.vocab, 2);
    // One sequence's stage forward over every row of the 1-2 shard grid,
    // partials joined in shard order: a two-rank all-reduce's sums.
    let grid = |lm: &TinyLm| -> Vec<Vec<ShardedLm>> {
        vec![(0..2).map(|t| ShardedLm::from_full(lm, 0, 1, t, 2)).collect()]
    };
    let actor = TinyLm::new(cfg, hyper.seed);
    let actor_grid = grid(&actor);
    let mut want_logps = Vec::new();
    for seq in &seqs {
        let (logits, _): (Tensor, Tensor) = grid_forward(&actor_grid, &seq[..seq.len() - 1]);
        for t in response() {
            // The `tp_inference` log-prob: `(v − max) − ln z`.
            let row = logits.row(t);
            let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let z: f32 = row.iter().map(|v| (v - m).exp()).sum();
            want_logps.push((row[seq[t + 1]] - m) - z.ln());
        }
    }
    let critic = TinyLm::new(cfg, hyper.seed ^ 0xc417);
    let critic_grid = grid(&critic);
    let want_values: Vec<f32> = seqs
        .iter()
        .flat_map(|seq| grid_forward(&critic_grid, seq).1.data()[response()].to_vec())
        .collect();

    let (_c, actor) = group(spec, || Box::new(ActorWorker::new(cfg, hyper.clone())));
    let reply = actor.call_sync("compute_log_prob", &data, Protocol::ThreeD).unwrap();
    assert_eq!(column(&reply, "cur_logp"), bits(&want_logps), "tp compute_log_prob");
    let (_c, critic) = group(spec, || Box::new(CriticWorker::new(cfg, hyper.clone())));
    let reply = critic.call_sync("compute_values", &data, Protocol::ThreeD).unwrap();
    assert_eq!(column(&reply, "values"), bits(&want_values), "tp compute_values");
}

/// The weights after one Adam step on `grads` (one per row, in row
/// order): summed as the workers sum rows — a pairwise tree in row order,
/// the row count behind it — then divided by the row count.
fn stepped(lm: &TinyLm, lr: f32, grads: Vec<Vec<f32>>) -> Vec<f32> {
    let n = lm.flat().len();
    let rows = grads.into_iter().map(|mut g| {
        g.push(1.0);
        g
    });
    let sum = tree_sum_parts(rows.collect());
    let mut params = lm.flat().to_vec();
    Adam::new(n, lr).step_mean(&mut params, &sum[..n], sum[n]);
    params
}

#[test]
fn updates_are_each_sequence_alone_over_every_position_sliced() {
    let (cfg, hyper) = (LmConfig::tiny(), WorkerHyper::default());
    let (data, seqs) = batch(cfg.vocab, 3);
    let f32s = |name: &str| data.f32(name).unwrap().0.to_vec();
    let (old_logp, adv) = (f32s("logp_old"), f32s("advantages"));
    let (returns, old_v) = (f32s("returns"), f32s("values"));
    let row = |v: &[f32], i: usize| v[i * RW..(i + 1) * RW].to_vec();
    let read = [response()];

    // The actor's loss over every position of one sequence, the response
    // window sliced out on the tape: PPO clip plus the entropy bonus.
    let actor = TinyLm::new(cfg, hyper.seed);
    let actor_grads = (seqs.iter().enumerate())
        .map(|(i, seq)| {
            let mut fp = actor.forward(&seq[..seq.len() - 1]);
            let lp = fp.tape.gather_log_prob(fp.logits, &seq[1..]);
            let lp = fp.tape.slice_rows(lp, &read);
            let ppo = fp.tape.ppo_clip_loss(lp, &row(&old_logp, i), &row(&adv, i), hyper.clip);
            let logits = fp.tape.slice_rows(fp.logits, &read);
            let ent = fp.tape.mean_entropy(logits);
            let bonus = fp.tape.scale(ent, -hyper.entropy_coef);
            let loss = fp.tape.add(ppo, bonus);
            fp.backward(loss)
        })
        .collect();
    let want_actor = stepped(&actor, hyper.lr, actor_grads);
    // The critic's clipped value loss, likewise.
    let critic = TinyLm::new(cfg, hyper.seed ^ 0xc417);
    let critic_grads: Vec<Vec<f32>> = (seqs.iter().enumerate())
        .map(|(i, seq)| {
            let mut fp = critic.forward(seq);
            let v = fp.tape.slice_rows(fp.values, &read);
            let loss = fp.tape.value_clip_loss(v, &row(&returns, i), &row(&old_v, i), hyper.vclip);
            fp.backward(loss)
        })
        .collect();
    assert!(critic_grads[4].iter().all(|g| g.to_bits() == 0), "row 4's value terms are clipped");
    let want_critic = stepped(&critic, hyper.lr, critic_grads);

    // Alone, and with the rows shared across a model-parallel pair.
    for spec in [ParallelSpec::new(1, 1, 1), ParallelSpec::new(1, 2, 1)] {
        let hyper = hyper.clone();
        let (_c, actor) = group(spec, || Box::new(ActorWorker::new(cfg, hyper.clone())));
        actor.call_sync("update_actor", &data, Protocol::ThreeD).unwrap();
        let params = collect_state(&actor).unwrap().params;
        assert_eq!(bits(&params), bits(&want_actor), "actor weights on {spec:?}");
        let (_c, critic) = group(spec, || Box::new(CriticWorker::new(cfg, hyper.clone())));
        critic.call_sync("update_critic", &data, Protocol::ThreeD).unwrap();
        let params = collect_state(&critic).unwrap().params;
        assert_eq!(bits(&params), bits(&want_critic), "critic weights on {spec:?}");
    }
}

#[test]
fn neural_reward_scores_are_each_sequence_s_last_value() {
    let cfg = LmConfig::tiny();
    let kind = RewardKind::Neural { seed: 23 };
    let (data, seqs) = batch(cfg.vocab, 4);
    let lm = TinyLm::new(cfg, 23);
    let want: Vec<f32> = seqs.iter().map(|seq| *lm.values(seq).last().unwrap()).collect();
    for spec in [ParallelSpec::new(1, 1, 1), ParallelSpec::new(1, 2, 2)] {
        let make = || Box::new(RewardWorker::new(cfg, kind.clone(), WorkerHyper::default()));
        let (_c, reward) = group(spec, || make() as Box<dyn Worker>);
        let reply = reward.call_sync("compute_reward", &data, Protocol::ThreeD).unwrap();
        assert_eq!(column(&reply, "scores"), bits(&want), "scores on {spec:?}");
    }
}

#[test]
fn generation_log_probs_are_the_padded_forward() {
    // `logp_old` of a full-length row comes from the decode, of a row a
    // stop token cut short from a forward over the padded row that reads
    // its response window: either way it is the forward's log-prob of
    // each response token.
    let cfg = RlhfConfig::tiny();
    let reply = |stop: Option<u32>, no_logp: bool| {
        let ctrl = Controller::new(ClusterSpec::a100_with_gpus(4));
        let gen = GenGrouping::new(ParallelSpec::new(1, 2, 2), 1, 1, GroupingMethod::Strided);
        let pool = ResourcePool::contiguous(0, 4);
        let placement = Placement::colocated(pool, WorkerLayout::with_gen(gen), false, false);
        let sys = RlhfSystem::build(&ctrl, &placement, cfg.clone()).unwrap();
        let mut prompts = make_prompts(8, cfg.prompt_len, cfg.response_len, cfg.lm.vocab as u32, 7);
        if let Some(stop) = stop {
            prompts.meta.insert("stop_tokens".into(), stop.to_string());
        }
        if no_logp {
            prompts.meta.insert(hf_rlhf::NO_LOGP_META.into(), "1".into());
        }
        sys.actor.invoke_sync("generate_sequences", &prompts).unwrap()
    };
    // A stop token from row 0's response that some other row never
    // samples: some rows stop short, some run to full length.
    let free = reply(None, false);
    let (resps, rw) = free.tokens("responses").unwrap();
    let rows: Vec<&[u32]> = resps.chunks(rw).collect();
    let stop = *(rows[0].iter())
        .find(|&t| rows.iter().any(|r| !r.contains(t)))
        .expect("a token some row never samples");
    let batch = reply(Some(stop), false);
    let lens = batch.f32("response_len").unwrap().0.to_vec();
    assert!(lens.iter().any(|&l| l < rw as f32), "a row stops short: {lens:?}");
    assert!(lens.contains(&(rw as f32)), "a row runs to full length: {lens:?}");

    let lm = TinyLm::new(cfg.lm, cfg.hyper.seed);
    let (prompts, pw) = batch.tokens("prompts").unwrap();
    let (resps, _) = batch.tokens("responses").unwrap();
    let seqs: Vec<Vec<usize>> = (prompts.chunks(pw).zip(resps.chunks(rw)))
        .map(|(p, r)| p.iter().chain(r).map(|&t| t as usize).collect())
        .collect();
    let want: Vec<f32> =
        seqs.iter().flat_map(|seq| lm.log_probs(seq)[pw - 1..pw - 1 + rw].to_vec()).collect();
    assert_eq!(column(&batch, "logp_old"), bits(&want));

    let stamped = reply(Some(stop), true);
    assert!(!stamped.has("logp_old"), "the stamp still leaves the column out");
    assert_eq!(stamped.tokens("responses").unwrap(), batch.tokens("responses").unwrap());
}
