//! Stage replay: one RLHF iteration issued stage by stage through the
//! public `WorkerGroup::invoke` / `wait` calls, with one host span per
//! stage. The drivers in `hf-rlhf` keep their stages private, so this is
//! how the traced run sees where an iteration's host time goes — and how
//! it obtains the experience batch the layer probes are shaped by.

use hybridflow::core::{CoreError, DataProto, Result};
use hybridflow::rlhf::{gae, grpo_advantages, shape_token_rewards, whiten};

use crate::recorder::Recorder;
use crate::workloads::{Driver, Session};

/// Host time of each stage of one replayed iteration (µs).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// `generate_sequences` on the actor group, plus the log-prob
    /// recomputation when the configuration asks for it.
    pub generate_us: f64,
    /// Values + reference log-probs + reward, issued together.
    pub prepare_us: f64,
    /// Advantage estimation on the controller.
    pub advantage_us: f64,
    /// Every micro-batch update of the iteration.
    pub update_us: f64,
    /// The whole replayed iteration.
    pub total_us: f64,
}

/// GRPO's prompt expansion: each prompt repeated `group` times.
fn expand_prompts(prompts: &DataProto, group: usize) -> Result<DataProto> {
    let (toks, width) = prompts.tokens("prompts")?;
    let mut out = Vec::with_capacity(toks.len() * group);
    for row in toks.chunks(width) {
        for _ in 0..group {
            out.extend_from_slice(row);
        }
    }
    let mut expanded = DataProto::with_rows(prompts.rows() * group);
    expanded.insert_tokens("prompts", out, width);
    expanded.meta = prompts.meta.clone();
    Ok(expanded)
}

/// Token rewards + GAE + whitening (PPO), from the public estimators.
fn ppo_advantages(batch: &mut DataProto, session: &Session) -> Result<()> {
    let cfg = &session.cfg;
    let rw = cfg.response_len;
    let (mut advantages, mut returns) = (Vec::new(), Vec::new());
    {
        let (logp, _) = batch.f32("logp_old")?;
        let (ref_logp, _) = batch.f32("ref_logp")?;
        let (values, _) = batch.f32("values")?;
        let (scores, _) = batch.f32("scores")?;
        for (i, &score) in scores.iter().enumerate() {
            let row = i * rw..(i + 1) * rw;
            let r =
                shape_token_rewards(score, &logp[row.clone()], &ref_logp[row.clone()], cfg.kl_coef);
            let (a, ret) = gae(&r, &values[row], cfg.gamma, cfg.lam);
            advantages.extend(a);
            returns.extend(ret);
        }
    }
    whiten(&mut advantages);
    batch.insert_f32("advantages", advantages, rw);
    batch.insert_f32("returns", returns, rw);
    Ok(())
}

/// Group-relative advantages with the KL penalty (GRPO).
fn grpo_batch_advantages(batch: &mut DataProto, session: &Session) -> Result<()> {
    let cfg = &session.cfg;
    let (rw, g) = (cfg.response_len, cfg.grpo_group.max(1));
    let mut advantages = Vec::new();
    {
        let (scores, _) = batch.f32("scores")?;
        let (logp, _) = batch.f32("logp_old")?;
        let (ref_logp, _) = batch.f32("ref_logp")?;
        for (group, s) in scores.chunks(g).enumerate() {
            for (j, adv) in grpo_advantages(s).iter().enumerate() {
                let i = group * g + j;
                advantages.extend(
                    (0..rw).map(|t| adv - cfg.kl_coef * (logp[i * rw + t] - ref_logp[i * rw + t])),
                );
            }
        }
    }
    batch.insert_f32("advantages", advantages, rw);
    Ok(())
}

/// Replays one iteration on `session`'s system and returns the stage
/// times and the finished experience batch.
pub fn iteration(
    session: &Session,
    rec: &mut Recorder,
    prompts: &DataProto,
) -> Result<(StageTimes, DataProto)> {
    let sys = &session.sys;
    let grpo = session.workload.driver == Driver::Grpo;
    let mut times = StageTimes::default();
    let (result, total_us) = rec.span("replay.iteration", "rlhf", |rec| -> Result<DataProto> {
        let gen_input =
            if grpo { expand_prompts(prompts, session.cfg.grpo_group)? } else { prompts.clone() };
        let (batch, us) = rec.span("rlhf.generate", "rlhf", |_| {
            sys.actor.invoke_sync("generate_sequences", &gen_input)
        });
        let mut batch = batch?;
        times.generate_us = us;
        if session.cfg.recompute_logp && !grpo {
            // PPO's optional pass, part of the driver's generation phase:
            // the training engine's log-probs replace the sampler's.
            let (lp, us) = rec.span("rlhf.recompute_logp", "rlhf", |_| {
                sys.actor.invoke_sync("compute_log_prob", &batch)
            });
            times.generate_us += us;
            let lp = lp?;
            let (cur, width) = lp.f32("cur_logp")?;
            let cur = cur.to_vec();
            batch.insert_f32("logp_old", cur, width);
        }

        let (prepared, us) = rec.span("rlhf.prepare", "rlhf", |_| -> Result<()> {
            let mut futures = Vec::new();
            if !grpo {
                let critic =
                    sys.critic.as_ref().ok_or_else(|| CoreError::Config("no critic".into()))?;
                futures.push(critic.invoke("compute_values", &batch)?);
            }
            futures.push(sys.reference.invoke("compute_ref_log_prob", &batch)?);
            futures.push(sys.reward.invoke("compute_reward", &batch)?);
            for f in futures {
                batch.union(f.wait()?)?;
            }
            Ok(())
        });
        times.prepare_us = us;
        prepared?;

        let (adv, us) = rec.span("rlhf.advantage", "rlhf", |_| {
            if grpo {
                grpo_batch_advantages(&mut batch, session)
            } else {
                ppo_advantages(&mut batch, session)
            }
        });
        times.advantage_us = us;
        adv?;

        for mb in batch.chunk(session.cfg.updates) {
            let (updated, us) = rec.span("rlhf.update", "rlhf", |_| -> Result<()> {
                if grpo {
                    sys.actor.invoke_sync("update_actor", &mb)?;
                } else {
                    let critic =
                        sys.critic.as_ref().ok_or_else(|| CoreError::Config("no critic".into()))?;
                    let f_c = critic.invoke("update_critic", &mb)?;
                    let f_a = sys.actor.invoke("update_actor", &mb)?;
                    f_c.wait()?;
                    f_a.wait()?;
                }
                Ok(())
            });
            times.update_us += us;
            updated?;
        }
        Ok(batch)
    });
    times.total_us = total_us;
    Ok((times, result?))
}
