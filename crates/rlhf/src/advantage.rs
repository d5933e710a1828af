//! Advantage estimation and reward shaping (`compute_advantage` in the
//! paper's Figure 6 — numerical computation on the single controller,
//! no model forward passes).

/// Shapes per-token rewards from a sample-level score plus a per-token
/// KL penalty against the reference policy:
/// `r_t = −kl_coef · (logp_t − ref_logp_t) + [t = last] · score`.
///
/// # Panics
///
/// Panics if slices disagree in length or are empty.
pub fn shape_token_rewards(score: f32, logp: &[f32], ref_logp: &[f32], kl_coef: f32) -> Vec<f32> {
    assert_eq!(logp.len(), ref_logp.len());
    assert!(!logp.is_empty());
    let last = logp.len() - 1;
    logp.iter()
        .zip(ref_logp.iter())
        .enumerate()
        .map(|(t, (lp, rlp))| {
            let kl = -kl_coef * (lp - rlp);
            if t == last {
                kl + score
            } else {
                kl
            }
        })
        .collect()
}

/// Generalized Advantage Estimation \[67\]: returns `(advantages,
/// returns)` for one trajectory, with terminal value 0.
///
/// # Examples
///
/// ```
/// use hf_rlhf::gae;
///
/// // λ = 1 telescopes to discounted-return minus value.
/// let (adv, ret) = gae(&[0.0, 0.0, 1.0], &[0.2, 0.3, 0.4], 1.0, 1.0);
/// assert!((ret[0] - 1.0).abs() < 1e-6);
/// assert!((adv[2] - (1.0 - 0.4)).abs() < 1e-6);
/// ```
///
/// `values[t]` is the critic's value of the state *before* emitting
/// token `t`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn gae(rewards: &[f32], values: &[f32], gamma: f32, lam: f32) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(rewards.len(), values.len());
    let n = rewards.len();
    let mut adv = vec![0.0f32; n];
    let mut last = 0.0f32;
    for t in (0..n).rev() {
        let next_v = if t + 1 < n { values[t + 1] } else { 0.0 };
        let delta = rewards[t] + gamma * next_v - values[t];
        last = delta + gamma * lam * last;
        adv[t] = last;
    }
    let ret: Vec<f32> = adv.iter().zip(values.iter()).map(|(a, v)| a + v).collect();
    (adv, ret)
}

/// ReMax \[43\]: advantage is the sampled score minus the greedy-rollout
/// baseline score, broadcast over the response tokens.
pub fn remax_advantage(score: f32, baseline_score: f32, len: usize) -> Vec<f32> {
    vec![score - baseline_score; len]
}

/// GRPO \[70\]: group-relative advantages — standardize each sample's
/// score within its prompt group.
///
/// # Panics
///
/// Panics if `scores` is empty.
pub fn grpo_advantages(scores: &[f32]) -> Vec<f32> {
    assert!(!scores.is_empty());
    let n = scores.len() as f32;
    let mean = scores.iter().sum::<f32>() / n;
    let var = scores.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    scores.iter().map(|s| (s - mean) / std).collect()
}

/// Whitens advantages to zero mean and unit variance (standard PPO
/// stabilization).
pub fn whiten(adv: &mut [f32]) {
    if adv.len() < 2 {
        return;
    }
    let n = adv.len() as f32;
    let mean = adv.iter().sum::<f32>() / n;
    let var = adv.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / n;
    let std = var.sqrt().max(1e-6);
    for a in adv.iter_mut() {
        *a = (*a - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_shaping_penalizes_divergence() {
        let r = shape_token_rewards(1.0, &[-1.0, -1.0], &[-1.0, -2.0], 0.1);
        // Token 0: no divergence → 0. Token 1: logp > ref (+1) → −0.1 + 1.
        assert!((r[0] - 0.0).abs() < 1e-6);
        assert!((r[1] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn gae_with_lambda_one_is_discounted_return_minus_value() {
        // λ=1 telescopes: A_t = Σ γ^k r_{t+k} − V_t.
        let rewards = [1.0, 0.5, 2.0];
        let values = [0.3, -0.2, 0.9];
        let gamma = 0.9;
        let (adv, ret) = gae(&rewards, &values, gamma, 1.0);
        let g2 = 2.0;
        let g1 = 0.5 + gamma * g2;
        let g0 = 1.0 + gamma * g1;
        assert!((adv[0] - (g0 - 0.3)).abs() < 1e-5);
        assert!((adv[1] - (g1 + 0.2)).abs() < 1e-5);
        assert!((adv[2] - (g2 - 0.9)).abs() < 1e-5);
        // Returns = advantages + values = discounted returns.
        assert!((ret[0] - g0).abs() < 1e-5);
    }

    #[test]
    fn gae_lambda_zero_is_td_error() {
        let rewards = [1.0, 2.0];
        let values = [0.5, 0.25];
        let (adv, _) = gae(&rewards, &values, 1.0, 0.0);
        assert!((adv[0] - (1.0 + 0.25 - 0.5)).abs() < 1e-6);
        assert!((adv[1] - (2.0 - 0.25)).abs() < 1e-6);
    }

    #[test]
    fn remax_is_score_difference() {
        let a = remax_advantage(0.8, 0.5, 3);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&x| (x - 0.3).abs() < 1e-6));
    }

    #[test]
    fn grpo_standardizes_within_group() {
        let a = grpo_advantages(&[1.0, 2.0, 3.0]);
        let mean: f32 = a.iter().sum::<f32>() / 3.0;
        assert!(mean.abs() < 1e-6);
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn grpo_handles_constant_scores() {
        let a = grpo_advantages(&[0.5, 0.5, 0.5]);
        assert!(a.iter().all(|&x| x.abs() < 1e-3));
    }

    #[test]
    fn whiten_normalizes() {
        let mut a = vec![1.0, 3.0, 5.0, 7.0];
        whiten(&mut a);
        let mean: f32 = a.iter().sum::<f32>() / 4.0;
        let var: f32 = a.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-4);
    }
}
