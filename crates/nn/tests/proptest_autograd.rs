//! Property tests for the autograd tape: analytic gradients match
//! central finite differences on randomized inputs, and distribution
//! invariants hold.

use hf_nn::{Tape, Tensor};
use proptest::prelude::*;

fn small_vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-20i32..20).prop_map(|v| v as f32 / 10.0), n)
}

type Built = (hf_nn::Var, hf_nn::Var); // (input leaf, scalar loss)

fn finite_diff_check(
    build: impl Fn(&mut Tape, Tensor) -> Built,
    input: Tensor,
    tol: f32,
) -> Result<(), TestCaseError> {
    let mut tape = Tape::new();
    let (x, loss) = build(&mut tape, input.clone());
    tape.backward(loss);
    let grad = tape.grad(x);
    let h = 1e-2f32;
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.data_mut()[i] += h;
        let mut minus = input.clone();
        minus.data_mut()[i] -= h;
        let mut tp = Tape::new();
        let (_, lp) = build(&mut tp, plus);
        let mut tm = Tape::new();
        let (_, lm) = build(&mut tm, minus);
        let numeric = (tp.value(lp).get(0, 0) - tm.value(lm).get(0, 0)) / (2.0 * h);
        let analytic = grad.data()[i];
        prop_assert!(
            (analytic - numeric).abs() <= tol * (1.0 + analytic.abs().max(numeric.abs())),
            "elem {i}: analytic {analytic} vs numeric {numeric}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mlp_chain_gradient_matches_finite_difference(vals in small_vals(6)) {
        let x = Tensor::new(vals, 2, 3);
        finite_diff_check(
            |tape, input| {
                let x = tape.leaf(input);
                let w = tape.leaf(Tensor::new(vec![0.4, -0.3, 0.7, 0.2, -0.6, 0.1], 2, 3));
                let g = tape.leaf(Tensor::new(vec![1.0, 0.9, 1.1], 1, 3));
                let n = tape.rmsnorm(x, g);
                let y = tape.matmul_nt(n, w);
                let s = tape.silu(y);
                (x, tape.mean_all(s))
            },
            x,
            0.08,
        )?;
    }

    #[test]
    fn cum_mean_gradient_matches_finite_difference(vals in small_vals(8)) {
        let x = Tensor::new(vals, 4, 2);
        finite_diff_check(
            |tape, input| {
                let x = tape.leaf(input);
                let c = tape.cum_mean(x);
                let s = tape.silu(c);
                (x, tape.mean_all(s))
            },
            x,
            0.05,
        )?;
    }

    #[test]
    fn log_probs_are_log_of_a_distribution(vals in small_vals(12)) {
        // exp(gathered log-probs) over all classes must sum to 1 per row.
        let logits = Tensor::new(vals, 3, 4);
        for row in 0..3 {
            let mut total = 0.0f32;
            for class in 0..4 {
                let mut tape = Tape::new();
                let l = tape.leaf(logits.clone());
                let lp = tape.gather_log_prob(l, &[class, class, class]);
                total += tape.value(lp).get(row, 0).exp();
            }
            prop_assert!((total - 1.0).abs() < 1e-4, "row {row}: {total}");
        }
    }

    #[test]
    fn entropy_is_bounded(vals in small_vals(8)) {
        let logits = Tensor::new(vals, 2, 4);
        let mut tape = Tape::new();
        let l = tape.leaf(logits);
        let h = tape.mean_entropy(l);
        let v = tape.value(h).get(0, 0);
        prop_assert!(v >= -1e-5 && v <= (4f32).ln() + 1e-5, "H = {v}");
    }

    #[test]
    fn ppo_loss_zero_advantage_has_zero_gradient(logp in small_vals(4)) {
        let t = Tensor::new(logp.clone(), 4, 1);
        let mut tape = Tape::new();
        let l = tape.leaf(t);
        let loss = tape.ppo_clip_loss(l, &logp, &[0.0; 4], 0.2);
        tape.backward(loss);
        let g = tape.grad(l);
        prop_assert!(g.data().iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn slice_rows_preserves_values(vals in small_vals(12), start in 0usize..3) {
        let x = Tensor::new(vals.clone(), 4, 3);
        let end = (start + 1).clamp(2, 4);
        let mut tape = Tape::new();
        let l = tape.leaf(x);
        #[allow(clippy::single_range_in_vec_init)] // the one segment's window
        let s = tape.slice_rows(l, &[start..end]);
        let sv = tape.value(s);
        for r in start..end {
            for c in 0..3 {
                prop_assert_eq!(sv.get(r - start, c), vals[r * 3 + c]);
            }
        }
    }
}
