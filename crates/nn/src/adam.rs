//! Adam optimizer (paper §8.1: actor and critic are updated via Adam).

/// Adam with bias correction over a flat parameter buffer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub(crate) lr: f32,
    /// First-moment decay.
    pub(crate) beta1: f32,
    /// Second-moment decay.
    pub(crate) beta2: f32,
    /// Numerical stabilizer.
    pub(crate) eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `n` parameters.
    pub fn new(n: usize, lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: vec![0.0; n], v: vec![0.0; n], t: 0 }
    }

    /// Snapshot of the optimizer state `(m, v, t)` for checkpointing.
    pub fn state(&self) -> (&[f32], &[f32], u64) {
        (&self.m, &self.v, self.t)
    }

    /// Restores a snapshot taken with [`Adam::state`].
    ///
    /// # Panics
    ///
    /// Panics if the moment lengths disagree with this optimizer.
    pub fn load_state(&mut self, m: &[f32], v: &[f32], t: u64) {
        assert_eq!(m.len(), self.m.len(), "optimizer m length mismatch");
        assert_eq!(v.len(), self.v.len(), "optimizer v length mismatch");
        self.m.copy_from_slice(m);
        self.v.copy_from_slice(v);
        self.t = t;
    }

    /// Applies one update to `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree with the optimizer's state.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_with(params, grads, |g| g);
    }

    /// [`Adam::step`] on `grads[i] / divisor`: the mean of a gradient
    /// sum, taken as the sum is read — the sum may be shared.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree with the optimizer's state.
    pub fn step_mean(&mut self, params: &mut [f32], grads: &[f32], divisor: f32) {
        self.step_with(params, grads, |g| g / divisor);
    }

    fn step_with(&mut self, params: &mut [f32], grads: &[f32], grad: impl Fn(f32) -> f32) {
        assert_eq!(params.len(), self.m.len(), "param length mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grad(grads[i]);
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            params[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_moves_by_lr() {
        // With bias correction, the first step is exactly lr·sign(g).
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![1.0f32, -2.0];
        opt.step(&mut p, &[0.5, -3.0]);
        assert!((p[0] - (1.0 - 0.1)).abs() < 1e-4);
        assert!((p[1] - (-2.0 + 0.1)).abs() < 1e-4);
        assert_eq!(opt.t, 1);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize (p - 3)²: gradient 2(p − 3).
        let mut opt = Adam::new(1, 0.05);
        let mut p = vec![0.0f32];
        for _ in 0..2000 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "p = {}", p[0]);
    }

    #[test]
    fn zero_gradient_leaves_params_fixed() {
        let mut opt = Adam::new(3, 0.1);
        let mut p = vec![1.0f32, 2.0, 3.0];
        opt.step(&mut p, &[0.0, 0.0, 0.0]);
        assert_eq!(p, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn step_mean_is_step_on_the_divided_gradient() {
        let (mut a, mut b) = (Adam::new(3, 0.1), Adam::new(3, 0.1));
        let (mut pa, mut pb) = (vec![1.0f32, -2.0, 0.5], vec![1.0f32, -2.0, 0.5]);
        let sum = [0.7f32, -1.9, 3.3];
        for _ in 0..3 {
            a.step_mean(&mut pa, &sum, 3.0);
            b.step(&mut pb, &sum.map(|g| g / 3.0));
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pa), bits(&pb));
        assert_eq!(bits(a.state().0), bits(b.state().0));
    }

    #[test]
    #[should_panic(expected = "grad length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Adam::new(2, 0.1);
        let mut p = vec![0.0f32, 0.0];
        opt.step(&mut p, &[1.0]);
    }
}
