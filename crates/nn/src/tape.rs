//! Tape-based reverse-mode autograd.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes;
//! [`Tape::backward`] walks it in reverse, accumulating gradients. The
//! op set is exactly what the RLHF losses need, including fused ops for
//! log-prob gathering, the PPO clipped surrogate, the clipped value
//! loss, and a policy-entropy regularizer — matching the loss functions
//! of Table 4 ("we implement various loss for diverse RLHF algorithms").

#![allow(clippy::needless_range_loop)] // index loops mirror the math

use crate::kernels;
use crate::tensor::{Mat, Tensor};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    /// `y = x · wᵀ` with `x: [T×k]`, `w: [n×k]`.
    MatmulNt {
        x: usize,
        w: usize,
    },
    Add {
        a: usize,
        b: usize,
    },
    Scale {
        x: usize,
        c: f32,
    },
    Silu {
        x: usize,
    },
    RmsNorm {
        x: usize,
        gain: usize,
        eps: f32,
    },
    CumMean {
        x: usize,
    },
    Embed {
        table: usize,
        ids: Vec<usize>,
    },
    GatherLogProb {
        logits: usize,
        targets: Vec<usize>,
        probs: Tensor,
    },
    MeanEntropy {
        logits: usize,
        probs: Tensor,
    },
    MeanAll {
        x: usize,
    },
    SliceRows {
        x: usize,
        start: usize,
    },
    PpoClip {
        logp: usize,
        old_logp: Vec<f32>,
        adv: Vec<f32>,
        eps: f32,
    },
    ValueClip {
        v: usize,
        returns: Vec<f32>,
        old_v: Vec<f32>,
        eps: f32,
    },
}

/// A node's forward value: computed (or a caller's constant), or a
/// parameter matrix read in place from the model's flat buffer.
enum Value<'a> {
    Owned(Tensor),
    Param(Mat<'a>),
}

struct Node<'a> {
    value: Value<'a>,
    grad: Option<Tensor>,
    op: Op,
}

impl Node<'_> {
    fn mat(&self) -> Mat<'_> {
        match &self.value {
            Value::Owned(t) => t.mat(),
            Value::Param(m) => *m,
        }
    }
}

/// A reverse-mode autograd tape. `'a` is the lifetime of the parameter
/// buffer its [`Tape::param`] leaves borrow.
#[derive(Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn softmax_rows(logits: Mat) -> Tensor {
    let mut p = Tensor::zeros(logits.rows, logits.cols);
    for r in 0..logits.rows {
        let row = logits.row(r);
        let prow = p.row_mut(r);
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (pv, &v) in prow.iter_mut().zip(row) {
            let e = (v - m).exp();
            *pv = e;
            z += e;
        }
        for pv in prow.iter_mut() {
            *pv /= z;
        }
    }
    p
}

/// Adds `g` into the gradient of `nodes[idx]`.
fn accumulate(nodes: &mut [Node], idx: usize, g: Tensor) {
    match &mut nodes[idx].grad {
        Some(existing) => existing.add_scaled(&g, 1.0),
        slot => *slot = Some(g),
    }
}

impl<'a> Tape<'a> {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value: Value::Owned(value), grad: None, op });
        Var(self.nodes.len() - 1)
    }

    fn mat(&self, v: Var) -> Mat<'_> {
        self.nodes[v.0].mat()
    }

    /// Registers an input (parameter or constant) tensor.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        self.push(t, Op::Leaf)
    }

    /// Registers a `[rows × cols]` parameter matrix read in place from
    /// `data` — no copy per forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn param(&mut self, data: &'a [f32], rows: usize, cols: usize) -> Var {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        let value = Value::Param(Mat { data, rows, cols });
        self.nodes.push(Node { value, grad: None, op: Op::Leaf });
        Var(self.nodes.len() - 1)
    }

    /// The forward value at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a [`Tape::param`] leaf: its values live in the
    /// buffer it borrows.
    pub fn value(&self, v: Var) -> &Tensor {
        match &self.nodes[v.0].value {
            Value::Owned(t) => t,
            Value::Param(_) => panic!("a borrowed parameter leaf holds no tensor"),
        }
    }

    /// The gradient [`Tape::backward`] left at leaf `v`, if it received
    /// one. Gradients of intermediate nodes are consumed by the pass.
    pub fn leaf_grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// A copy of [`Tape::leaf_grad`] (zeros if `v` never received one).
    pub fn grad(&self, v: Var) -> Tensor {
        let m = self.mat(v);
        self.leaf_grad(v).cloned().unwrap_or_else(|| Tensor::zeros(m.rows, m.cols))
    }

    /// `x · wᵀ`.
    pub fn matmul_nt(&mut self, x: Var, w: Var) -> Var {
        let y = kernels::x_wt(self.mat(x), self.mat(w));
        self.push(y, Op::MatmulNt { x: x.0, w: w.0 })
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let y = self.value(a).add(self.value(b));
        self.push(y, Op::Add { a: a.0, b: b.0 })
    }

    /// `c · x`.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let y = self.value(x).map(|v| c * v);
        self.push(y, Op::Scale { x: x.0, c })
    }

    /// SiLU activation `x · σ(x)`.
    pub fn silu(&mut self, x: Var) -> Var {
        let y = self.value(x).map(|v| v * sigmoid(v));
        self.push(y, Op::Silu { x: x.0 })
    }

    /// Row-wise RMS normalization with a learned gain vector `[1 × h]`.
    pub fn rmsnorm(&mut self, x: Var, gain: Var) -> Var {
        let eps = 1e-6;
        let (xv, g) = (self.mat(x), self.mat(gain));
        assert_eq!(g.rows, 1);
        assert_eq!(g.cols, xv.cols);
        let mut y = Tensor::zeros(xv.rows, xv.cols);
        for r in 0..xv.rows {
            let row = xv.row(r);
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / row.len() as f32;
            let inv = 1.0 / (ms + eps).sqrt();
            for ((y, &v), &g) in y.row_mut(r).iter_mut().zip(row).zip(g.data) {
                *y = v * inv * g;
            }
        }
        self.push(y, Op::RmsNorm { x: x.0, gain: gain.0, eps })
    }

    /// Causal cumulative mean over rows: `y_t = mean(x_0..=x_t)`.
    pub fn cum_mean(&mut self, x: Var) -> Var {
        let xv = self.mat(x);
        let mut y = Tensor::zeros(xv.rows, xv.cols);
        let mut acc = vec![0.0f32; xv.cols];
        for r in 0..xv.rows {
            for (a, &v) in acc.iter_mut().zip(xv.row(r).iter()) {
                *a += v;
            }
            let inv = 1.0 / (r as f32 + 1.0);
            for (y, a) in y.row_mut(r).iter_mut().zip(&acc) {
                *y = a * inv;
            }
        }
        self.push(y, Op::CumMean { x: x.0 })
    }

    /// Embedding lookup: rows of `table` selected by `ids`.
    ///
    /// # Panics
    ///
    /// Panics if an id exceeds the table rows.
    pub fn embed(&mut self, table: Var, ids: &[usize]) -> Var {
        let tv = self.mat(table);
        let mut y = Tensor::zeros(ids.len(), tv.cols);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < tv.rows, "token id {id} out of vocab {}", tv.rows);
            y.row_mut(r).copy_from_slice(tv.row(id));
        }
        self.push(y, Op::Embed { table: table.0, ids: ids.to_vec() })
    }

    /// Token log-probabilities: `out[t] = log softmax(logits[t])[targets[t]]`.
    pub fn gather_log_prob(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.mat(logits);
        assert_eq!(lv.rows, targets.len());
        let probs = softmax_rows(lv);
        let mut y = Tensor::zeros(targets.len(), 1);
        for (t, &tok) in targets.iter().enumerate() {
            y.set(t, 0, probs.get(t, tok).max(1e-30).ln());
        }
        self.push(y, Op::GatherLogProb { logits: logits.0, targets: targets.to_vec(), probs })
    }

    /// Mean policy entropy over rows of `logits` (scalar output).
    pub fn mean_entropy(&mut self, logits: Var) -> Var {
        let probs = softmax_rows(self.mat(logits));
        let mut total = 0.0f32;
        for r in 0..probs.rows() {
            for &p in probs.row(r).iter() {
                if p > 0.0 {
                    total -= p * p.ln();
                }
            }
        }
        let y = Tensor::scalar(total / probs.rows() as f32);
        self.push(y, Op::MeanEntropy { logits: logits.0, probs })
    }

    /// Rows `[start, end)` of `x` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_rows(&mut self, x: Var, start: usize, end: usize) -> Var {
        let xv = self.mat(x);
        assert!(start <= end && end <= xv.rows, "slice_rows out of bounds");
        let data = xv.data[start * xv.cols..end * xv.cols].to_vec();
        let y = Tensor::new(data, end - start, xv.cols);
        self.push(y, Op::SliceRows { x: x.0, start })
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let y = Tensor::scalar(xv.sum() / xv.len() as f32);
        self.push(y, Op::MeanAll { x: x.0 })
    }

    /// PPO clipped surrogate loss (scalar):
    /// `-mean(min(r·A, clip(r, 1−ε, 1+ε)·A))` with `r = exp(logp − old)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn ppo_clip_loss(&mut self, logp: Var, old_logp: &[f32], adv: &[f32], eps: f32) -> Var {
        let lv = self.mat(logp).data;
        assert_eq!(lv.len(), old_logp.len());
        assert_eq!(lv.len(), adv.len());
        let mut total = 0.0f32;
        for t in 0..old_logp.len() {
            let r = (lv[t] - old_logp[t]).exp();
            let u = r * adv[t];
            let v = r.clamp(1.0 - eps, 1.0 + eps) * adv[t];
            total += u.min(v);
        }
        let y = Tensor::scalar(-total / old_logp.len() as f32);
        self.push(
            y,
            Op::PpoClip { logp: logp.0, old_logp: old_logp.to_vec(), adv: adv.to_vec(), eps },
        )
    }

    /// Clipped value loss (scalar):
    /// `0.5 · mean(max((v−R)², (v_clip−R)²))` with
    /// `v_clip = old_v + clip(v − old_v, −ε, ε)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree.
    pub fn value_clip_loss(&mut self, v: Var, returns: &[f32], old_v: &[f32], eps: f32) -> Var {
        let vv = self.mat(v).data;
        assert_eq!(vv.len(), returns.len());
        assert_eq!(vv.len(), old_v.len());
        let mut total = 0.0f32;
        for t in 0..returns.len() {
            let val = vv[t];
            let clipped = old_v[t] + (val - old_v[t]).clamp(-eps, eps);
            let a = (val - returns[t]).powi(2);
            let b = (clipped - returns[t]).powi(2);
            total += a.max(b);
        }
        let y = Tensor::scalar(0.5 * total / returns.len() as f32);
        self.push(
            y,
            Op::ValueClip { v: v.0, returns: returns.to_vec(), old_v: old_v.to_vec(), eps },
        )
    }

    /// Runs the backward pass from scalar node `loss` (seed gradient 1).
    /// Each node's gradient is moved out as the pass reaches it; only
    /// leaves keep theirs.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a 1×1 tensor.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.mat(loss).data.len(), 1, "backward needs a scalar loss");
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));
        for idx in (0..=loss.0).rev() {
            // A node's inputs all precede it: borrow them apart from it.
            let (inputs, rest) = self.nodes.split_at_mut(idx);
            let node = &mut rest[0];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(gy) = node.grad.take() else { continue };
            match &node.op {
                Op::Leaf => unreachable!("leaves keep their gradient"),
                &Op::MatmulNt { x, w } => {
                    let dx = kernels::g_w(gy.mat(), inputs[w].mat());
                    let dw = kernels::gt_x(gy.mat(), inputs[x].mat());
                    accumulate(inputs, x, dx);
                    accumulate(inputs, w, dw);
                }
                &Op::Add { a, b } => {
                    accumulate(inputs, a, gy.clone());
                    accumulate(inputs, b, gy);
                }
                &Op::Scale { x, c } => accumulate(inputs, x, gy.map(|v| c * v)),
                &Op::Silu { x } => {
                    let mut dx = gy;
                    for (d, &v) in dx.data_mut().iter_mut().zip(inputs[x].mat().data) {
                        let s = sigmoid(v);
                        *d *= s * (1.0 + v * (1.0 - s));
                    }
                    accumulate(inputs, x, dx);
                }
                &Op::RmsNorm { x, gain, eps } => {
                    let (xv, g) = (inputs[x].mat(), inputs[gain].mat().data);
                    let n = xv.cols as f32;
                    let mut dx = Tensor::zeros(xv.rows, xv.cols);
                    let mut dg = Tensor::zeros(1, xv.cols);
                    for r in 0..xv.rows {
                        let (row, gyr) = (xv.row(r), gy.row(r));
                        let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / n;
                        let inv = 1.0 / (ms + eps).sqrt();
                        // s = Σ_i gy_i · g_i · x_i.
                        let mut s = 0.0f32;
                        for c in 0..xv.cols {
                            s += gyr[c] * g[c] * row[c];
                        }
                        let (dxr, dgr) = (dx.row_mut(r), dg.data_mut());
                        for c in 0..xv.cols {
                            dxr[c] = gyr[c] * g[c] * inv - row[c] * s * inv.powi(3) / n;
                            dgr[c] += gyr[c] * row[c] * inv;
                        }
                    }
                    accumulate(inputs, x, dx);
                    accumulate(inputs, gain, dg);
                }
                &Op::CumMean { x } => {
                    let (rows, cols) = (gy.rows(), gy.cols());
                    let mut dx = Tensor::zeros(rows, cols);
                    // dX_i = Σ_{t ≥ i} gy_t / (t+1): suffix sums.
                    let mut suffix = vec![0.0f32; cols];
                    for t in (0..rows).rev() {
                        let inv = 1.0 / (t as f32 + 1.0);
                        for (s, g) in suffix.iter_mut().zip(gy.row(t)) {
                            *s += g * inv;
                        }
                        dx.row_mut(t).copy_from_slice(&suffix);
                    }
                    accumulate(inputs, x, dx);
                }
                Op::Embed { table, ids } => {
                    let mut dt = Tensor::zeros(inputs[*table].mat().rows, gy.cols());
                    for (r, &id) in ids.iter().enumerate() {
                        for (d, g) in dt.row_mut(id).iter_mut().zip(gy.row(r)) {
                            *d += g;
                        }
                    }
                    accumulate(inputs, *table, dt);
                }
                Op::GatherLogProb { logits, targets, probs } => {
                    let mut dl = Tensor::zeros(probs.rows(), probs.cols());
                    for (t, &tok) in targets.iter().enumerate() {
                        let go = gy.get(t, 0);
                        if go == 0.0 {
                            continue;
                        }
                        for (c, (d, &p)) in dl.row_mut(t).iter_mut().zip(probs.row(t)).enumerate() {
                            let ind = if c == tok { 1.0 } else { 0.0 };
                            *d = go * (ind - p);
                        }
                    }
                    accumulate(inputs, *logits, dl);
                }
                Op::MeanEntropy { logits, probs } => {
                    let go = gy.get(0, 0) / probs.rows() as f32;
                    let mut dl = Tensor::zeros(probs.rows(), probs.cols());
                    for r in 0..probs.rows() {
                        let mut h = 0.0f32;
                        for &p in probs.row(r).iter() {
                            if p > 0.0 {
                                h -= p * p.ln();
                            }
                        }
                        for (d, &p) in dl.row_mut(r).iter_mut().zip(probs.row(r)) {
                            if p > 0.0 {
                                // dH/dz_c = -p_c (ln p_c + H).
                                *d = go * (-p * (p.ln() + h));
                            }
                        }
                    }
                    accumulate(inputs, *logits, dl);
                }
                &Op::SliceRows { x, start } => {
                    let xm = inputs[x].mat();
                    let mut dx = Tensor::zeros(xm.rows, xm.cols);
                    dx.data_mut()[start * xm.cols..][..gy.len()].copy_from_slice(gy.data());
                    accumulate(inputs, x, dx);
                }
                &Op::MeanAll { x } => {
                    let xm = inputs[x].mat();
                    let go = gy.get(0, 0) / xm.data.len() as f32;
                    accumulate(inputs, x, Tensor::new(vec![go; xm.data.len()], xm.rows, xm.cols));
                }
                Op::PpoClip { logp, old_logp, adv, eps } => {
                    let lv = inputs[*logp].mat();
                    let go = gy.get(0, 0) / old_logp.len() as f32;
                    let mut dl = Tensor::zeros(lv.rows, lv.cols);
                    for t in 0..old_logp.len() {
                        let r = (lv.data[t] - old_logp[t]).exp();
                        let u = r * adv[t];
                        let v = r.clamp(1.0 - eps, 1.0 + eps) * adv[t];
                        // loss contribution is -min(u, v)/T.
                        let d = if u <= v {
                            // d u / d logp = r · A.
                            -go * r * adv[t]
                        } else if r > 1.0 - eps && r < 1.0 + eps {
                            -go * r * adv[t]
                        } else {
                            0.0 // clipped branch: constant in logp
                        };
                        dl.data_mut()[t] = d;
                    }
                    accumulate(inputs, *logp, dl);
                }
                Op::ValueClip { v, returns, old_v, eps } => {
                    let vv = inputs[*v].mat();
                    let go = gy.get(0, 0) / returns.len() as f32;
                    let mut dv = Tensor::zeros(vv.rows, vv.cols);
                    for t in 0..returns.len() {
                        let val = vv.data[t];
                        let delta = (val - old_v[t]).clamp(-eps, *eps);
                        let clipped = old_v[t] + delta;
                        let a = (val - returns[t]).powi(2);
                        let b = (clipped - returns[t]).powi(2);
                        let d = if a >= b {
                            go * (val - returns[t])
                        } else if (val - old_v[t]).abs() < *eps {
                            go * (clipped - returns[t])
                        } else {
                            0.0
                        };
                        dv.data_mut()[t] = d;
                    }
                    accumulate(inputs, *v, dv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference check of `d loss / d input[i]`.
    fn finite_diff(
        build: impl Fn(&mut Tape, Tensor) -> Var,
        input: Tensor,
        i: usize,
    ) -> (f32, f32) {
        // The builder creates its own input leaf as node 0.
        let mut tape = Tape::new();
        let loss = build(&mut tape, input.clone());
        tape.backward(loss);
        let analytic = tape.grad(Var(0)).data()[i];

        let h = 1e-3;
        let mut plus = input.clone();
        plus.data_mut()[i] += h;
        let mut minus = input.clone();
        minus.data_mut()[i] -= h;
        let mut tp = Tape::new();
        let lp = build(&mut tp, plus);
        let mut tm = Tape::new();
        let lm = build(&mut tm, minus);
        let numeric = (tp.value(lp).get(0, 0) - tm.value(lm).get(0, 0)) / (2.0 * h);
        (analytic, numeric)
    }

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())), "{a} vs {b}");
    }

    #[test]
    fn matmul_grad_matches_finite_difference() {
        let x = Tensor::new(vec![0.3, -0.7, 1.2, 0.1, -0.4, 0.9], 2, 3);
        for i in 0..6 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let x = tape.leaf(input);
                    let w = tape.leaf(Tensor::new(vec![0.5, -0.2, 0.8, 0.3, 0.9, -0.1], 2, 3));
                    let y = tape.matmul_nt(x, w);
                    let y2 = tape.silu(y);
                    tape.mean_all(y2)
                },
                x.clone(),
                i,
            );
            assert_close(a, n, 1e-2);
        }
    }

    #[test]
    fn rmsnorm_grad_matches_finite_difference() {
        let x = Tensor::new(vec![0.5, -1.0, 2.0, 0.25, 1.5, -0.75], 2, 3);
        for i in 0..6 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let x = tape.leaf(input);
                    let g = tape.leaf(Tensor::new(vec![1.1, 0.9, 1.3], 1, 3));
                    let y = tape.rmsnorm(x, g);
                    tape.mean_all(y)
                },
                x.clone(),
                i,
            );
            assert_close(a, n, 1e-2);
        }
    }

    #[test]
    fn cum_mean_grad_matches_finite_difference() {
        let x = Tensor::new(vec![1.0, -2.0, 0.5, 3.0, 0.7, -1.1], 3, 2);
        for i in 0..6 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let x = tape.leaf(input);
                    let y = tape.cum_mean(x);
                    let y2 = tape.silu(y);
                    tape.mean_all(y2)
                },
                x.clone(),
                i,
            );
            assert_close(a, n, 1e-2);
        }
    }

    #[test]
    fn gather_log_prob_grad_matches_finite_difference() {
        let logits = Tensor::new(vec![0.2, -0.5, 1.0, 0.8, 0.1, -0.3], 2, 3);
        for i in 0..6 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let l = tape.leaf(input);
                    let lp = tape.gather_log_prob(l, &[2, 0]);
                    tape.mean_all(lp)
                },
                logits.clone(),
                i,
            );
            assert_close(a, n, 1e-2);
        }
    }

    #[test]
    fn entropy_grad_matches_finite_difference() {
        let logits = Tensor::new(vec![0.2, -0.5, 1.0, 0.8, 0.1, -0.3], 2, 3);
        for i in 0..6 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let l = tape.leaf(input);
                    tape.mean_entropy(l)
                },
                logits.clone(),
                i,
            );
            assert_close(a, n, 1e-2);
        }
    }

    #[test]
    fn ppo_clip_grad_matches_finite_difference() {
        // Choose log-probs so that some ratios are inside and some
        // outside the clip range.
        let logp = Tensor::new(vec![-1.0, -0.2, -2.0, -0.9], 4, 1);
        let old = [-1.1, -1.0, -1.2, -0.9];
        let adv = [0.7, -0.5, 1.2, -0.3];
        for i in 0..4 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let l = tape.leaf(input);
                    tape.ppo_clip_loss(l, &old, &adv, 0.2)
                },
                logp.clone(),
                i,
            );
            assert_close(a, n, 2e-2);
        }
    }

    #[test]
    fn value_clip_grad_matches_finite_difference() {
        // Data chosen off the clamp kinks (|v − old_v| ≠ ε) so central
        // differences agree with the subgradient.
        let v = Tensor::new(vec![0.5, -0.3, 1.4, 0.0], 4, 1);
        let ret = [0.8, 0.2, 0.9, -0.4];
        let old = [0.45, -0.45, 0.6, 0.05];
        for i in 0..4 {
            let (a, n) = finite_diff(
                |tape, input| {
                    let l = tape.leaf(input);
                    tape.value_clip_loss(l, &ret, &old, 0.2)
                },
                v.clone(),
                i,
            );
            assert_close(a, n, 2e-2);
        }
    }

    #[test]
    fn slice_rows_grad_scatters_back() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2));
        let s = tape.slice_rows(x, 1, 3);
        assert_eq!(tape.value(s).data(), &[3.0, 4.0, 5.0, 6.0]);
        let loss = tape.mean_all(s);
        tape.backward(loss);
        let g = tape.grad(x);
        assert_eq!(g.data(), &[0.0, 0.0, 0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn embed_scatters_gradients_to_rows() {
        let mut tape = Tape::new();
        let table = tape.leaf(Tensor::new(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2));
        let x = tape.embed(table, &[0, 2, 0]);
        let loss = tape.mean_all(x);
        tape.backward(loss);
        let g = tape.grad(table);
        // Row 0 selected twice, row 2 once, row 1 never; mean over 6 elems.
        assert!((g.get(0, 0) - 2.0 / 6.0).abs() < 1e-6);
        assert_eq!(g.get(1, 0), 0.0);
        assert!((g.get(2, 1) - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn gradients_accumulate_across_uses() {
        // x used twice: grad must be the sum of both paths.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::new(vec![2.0], 1, 1));
        let y = tape.add(x, x);
        let loss = tape.mean_all(y);
        tape.backward(loss);
        assert!((tape.grad(x).get(0, 0) - 2.0).abs() < 1e-6);
    }
}
