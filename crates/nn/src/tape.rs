//! Tape-based reverse-mode autograd.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes;
//! [`Tape::backward`] walks it in reverse, accumulating gradients. The
//! op set is exactly what the RLHF losses need, including fused ops for
//! log-prob gathering, the PPO clipped surrogate, the clipped value
//! loss, and a policy-entropy regularizer — matching the loss functions
//! of Table 4 ("we implement various loss for diverse RLHF algorithms").
//!
//! **Segments.** One tape can hold several whole sequences stacked on
//! the row dimension ([`Tape::embed_segments`]): every tensor carries
//! the row ranges of its segments. Row-wise ops do not look at them —
//! each output row is its own sum (DESIGN.md §2, "kernel contract") —
//! while ops that reduce over rows restart at every segment boundary
//! (`cum_mean`, `slice_rows`, and the losses, which yield one scalar per
//! segment), and a parameter gradient is formed per segment. So each
//! segment's values and gradients are, bit for bit, what a tape of that
//! sequence alone computes; a plain [`Tape::leaf`] or [`Tape::embed`] is
//! one segment.
//!
//! **Layout.** Every value and gradient on the tape is held in the
//! kernel's lane panels (DESIGN.md §2, "activation layout"): `x·wᵀ` and
//! `g·w` read and write them in place, and only [`Tape::leaf`],
//! [`Tape::value`] and [`Tape::grad`] convert from or to row-major.
//!
//! **Parameter gradients.** A [`Tape::param`] window reads the model's
//! flat buffer in place, and [`Tape::backward_into`] writes its gradient
//! straight into the caller's flat gradient buffer for that segment: the
//! first write to a window stores, a later one adds.

#![allow(clippy::needless_range_loop)] // index loops mirror the math

use std::ops::Range;

use crate::kernels::{self, Lanes, Write, LANES};
use crate::panels::{self, Panels};
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
    /// `sig` keeps `σ(x)` for the backward pass.
    Silu {
        x: usize,
        sig: Panels,
    },
    RmsNorm {
        x: usize,
        gain: usize,
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
        probs: Panels,
    },
    MeanEntropy {
        logits: usize,
        probs: Panels,
    },
    MeanAll {
        x: usize,
    },
    /// `reads[s]` are the rows taken from segment `s` of `x`.
    SliceRows {
        x: usize,
        reads: Vec<Range<usize>>,
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
/// window of the parameter buffer the tape reads in place.
enum Value<'a> {
    Owned(Panels),
    /// `slot` numbers the tape's windows in creation order.
    Param {
        mat: Mat<'a>,
        off: usize,
        slot: usize,
    },
}

struct Node<'a> {
    value: Value<'a>,
    grad: Option<Panels>,
    op: Op,
    /// Which entry of [`Tape::bounds`] gives this value's segments
    /// ([`UNSEGMENTED`] for a parameter window).
    seg: usize,
}

/// The `seg` of a parameter window: its rows are not sequence positions.
const UNSEGMENTED: usize = usize::MAX;

impl Node<'_> {
    /// The activation this node holds.
    ///
    /// # Panics
    ///
    /// Panics for a parameter window, which is only ever a weight.
    fn panels(&self) -> &Panels {
        match &self.value {
            Value::Owned(p) => p,
            Value::Param { .. } => {
                panic!("a parameter window is a matmul weight, a norm gain or an embedding table")
            }
        }
    }

    /// `f` of this node read as a weight, row-major: a parameter window
    /// in place, a leaf converted.
    fn weight<R>(&self, f: impl FnOnce(Mat) -> R) -> R {
        match &self.value {
            Value::Owned(p) => f(p.to_tensor().mat()),
            Value::Param { mat, .. } => f(*mat),
        }
    }

    fn shape(&self) -> (usize, usize) {
        match &self.value {
            Value::Owned(p) => (p.rows(), p.cols()),
            Value::Param { mat, .. } => (mat.rows, mat.cols),
        }
    }
}

/// A reverse-mode autograd tape. `'a` is the lifetime of the parameter
/// buffer its [`Tape::param`] windows borrow.
#[derive(Default)]
pub struct Tape<'a> {
    nodes: Vec<Node<'a>>,
    params: &'a [f32],
    windows: usize,
    /// Segmentations in use: each lists the row at which every segment
    /// starts, then the row count (`[0, T₀, T₀ + T₁, …]`).
    bounds: Vec<Vec<usize>>,
}

/// Where [`Tape::backward_into`] leaves parameter gradients: one flat
/// buffer per segment, and which windows of each have been written.
struct Sink<'g> {
    grads: &'g mut [Vec<f32>],
    written: Vec<bool>,
}

impl Sink<'_> {
    /// The gradient of the window at `off` in segment `seg`'s buffer,
    /// and whether to store into it (first use) or add to it.
    fn window(&mut self, slot: usize, seg: usize, off: usize, len: usize) -> (&mut [f32], Write) {
        let written = &mut self.written[slot * self.grads.len() + seg];
        let write = if std::mem::replace(written, true) { Write::Add } else { Write::Store };
        (&mut self.grads[seg][off..off + len], write)
    }

    /// Stores `values` as that gradient, or adds them to it.
    fn put(&mut self, slot: usize, seg: usize, off: usize, values: &[f32]) {
        let (dst, write) = self.window(slot, seg, off, values.len());
        match write {
            Write::Store => dst.copy_from_slice(values),
            Write::Add => dst.iter_mut().zip(values).for_each(|(d, v)| *d += v),
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Each lane's maximum over the steps of one panel of logits, folded
/// from `-∞` in column order as the row loop folds it.
fn row_max(panel: &[Lanes]) -> Lanes {
    let mut m = [f32::NEG_INFINITY; LANES];
    for lanes in panel {
        for (m, &v) in m.iter_mut().zip(lanes) {
            *m = m.max(v);
        }
    }
    m
}

/// Row-wise softmax, `e = exp(v − max)` and `e / Σ e` per row; no `exp`
/// is spent on padding.
fn softmax_rows(logits: &Panels) -> Panels {
    let mut p = Panels::new(logits.rows(), logits.cols());
    for g in 0..logits.groups() {
        let (x, width) = (logits.panel(g), logits.width(g));
        let m = row_max(x);
        let mut z = [0.0f32; LANES];
        let pg = p.panel_mut(g);
        for (ps, xs) in pg.iter_mut().zip(x) {
            for l in 0..width {
                let e = (xs[l] - m[l]).exp();
                ps[l] = e;
                z[l] += e;
            }
        }
        for ps in pg {
            for l in 0..width {
                ps[l] /= z[l];
            }
        }
    }
    p
}

/// `ln softmax(logits)[targets[r]]` of every row in the float expression
/// of [`Tape::gather_log_prob`] — `ln(max(e_tok / z, 1e-30))` over
/// [`softmax_rows`]' `e` and `z` — for a pass that takes no gradient and
/// so needs no probability rows.
///
/// # Panics
///
/// Panics unless there is one target per row, each inside the vocab.
pub(crate) fn log_probs(logits: &Panels, targets: &[usize]) -> Vec<f32> {
    assert_eq!(logits.rows(), targets.len(), "one target per row");
    let mut out = Vec::with_capacity(targets.len());
    for g in 0..logits.groups() {
        let (x, width) = (logits.panel(g), logits.width(g));
        let m = row_max(x);
        let mut z = [0.0f32; LANES];
        for xs in x {
            for l in 0..width {
                z[l] += (xs[l] - m[l]).exp();
            }
        }
        for l in 0..width {
            let tok = targets[g * LANES + l];
            out.push(((x[tok][l] - m[l]).exp() / z[l]).max(1e-30).ln());
        }
    }
    out
}

/// `Σ −p·ln p` over rows `rows` of `probs`, accumulated row by row.
fn entropy_sum(probs: &Panels, rows: std::ops::Range<usize>) -> f32 {
    let mut total = 0.0f32;
    for r in rows {
        for p in probs.row(r) {
            if p > 0.0 {
                total -= p * p.ln();
            }
        }
    }
    total
}

/// The gradients of [`panels::rmsnorm`] with gain `g`: `dx` lane-wise
/// panel by panel, and one gain gradient per run of `runs`, summed over
/// its rows in ascending order.
fn rmsnorm_backward(x: &Panels, g: &[f32], gy: &Panels, runs: &[usize]) -> (Panels, Vec<Tensor>) {
    let n = x.cols() as f32;
    let mut dx = Panels::new(x.rows(), x.cols());
    let mut invs = Vec::with_capacity(x.groups());
    for p in 0..x.groups() {
        let (xp, gp) = (x.panel(p), gy.panel(p));
        let inv = panels::inv_rms(xp);
        // s = Σ_i gy_i · g_i · x_i.
        let mut s = [0.0f32; LANES];
        for ((xs, gs), &gc) in xp.iter().zip(gp).zip(g) {
            for l in 0..LANES {
                s[l] += gs[l] * gc * xs[l];
            }
        }
        for (((d, xs), gs), &gc) in dx.panel_mut(p).iter_mut().zip(xp).zip(gp).zip(g) {
            for l in 0..LANES {
                d[l] = gs[l] * gc * inv[l] - xs[l] * s[l] * inv[l].powi(3) / n;
            }
        }
        invs.push(inv);
    }
    let dgs = runs
        .windows(2)
        .map(|run| {
            let mut dg = Tensor::zeros(1, x.cols());
            for r in run[0]..run[1] {
                let (p, lane) = (r / LANES, r % LANES);
                let steps = x.panel(p).iter().zip(gy.panel(p));
                for (d, (xs, gs)) in dg.data_mut().iter_mut().zip(steps) {
                    *d += gs[lane] * xs[lane] * invs[p][lane];
                }
            }
            dg
        })
        .collect();
    (dx, dgs)
}

/// Adds `g` into the gradient of `nodes[idx]`.
fn accumulate(nodes: &mut [Node], idx: usize, g: Panels) {
    assert!(
        matches!(nodes[idx].value, Value::Owned(_)),
        "a parameter window takes its gradient as a matmul weight, a norm gain or an embedding table"
    );
    match &mut nodes[idx].grad {
        Some(existing) => existing.add_assign(&g),
        slot => *slot = Some(g),
    }
}

/// The gradients of a norm gain or an embedding table at `nodes[idx]`:
/// one per segment into the sink for a parameter window, one over all
/// rows into the node for a leaf.
fn deliver(nodes: &mut [Node], sink: &mut Sink, idx: usize, grads: Vec<Tensor>) {
    for (s, g) in grads.into_iter().enumerate() {
        match nodes[idx].value {
            Value::Owned(_) => accumulate(nodes, idx, Panels::from_mat(g.mat())),
            Value::Param { off, slot, .. } => sink.put(slot, s, off, g.data()),
        }
    }
}

/// The row runs over which such a gradient is summed: the segments
/// `segs` for a parameter window, all `rows` at once for a leaf.
fn runs<'s>(node: &Node, segs: &'s [usize], all_rows: &'s [usize; 2]) -> &'s [usize] {
    match node.value {
        Value::Owned(_) => all_rows,
        Value::Param { .. } => segs,
    }
}

impl<'a> Tape<'a> {
    /// An empty tape without parameter windows.
    pub fn new() -> Self {
        Tape::default()
    }

    /// An empty tape whose [`Tape::param`] windows read `params`.
    pub fn over(params: &'a [f32]) -> Self {
        Tape { params, ..Tape::default() }
    }

    fn push_node(&mut self, value: Value<'a>, op: Op, seg: usize) -> Var {
        self.nodes.push(Node { value, grad: None, op, seg });
        Var(self.nodes.len() - 1)
    }

    fn push(&mut self, value: Panels, op: Op, seg: usize) -> Var {
        self.push_node(Value::Owned(value), op, seg)
    }

    /// Registers a segmentation given as segment lengths.
    fn segmentation(&mut self, lens: impl IntoIterator<Item = usize>) -> usize {
        let mut bounds = vec![0];
        bounds.extend(lens.into_iter().scan(0, |row, len| {
            *row += len;
            Some(*row)
        }));
        self.bounds.push(bounds);
        self.bounds.len() - 1
    }

    /// Pushes one scalar per segment (`[S × 1]`, each its own one-row
    /// segment): what an op that reduces over a segment's rows yields.
    fn push_per_segment(&mut self, scalars: Vec<f32>, op: Op) -> Var {
        let seg = self.segmentation(vec![1; scalars.len()]);
        self.push(Panels::from_column(&scalars), op, seg)
    }

    /// The activation at `v`.
    fn act(&self, v: Var) -> &Panels {
        self.nodes[v.0].panels()
    }

    fn bounds_of(&self, v: Var) -> &[usize] {
        &self.bounds[self.nodes[v.0].seg]
    }

    /// Registers an input (parameter or constant) tensor: one segment.
    pub fn leaf(&mut self, t: Tensor) -> Var {
        let seg = self.segmentation([t.rows()]);
        self.push(Panels::from_mat(t.mat()), Op::Leaf, seg)
    }

    /// Registers the `[rows × cols]` parameter matrix at `off` in the
    /// buffer given to [`Tape::over`], read in place — no copy per
    /// forward pass. It may be used as a [`Tape::matmul_nt`] weight, a
    /// [`Tape::rmsnorm`] gain or an [`Tape::embed`] table.
    ///
    /// # Panics
    ///
    /// Panics if the window does not lie inside the buffer.
    pub fn param(&mut self, off: usize, rows: usize, cols: usize) -> Var {
        let mat = Mat { data: &self.params[off..off + rows * cols], rows, cols };
        let slot = self.windows;
        self.windows += 1;
        self.push_node(Value::Param { mat, off, slot }, Op::Leaf, UNSEGMENTED)
    }

    /// The forward value at `v`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `v` is a [`Tape::param`] window: its values live in the
    /// buffer it borrows.
    pub fn value(&self, v: Var) -> Tensor {
        match &self.nodes[v.0].value {
            Value::Owned(p) => p.to_tensor(),
            Value::Param { .. } => panic!("a borrowed parameter window holds no tensor"),
        }
    }

    /// The gradient [`Tape::backward`] left at [`Tape::leaf`] `v`,
    /// row-major (zeros if it received none). Gradients of intermediate
    /// nodes are consumed by the pass; those of parameter windows go to
    /// the caller's buffers.
    pub fn grad(&self, v: Var) -> Tensor {
        let node = &self.nodes[v.0];
        node.grad.as_ref().map(Panels::to_tensor).unwrap_or_else(|| {
            let (rows, cols) = node.shape();
            Tensor::zeros(rows, cols)
        })
    }

    /// `x · wᵀ`.
    pub fn matmul_nt(&mut self, x: Var, w: Var) -> Var {
        let y = self.nodes[w.0].weight(|w| kernels::x_wt(self.act(x), w));
        self.push(y, Op::MatmulNt { x: x.0, w: w.0 }, self.nodes[x.0].seg)
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes or the segments of `a` and `b` differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.bounds_of(a), self.bounds_of(b), "add segments");
        let y = self.act(a).add(self.act(b));
        self.push(y, Op::Add { a: a.0, b: b.0 }, self.nodes[a.0].seg)
    }

    /// `c · x`.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let y = self.act(x).map(|v| c * v);
        self.push(y, Op::Scale { x: x.0, c }, self.nodes[x.0].seg)
    }

    /// SiLU activation `x · σ(x)`.
    pub fn silu(&mut self, x: Var) -> Var {
        let xv = self.act(x);
        let sig = xv.map_rows(sigmoid);
        let mut y = xv.clone();
        for (ys, ss) in y.data_mut().iter_mut().zip(sig.data()) {
            for (y, s) in ys.iter_mut().zip(ss) {
                *y *= s;
            }
        }
        self.push(y, Op::Silu { x: x.0, sig }, self.nodes[x.0].seg)
    }

    /// Row-wise RMS normalization with a learned gain vector `[1 × h]`.
    pub fn rmsnorm(&mut self, x: Var, gain: Var) -> Var {
        let y = self.nodes[gain.0].weight(|g| {
            assert_eq!(g.rows, 1, "one gain row");
            panels::rmsnorm(self.act(x), g.data)
        });
        self.push(y, Op::RmsNorm { x: x.0, gain: gain.0 }, self.nodes[x.0].seg)
    }

    /// Causal cumulative mean over the rows of each segment:
    /// `y_t = mean(x_0..=x_t)`, `t` counted from the segment's first row.
    pub fn cum_mean(&mut self, x: Var) -> Var {
        let y = panels::cum_mean(self.act(x), self.bounds_of(x));
        self.push(y, Op::CumMean { x: x.0 }, self.nodes[x.0].seg)
    }

    /// Embedding lookup: rows of `table` selected by `ids`, one segment.
    ///
    /// # Panics
    ///
    /// Panics if an id exceeds the table rows.
    pub fn embed(&mut self, table: Var, ids: &[usize]) -> Var {
        self.embed_segments(table, ids, &[ids.len()])
    }

    /// Embedding lookup of several sequences stacked on the row
    /// dimension: `ids` holds them back to back, `lens` their lengths.
    ///
    /// # Panics
    ///
    /// Panics if an id exceeds the table rows or `lens` does not add up
    /// to `ids.len()`.
    pub fn embed_segments(&mut self, table: Var, ids: &[usize], lens: &[usize]) -> Var {
        assert_eq!(lens.iter().sum::<usize>(), ids.len(), "segment lengths must cover the ids");
        let y = self.nodes[table.0].weight(|t| panels::embed(t, ids));
        let seg = self.segmentation(lens.iter().copied());
        self.push(y, Op::Embed { table: table.0, ids: ids.to_vec() }, seg)
    }

    /// Token log-probabilities: `out[t] = log softmax(logits[t])[targets[t]]`.
    pub fn gather_log_prob(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.act(logits);
        assert_eq!(lv.rows(), targets.len());
        let probs = softmax_rows(lv);
        let y: Vec<f32> = (targets.iter().enumerate())
            .map(|(t, &tok)| probs.get(t, tok).max(1e-30).ln())
            .collect();
        let op = Op::GatherLogProb { logits: logits.0, targets: targets.to_vec(), probs };
        self.push(Panels::from_column(&y), op, self.nodes[logits.0].seg)
    }

    /// Mean policy entropy over the rows of each segment of `logits`
    /// (one scalar per segment, `[S × 1]`).
    pub fn mean_entropy(&mut self, logits: Var) -> Var {
        let probs = softmax_rows(self.act(logits));
        let means = self
            .bounds_of(logits)
            .windows(2)
            .map(|seg| entropy_sum(&probs, seg[0]..seg[1]) / (seg[1] - seg[0]) as f32)
            .collect::<Vec<_>>();
        self.push_per_segment(means, Op::MeanEntropy { logits: logits.0, probs })
    }

    /// Rows `reads[s]` of each segment `s` of `x`, counted from the
    /// segment's first row, stacked: segment `s` of the result. A window
    /// may be empty.
    ///
    /// # Panics
    ///
    /// Panics unless there is one window per segment, each inside it.
    pub fn slice_rows(&mut self, x: Var, reads: &[Range<usize>]) -> Var {
        let y = panels::read_rows(self.act(x), self.bounds_of(x), reads);
        let seg = self.segmentation(reads.iter().map(Range::len));
        self.push(y, Op::SliceRows { x: x.0, reads: reads.to_vec() }, seg)
    }

    /// Mean of all elements of each segment (`[S × 1]`), summed row by
    /// row.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let xv = self.act(x);
        let means = self
            .bounds_of(x)
            .windows(2)
            .map(|seg| {
                let sum = (seg[0]..seg[1]).flat_map(|r| xv.row(r)).sum::<f32>();
                sum / ((seg[1] - seg[0]) * xv.cols()) as f32
            })
            .collect::<Vec<_>>();
        self.push_per_segment(means, Op::MeanAll { x: x.0 })
    }

    /// PPO clipped surrogate loss of each segment (`[S × 1]`):
    /// `-mean(min(r·A, clip(r, 1−ε, 1+ε)·A))` with `r = exp(logp − old)`.
    /// `old_logp` and `adv` hold the segments' rows back to back, as
    /// `logp` does.
    ///
    /// # Panics
    ///
    /// Panics if `logp` is not one column or lengths disagree.
    pub fn ppo_clip_loss(&mut self, logp: Var, old_logp: &[f32], adv: &[f32], eps: f32) -> Var {
        let lv = self.act(logp).column();
        assert_eq!(lv.len(), old_logp.len());
        assert_eq!(lv.len(), adv.len());
        let losses = self
            .bounds_of(logp)
            .windows(2)
            .map(|seg| {
                let mut total = 0.0f32;
                for t in seg[0]..seg[1] {
                    let r = (lv[t] - old_logp[t]).exp();
                    let u = r * adv[t];
                    let v = r.clamp(1.0 - eps, 1.0 + eps) * adv[t];
                    total += u.min(v);
                }
                -total / (seg[1] - seg[0]) as f32
            })
            .collect::<Vec<_>>();
        let op = Op::PpoClip { logp: logp.0, old_logp: old_logp.to_vec(), adv: adv.to_vec(), eps };
        self.push_per_segment(losses, op)
    }

    /// Clipped value loss of each segment (`[S × 1]`):
    /// `0.5 · mean(max((v−R)², (v_clip−R)²))` with
    /// `v_clip = old_v + clip(v − old_v, −ε, ε)`. `returns` and `old_v`
    /// hold the segments' rows back to back, as `v` does.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not one column or lengths disagree.
    pub fn value_clip_loss(&mut self, v: Var, returns: &[f32], old_v: &[f32], eps: f32) -> Var {
        let vv = self.act(v).column();
        assert_eq!(vv.len(), returns.len());
        assert_eq!(vv.len(), old_v.len());
        let losses = self
            .bounds_of(v)
            .windows(2)
            .map(|seg| {
                let mut total = 0.0f32;
                for t in seg[0]..seg[1] {
                    let val = vv[t];
                    let clipped = old_v[t] + (val - old_v[t]).clamp(-eps, eps);
                    let a = (val - returns[t]).powi(2);
                    let b = (clipped - returns[t]).powi(2);
                    total += a.max(b);
                }
                0.5 * total / (seg[1] - seg[0]) as f32
            })
            .collect::<Vec<_>>();
        let op = Op::ValueClip { v: v.0, returns: returns.to_vec(), old_v: old_v.to_vec(), eps };
        self.push_per_segment(losses, op)
    }

    /// [`Tape::backward_into`] for a tape without parameter windows.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not one scalar per segment, or the tape has
    /// parameter windows.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.windows, 0, "parameter gradients need `backward_into`'s buffers");
        self.backward_into(loss, &mut []);
    }

    /// Runs the backward pass from the per-segment scalar losses `loss`
    /// (`[S × 1]`, seed gradient 1 each). Each node's gradient is moved
    /// out as the pass reaches it; only [`Tape::leaf`] nodes keep theirs,
    /// summed over all rows. A [`Tape::param`] window's gradient is
    /// formed per segment and written at the window's offset in
    /// `grads[segment]` — stored by its first use, added by later ones,
    /// zeros if it has none; whatever the buffers held is overwritten.
    /// Buffers shorter than the parameter buffer are grown to it; values
    /// past its length are left alone.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not one scalar per segment, or the tape has
    /// parameter windows and `grads` is not one buffer per segment.
    pub fn backward_into(&mut self, loss: Var, grads: &mut [Vec<f32>]) {
        let segments = self.bounds_of(loss).len() - 1;
        let (rows, cols) = self.nodes[loss.0].shape();
        assert!(
            cols == 1 && rows == segments,
            "backward needs a scalar loss per segment, got [{rows} × {cols}] over {segments}"
        );
        if self.windows > 0 {
            assert_eq!(grads.len(), segments, "one gradient buffer per segment");
        }
        for g in grads.iter_mut().filter(|g| g.len() < self.params.len()) {
            g.resize(self.params.len(), 0.0);
        }
        let mut sink = Sink { written: vec![false; self.windows * grads.len()], grads };
        self.nodes[loss.0].grad = Some(Panels::from_column(&vec![1.0; segments]));
        let bounds = &self.bounds;
        for idx in (0..=loss.0).rev() {
            // A node's inputs all precede it: borrow them apart from it.
            let (inputs, rest) = self.nodes.split_at_mut(idx);
            let node = &mut rest[0];
            if matches!(node.op, Op::Leaf) {
                continue;
            }
            let Some(gy) = node.grad.take() else { continue };
            let segs = &bounds[node.seg];
            match &node.op {
                Op::Leaf => unreachable!("leaves keep their gradient"),
                &Op::MatmulNt { x, w } => {
                    let dx = inputs[w].weight(|w| kernels::g_w(&gy, w));
                    if let Value::Param { mat, off, slot } = inputs[w].value {
                        for (s, seg) in segs.windows(2).enumerate() {
                            let dw = sink.window(slot, s, off, mat.data.len());
                            kernels::gt_x_into(&gy, inputs[x].panels(), seg[0]..seg[1], dw);
                        }
                    } else {
                        let (n, k) = inputs[w].shape();
                        let mut dw = Tensor::zeros(n, k);
                        let out = (dw.data_mut(), Write::Store);
                        kernels::gt_x_into(&gy, inputs[x].panels(), 0..gy.rows(), out);
                        accumulate(inputs, w, Panels::from_mat(dw.mat()));
                    }
                    accumulate(inputs, x, dx);
                }
                &Op::Add { a, b } => {
                    accumulate(inputs, a, gy.clone());
                    accumulate(inputs, b, gy);
                }
                &Op::Scale { x, c } => accumulate(inputs, x, gy.map(|v| c * v)),
                Op::Silu { x, sig } => {
                    let mut dx = gy;
                    let xv = inputs[*x].panels().data().as_flattened();
                    let xs = xv.iter().zip(sig.data().as_flattened());
                    for (d, (&v, &s)) in dx.data_mut().as_flattened_mut().iter_mut().zip(xs) {
                        *d *= s * (1.0 + v * (1.0 - s));
                    }
                    accumulate(inputs, *x, dx);
                }
                &Op::RmsNorm { x, gain } => {
                    let xv = inputs[x].panels();
                    let all_rows = [0, xv.rows()];
                    let runs = runs(&inputs[gain], segs, &all_rows);
                    let (dx, dgs) =
                        inputs[gain].weight(|g| rmsnorm_backward(xv, g.data, &gy, runs));
                    deliver(inputs, &mut sink, gain, dgs);
                    accumulate(inputs, x, dx);
                }
                &Op::CumMean { x } => {
                    let cols = gy.cols();
                    let mut dx = Panels::new(gy.rows(), cols);
                    // dX_i = Σ_{t ≥ i} gy_t / (t+1): suffix sums.
                    let mut suffix = vec![0.0f32; cols];
                    for seg in segs.windows(2) {
                        suffix.fill(0.0);
                        for r in (seg[0]..seg[1]).rev() {
                            let inv = 1.0 / ((r - seg[0]) as f32 + 1.0);
                            for (s, g) in suffix.iter_mut().zip(gy.row(r)) {
                                *s += g * inv;
                            }
                            dx.set_row(r, suffix.iter().copied());
                        }
                    }
                    accumulate(inputs, x, dx);
                }
                Op::Embed { table, ids } => {
                    let (vocab, _) = inputs[*table].shape();
                    let all_rows = [0, ids.len()];
                    let mut dts = Vec::new();
                    for seg in runs(&inputs[*table], segs, &all_rows).windows(2) {
                        let mut dt = Tensor::zeros(vocab, gy.cols());
                        for r in seg[0]..seg[1] {
                            for (d, g) in dt.row_mut(ids[r]).iter_mut().zip(gy.row(r)) {
                                *d += g;
                            }
                        }
                        dts.push(dt);
                    }
                    deliver(inputs, &mut sink, *table, dts);
                }
                Op::GatherLogProb { logits, targets, probs } => {
                    let mut dl = Panels::new(probs.rows(), probs.cols());
                    for (t, (&tok, &go)) in targets.iter().zip(gy.column()).enumerate() {
                        if go == 0.0 {
                            continue;
                        }
                        let ind = |c: usize| if c == tok { 1.0 } else { 0.0 };
                        dl.set_row(t, probs.row(t).enumerate().map(|(c, p)| go * (ind(c) - p)));
                    }
                    accumulate(inputs, *logits, dl);
                }
                Op::MeanEntropy { logits, probs } => {
                    let mut dl = Panels::new(probs.rows(), probs.cols());
                    let rows = &bounds[inputs[*logits].seg];
                    for (s, seg) in rows.windows(2).enumerate() {
                        let go = gy.column()[s] / (seg[1] - seg[0]) as f32;
                        for r in seg[0]..seg[1] {
                            let h = entropy_sum(probs, r..r + 1);
                            // dH/dz_c = -p_c (ln p_c + H).
                            let d = |p: f32| if p > 0.0 { go * (-p * (p.ln() + h)) } else { 0.0 };
                            dl.set_row(r, probs.row(r).map(d));
                        }
                    }
                    accumulate(inputs, *logits, dl);
                }
                Op::SliceRows { x, reads } => {
                    let (rows, cols) = inputs[*x].shape();
                    let mut dx = Panels::new(rows, cols);
                    let from = bounds[inputs[*x].seg].windows(2);
                    for ((seg, read), window) in from.zip(reads).zip(segs.windows(2)) {
                        for (r, w) in read.clone().zip(window[0]..window[1]) {
                            dx.set_row(seg[0] + r, gy.row(w));
                        }
                    }
                    accumulate(inputs, *x, dx);
                }
                &Op::MeanAll { x } => {
                    let (rows, cols) = inputs[x].shape();
                    let mut dx = Panels::new(rows, cols);
                    for (s, seg) in bounds[inputs[x].seg].windows(2).enumerate() {
                        let d = gy.column()[s] / ((seg[1] - seg[0]) * cols) as f32;
                        for r in seg[0]..seg[1] {
                            dx.set_row(r, std::iter::repeat(d));
                        }
                    }
                    accumulate(inputs, x, dx);
                }
                Op::PpoClip { logp, old_logp, adv, eps } => {
                    let lv = inputs[*logp].panels().column();
                    let mut dl = vec![0.0f32; lv.len()];
                    let rows = &bounds[inputs[*logp].seg];
                    for (s, seg) in rows.windows(2).enumerate() {
                        let go = gy.column()[s] / (seg[1] - seg[0]) as f32;
                        for t in seg[0]..seg[1] {
                            let r = (lv[t] - old_logp[t]).exp();
                            let u = r * adv[t];
                            let v = r.clamp(1.0 - eps, 1.0 + eps) * adv[t];
                            // loss contribution is -min(u, v)/T.
                            dl[t] = if u <= v {
                                // d u / d logp = r · A.
                                -go * r * adv[t]
                            } else if r > 1.0 - eps && r < 1.0 + eps {
                                -go * r * adv[t]
                            } else {
                                0.0 // clipped branch: constant in logp
                            };
                        }
                    }
                    accumulate(inputs, *logp, Panels::from_column(&dl));
                }
                Op::ValueClip { v, returns, old_v, eps } => {
                    let vv = inputs[*v].panels().column();
                    let mut dv = vec![0.0f32; vv.len()];
                    let rows = &bounds[inputs[*v].seg];
                    for (s, seg) in rows.windows(2).enumerate() {
                        let go = gy.column()[s] / (seg[1] - seg[0]) as f32;
                        for t in seg[0]..seg[1] {
                            let val = vv[t];
                            let delta = (val - old_v[t]).clamp(-eps, *eps);
                            let clipped = old_v[t] + delta;
                            let a = (val - returns[t]).powi(2);
                            let b = (clipped - returns[t]).powi(2);
                            dv[t] = if a >= b {
                                go * (val - returns[t])
                            } else if (val - old_v[t]).abs() < *eps {
                                go * (clipped - returns[t])
                            } else {
                                0.0
                            };
                        }
                    }
                    accumulate(inputs, *v, Panels::from_column(&dv));
                }
            }
        }
        // A window nothing flowed into has a zero gradient.
        let segments = sink.grads.len();
        for node in &self.nodes {
            if let Value::Param { mat, off, slot } = node.value {
                for s in (0..segments).filter(|s| !sink.written[slot * segments + s]) {
                    sink.grads[s][off..off + mat.data.len()].fill(0.0);
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
        let s = tape.slice_rows(x, &[1..3]);
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A weight-tied toy model over `flat = [table | gain]`: the table
    /// is the embedding *and* the output head, so its gradient is stored
    /// by the head's `gᵀ·x` and then added to by the embedding.
    fn tied_loss(tape: &mut Tape, table: Var, gain: Var, seqs: &[&[usize]]) -> Var {
        let lens: Vec<usize> = seqs.iter().map(|s| s.len() - 1).collect();
        let ids: Vec<usize> = seqs.iter().flat_map(|s| &s[..s.len() - 1]).copied().collect();
        let targets: Vec<usize> = seqs.iter().flat_map(|s| &s[1..]).copied().collect();
        let x = tape.embed_segments(table, &ids, &lens);
        let c = tape.cum_mean(x);
        let n = tape.rmsnorm(c, gain);
        let logits = tape.matmul_nt(n, table);
        let lp = tape.gather_log_prob(logits, &targets);
        let mean = tape.mean_all(lp);
        tape.scale(mean, -1.0)
    }

    #[test]
    fn a_window_used_twice_stores_then_adds_like_a_leaf() {
        let (vocab, h) = (7usize, 5usize);
        let flat: Vec<f32> =
            (0..vocab * h + h).map(|i| ((i * 37 % 23) as f32 - 11.0) * 0.09).collect();
        let seqs: [&[usize]; 3] = [&[1, 4, 2, 6, 0], &[3, 3], &[5, 0, 1, 1, 2, 4, 6, 3, 0]];

        // Each sequence alone, through leaves: `accumulate` sums the two
        // uses of the table as it always has.
        let alone: Vec<(f32, Vec<f32>)> = seqs
            .iter()
            .map(|seq| {
                let mut tape = Tape::new();
                let table = tape.leaf(Tensor::new(flat[..vocab * h].to_vec(), vocab, h));
                let gain = tape.leaf(Tensor::new(flat[vocab * h..].to_vec(), 1, h));
                let loss = tied_loss(&mut tape, table, gain, &[seq]);
                tape.backward(loss);
                let grad = [tape.grad(table).data(), tape.grad(gain).data()].concat();
                (tape.value(loss).get(0, 0), grad)
            })
            .collect();

        // All three stacked, through windows, into buffers full of NaN.
        let mut tape = Tape::over(&flat);
        let table = tape.param(0, vocab, h);
        let gain = tape.param(vocab * h, 1, h);
        let loss = tied_loss(&mut tape, table, gain, &seqs);
        let losses = tape.value(loss).data().to_vec();
        let mut grads = vec![vec![f32::NAN; flat.len() + 1]; 3];
        tape.backward_into(loss, &mut grads);
        for (s, (loss, grad)) in alone.iter().enumerate() {
            assert_eq!(losses[s].to_bits(), loss.to_bits(), "loss of segment {s}");
            assert_eq!(bits(&grads[s][..flat.len()]), bits(grad), "gradient of segment {s}");
            assert!(grads[s][flat.len()].is_nan(), "values past the parameters are left alone");
        }
    }

    #[test]
    fn a_window_without_gradient_reads_zero_not_what_the_buffer_held() {
        let flat = [0.5f32, -0.25, 2.0, 1.0, 9.0, 9.0, 3.0, -1.0];
        let mut tape = Tape::over(&flat);
        let used = tape.param(0, 2, 2);
        let _unused = tape.param(6, 1, 2);
        let x = tape.leaf(Tensor::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2));
        let y = tape.matmul_nt(x, used);
        let loss = tape.mean_all(y);
        let mut grads = [vec![f32::NAN; 8]];
        tape.backward_into(loss, &mut grads);
        // d mean / d w[j][k] = Σ_rows x[r][k] / 4; no window covers [4..6).
        assert_eq!(grads[0][..4], [1.0, 1.5, 1.0, 1.5]);
        assert_eq!(grads[0][6..], [0.0, 0.0]);
        assert!(grads[0][4].is_nan() && grads[0][5].is_nan());
    }

    #[test]
    fn reductions_restart_at_segment_boundaries() {
        let mut tape = Tape::new();
        let table = tape.leaf(Tensor::new(vec![1.0, 2.0, 4.0, 8.0], 4, 1));
        let x = tape.embed_segments(table, &[0, 1, 2, 3, 1], &[2, 3]);
        let c = tape.cum_mean(x);
        let third = 14.0 * (1.0 / 3.0);
        assert_eq!(tape.value(c).data(), &[1.0, 1.5, 4.0, 6.0, third]);
        let tail = tape.slice_rows(c, &[1..2, 0..2]);
        assert_eq!(tape.value(tail).data(), &[1.5, 4.0, 6.0]);
        let mean = tape.mean_all(c);
        assert_eq!(tape.value(mean).data(), &[1.25, (4.0 + 6.0 + third) / 3.0]);
        tape.backward(mean);
        // One seed per segment; the leaf table sums over all rows.
        let g = tape.grad(table);
        assert!((g.get(0, 0) - 0.75).abs() < 1e-6, "{:?}", g.data());
    }
}
