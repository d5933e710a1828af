//! The one activation layout inside hf-nn (DESIGN.md §2, "activation
//! layout"): a `[rows × cols]` activation held as the microkernel's lane
//! panels. Rows `8g..8g + 8` form panel `g`, `cols` steps of [`LANES`]
//! values each, so element `(r, c)` sits at step `c` of panel `r / 8`,
//! lane `r % 8`. The tape's values and gradients, the stage forward's
//! stream and the decoder's `[feature][lane]` buffers are all [`Panels`]:
//! `x·wᵀ` and `g·w` read a panel in place and store each output column's
//! eight sums as one vector.
//!
//! The lanes past the last row of a ragged last panel are padding. They
//! may hold any value — whatever the row-wise ops made of them — and are
//! never read back: a row reduction, a weight gradient, the skip-zero
//! scan and every row-major read-out walk the `rows` real rows only.

use std::ops::Range;

use crate::kernels::{Lanes, LANES};
use crate::tensor::{Mat, Tensor};

/// A `[rows × cols]` activation in lane panels.
#[derive(Debug, Clone)]
pub(crate) struct Panels {
    data: Vec<Lanes>,
    rows: usize,
    cols: usize,
}

impl Panels {
    /// Zeros; the padding lanes hold [`padding`].
    pub fn new(rows: usize, cols: usize) -> Self {
        let mut panels =
            Panels { data: vec![[0.0; LANES]; rows.div_ceil(LANES) * cols], rows, cols };
        let pad = padding();
        if pad.to_bits() != 0 {
            let (g, width) = (rows / LANES, rows % LANES);
            if width > 0 {
                panels.panel_mut(g).iter_mut().for_each(|lanes| lanes[width..].fill(pad));
            }
        }
        panels
    }

    /// Panels built step by step: `data` holds every panel's `cols`
    /// steps, panel after panel.
    pub fn from_data(data: Vec<Lanes>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows.div_ceil(LANES) * cols, "panel data shape");
        Panels { data, rows, cols }
    }

    /// The rows of a row-major matrix as lanes.
    pub fn from_mat(m: Mat) -> Self {
        let mut panels = Panels::new(m.rows, m.cols);
        for r in 0..m.rows {
            panels.set_row(r, m.row(r).iter().copied());
        }
        panels
    }

    /// One column of values, one per row.
    pub fn from_column(values: &[f32]) -> Self {
        let mut panels = Panels::new(values.len(), 1);
        panels.column_mut().copy_from_slice(values);
        panels
    }

    /// The row-major matrix of the real rows.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::new(self.rows_major(0..self.rows), self.rows, self.cols)
    }

    /// Rows `rows`, row-major.
    pub fn rows_major(&self, rows: std::ops::Range<usize>) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows.len() * self.cols);
        for r in rows {
            out.extend(self.row(r));
        }
        out
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of panels.
    pub fn groups(&self) -> usize {
        self.rows.div_ceil(LANES)
    }

    /// Real rows in panel `g`: [`LANES`] but in a ragged last panel.
    pub fn width(&self, g: usize) -> usize {
        LANES.min(self.rows - g * LANES)
    }

    /// Panel `g`'s `cols` steps.
    pub fn panel(&self, g: usize) -> &[Lanes] {
        &self.data[g * self.cols..][..self.cols]
    }

    pub fn panel_mut(&mut self, g: usize) -> &mut [Lanes] {
        &mut self.data[g * self.cols..][..self.cols]
    }

    /// Every panel's steps, panel after panel.
    pub fn data(&self) -> &[Lanes] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [Lanes] {
        &mut self.data
    }

    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r / LANES * self.cols + c][r % LANES]
    }

    /// Row `r`, column by column.
    pub fn row(&self, r: usize) -> impl Iterator<Item = f32> + '_ {
        self.panel(r / LANES).iter().map(move |lanes| lanes[r % LANES])
    }

    /// Overwrites row `r` with `values`, column by column.
    pub fn set_row(&mut self, r: usize, values: impl IntoIterator<Item = f32>) {
        let lane = r % LANES;
        for (lanes, v) in self.panel_mut(r / LANES).iter_mut().zip(values) {
            lanes[lane] = v;
        }
    }

    /// A one-column activation's values, one per row: its panels are
    /// the rows in order, so this is a slice.
    ///
    /// # Panics
    ///
    /// Panics unless `cols == 1`.
    pub fn column(&self) -> &[f32] {
        assert_eq!(self.cols, 1, "a column is one value per row");
        &self.data.as_flattened()[..self.rows]
    }

    pub fn column_mut(&mut self) -> &mut [f32] {
        assert_eq!(self.cols, 1, "a column is one value per row");
        &mut self.data.as_flattened_mut()[..self.rows]
    }

    /// `f` of every lane, padding included: for the cheap elementwise
    /// ops, which vectorise over whole panels.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Panels {
        let data = self.data.iter().map(|lanes| lanes.map(&f)).collect();
        Panels { data, ..*self }
    }

    /// `f` of every real lane; the padding lanes hold [`padding`]. For
    /// ops that cost a call per value (`exp`).
    pub fn map_rows(&self, f: impl Fn(f32) -> f32) -> Panels {
        let mut out = Panels::new(self.rows, self.cols);
        for g in 0..self.groups() {
            let width = self.width(g);
            for (o, x) in out.panel_mut(g).iter_mut().zip(self.panel(g)) {
                for (o, &x) in o[..width].iter_mut().zip(&x[..width]) {
                    *o = f(x);
                }
            }
        }
        out
    }

    /// Elementwise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Panels) -> Panels {
        let mut sum = self.clone();
        sum.add_assign(other);
        sum
    }

    /// Elementwise `self += other`, lanes at a time.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Panels) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            for (a, b) in a.iter_mut().zip(b) {
                *a += b;
            }
        }
    }

    /// Rows `rows` of `self` with rows and columns swapped, `[cols ×
    /// rows.len()]`: the columns of `self` become the lanes. The padding
    /// lanes of its ragged last panel hold what [`Panels::new`] put there.
    pub fn transpose_rows(&self, rows: std::ops::Range<usize>) -> Panels {
        let (start, m) = (rows.start, rows.len());
        let mut t = Panels::new(self.cols, m);
        for r in rows {
            // Row `r` becomes step `r - start` of every panel of `t`.
            let (src, lane) = (self.panel(r / LANES), r % LANES);
            for (g, block) in src.chunks(LANES).enumerate() {
                for (d, s) in t.data[g * m + r - start].iter_mut().zip(block) {
                    *d = s[lane];
                }
            }
        }
        t
    }
}

/// What a new panel's padding lanes hold: `0.0`, or under a test
/// [`with_padding`] the value it set.
fn padding() -> f32 {
    #[cfg(test)]
    return PADDING.get();
    #[cfg(not(test))]
    0.0
}

#[cfg(test)]
thread_local! {
    static PADDING: std::cell::Cell<f32> = const { std::cell::Cell::new(0.0) };
}

/// Runs `f` with every panel built on this thread padded with `value`
/// (`f32::NAN` poisons any sum a padding lane reaches).
#[cfg(test)]
pub(crate) fn with_padding<R>(value: f32, f: impl FnOnce() -> R) -> R {
    let before = PADDING.replace(value);
    let out = f();
    PADDING.set(before);
    out
}

/// The embedding rows of `ids` from `table: [vocab × cols]`, as lanes.
///
/// # Panics
///
/// Panics if an id exceeds the table rows.
pub(crate) fn embed(table: Mat, ids: &[usize]) -> Panels {
    let mut x = Panels::new(ids.len(), table.cols);
    for (r, &id) in ids.iter().enumerate() {
        assert!(id < table.rows, "token id {id} out of vocab {}", table.rows);
        x.set_row(r, table.row(id).iter().copied());
    }
    x
}

/// The rows a caller reads: rows `reads[s]` of each segment `s` of `x`
/// (`bounds` are the segment starts and the row count), counted from the
/// segment's first row, stacked in segment order.
///
/// # Panics
///
/// Panics unless there is one window per segment, each inside it.
pub(crate) fn read_rows(x: &Panels, bounds: &[usize], reads: &[Range<usize>]) -> Panels {
    assert_eq!(reads.len() + 1, bounds.len(), "one read window per segment");
    let mut y = Panels::new(reads.iter().map(Range::len).sum(), x.cols);
    let mut row = 0;
    for (seg, read) in bounds.windows(2).zip(reads) {
        assert!(read.start <= read.end && seg[0] + read.end <= seg[1], "read window out of bounds");
        for r in read.clone() {
            y.set_row(row, x.row(seg[0] + r));
            row += 1;
        }
    }
    y
}

/// `1 / √(mean(x²) + 1e-6)` of each lane's row over the steps of one
/// panel: per lane the scalar row loop's sum, columns ascending from `0.0`
/// (squares are never `-0.0`, so the start is the `+0.0` or `-0.0` of
/// `Iterator::sum` alike).
pub(crate) fn inv_rms(x: &[Lanes]) -> Lanes {
    let mut sq = [0.0f32; LANES];
    for lanes in x {
        for (s, &v) in sq.iter_mut().zip(lanes) {
            *s += v * v;
        }
    }
    sq.map(|s| 1.0 / (s / x.len() as f32 + 1e-6).sqrt())
}

/// Row-wise RMS normalization with a gain, `x · inv · gain` per value:
/// the one RMSNorm of the tape, the stage forward and the decoder.
pub(crate) fn rmsnorm_into(x: &Panels, gain: &[f32], y: &mut Panels) {
    assert_eq!(gain.len(), x.cols, "one gain per column");
    for g in 0..x.groups() {
        let xp = x.panel(g);
        let inv = inv_rms(xp);
        for ((ys, xs), &gc) in y.panel_mut(g).iter_mut().zip(xp).zip(gain) {
            for ((y, &v), &i) in ys.iter_mut().zip(xs).zip(&inv) {
                *y = v * i * gc;
            }
        }
    }
}

/// [`rmsnorm_into`] a new activation.
pub(crate) fn rmsnorm(x: &Panels, gain: &[f32]) -> Panels {
    let mut y = Panels::new(x.rows, x.cols);
    rmsnorm_into(x, gain, &mut y);
    y
}

/// Causal running mean over the rows of each segment (`bounds` are the
/// segment starts and the row count): `y_t = mean(x_0..=x_t)`, `t`
/// counted from the segment's first row — the tape's and the stage's.
pub(crate) fn cum_mean(x: &Panels, bounds: &[usize]) -> Panels {
    let mut y = Panels::new(x.rows, x.cols);
    let mut acc = vec![0.0f32; x.cols];
    for seg in bounds.windows(2) {
        acc.fill(0.0);
        for r in seg[0]..seg[1] {
            let (g, lane) = (r / LANES, r % LANES);
            for (a, lanes) in acc.iter_mut().zip(x.panel(g)) {
                *a += lanes[lane];
            }
            let inv = 1.0 / ((r - seg[0]) as f32 + 1.0);
            for (lanes, a) in y.panel_mut(g).iter_mut().zip(&acc) {
                lanes[lane] = a * inv;
            }
        }
    }
    y
}

/// SiLU in place, `x · σ(x)` with `σ(x) = 1 / (1 + e^{−x})`, on the real
/// rows only: no `exp` is spent on padding.
pub(crate) fn silu_in_place(x: &mut Panels) {
    for g in 0..x.groups() {
        let width = x.width(g);
        for lanes in x.panel_mut(g) {
            for v in &mut lanes[..width] {
                *v *= 1.0 / (1.0 + (-*v).exp());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_round_trips_and_padding_stays_out() {
        let t = Tensor::new((0..11 * 3).map(|v| v as f32).collect(), 11, 3);
        let p = with_padding(f32::NAN, || Panels::from_mat(t.mat()));
        assert_eq!(p.to_tensor(), t);
        assert_eq!((p.groups(), p.width(0), p.width(1)), (2, 8, 3));
        assert_eq!(p.get(9, 2), 29.0);
        assert_eq!(p.row(10).collect::<Vec<_>>(), [30.0, 31.0, 32.0]);
        assert!(p.panel(1).iter().all(|lanes| lanes[3..].iter().all(|v| v.is_nan())));
        let tt = p.transpose_rows(2..11);
        assert_eq!((tt.rows(), tt.cols()), (3, 9));
        assert_eq!((tt.get(0, 0), tt.get(2, 8)), (6.0, 32.0));
        let col = Panels::from_column(&[1.0, 2.0, 3.0]);
        assert_eq!(col.column(), [1.0, 2.0, 3.0]);
    }
}
