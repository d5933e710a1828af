//! The one activation layout inside hf-nn: a `[rows × cols]` activation
//! held as the microkernel's lane panels. The tape's values and
//! gradients, the stage forward's hidden stream and the decoder's
//! `[feature][lane]` buffers are all [`Panels`].
//!
//! * **What a panel is.** Rows `8g..8g + 8` form panel `g`, `cols` steps
//!   of [`LANES`] values each, so element `(r, c)` sits at step `c` of
//!   panel `r / 8`, lane `r % 8`. `x·wᵀ` and `g·w` read that panel in
//!   place as their lane operand and store each output column's eight
//!   sums as one vector, so a product neither packs its input nor
//!   scatters its output. A one-column activation (log-probs, values,
//!   per-segment losses) is its rows in order and reads as a slice.
//! * **Where conversions happen.** Row-major data exists only at the
//!   boundaries. In: `Tape::leaf`, and the tensor a stage forward is
//!   handed (`ShardedLm::embed`'s, or a received pipeline hand-off); the
//!   tape's, the stage's and the decoder's own embeddings write panels
//!   directly. Out: `Tape::value` and `Tape::grad`, logits, log-probs and
//!   values, the TP all-reduce partial (the closure of `forward_stage`
//!   still receives the row-major `[T × hidden]` partial; its sum is read
//!   back into panels) and the pipeline hand-off.
//! * **What padding lanes may hold, and why they never enter a sum.** The
//!   lanes past the last row of a ragged last panel may hold anything:
//!   the cheap elementwise ops compute them and products carry them as
//!   lanes of their own. The ops that cost a call per value (`exp`, `ln`)
//!   skip them: [`Panels::map_real`] runs the whole panels as one flat
//!   loop and gathers a ragged panel's real lanes into a buffer on the
//!   stack for the same loop, so a one-row panel pays one `exp` a step,
//!   not eight. `ppo_wide_small`, whose every rank decodes one sequence,
//!   read 0.990× (1/6 pairs) while the decoder paid eight and sampling
//!   went through a per-chunk iterator, and 1.026× (7/8) with the gather
//!   and a callback per chunk. Lanes never mix, so padding could reach a
//!   real value only through code that walks rows, and all of it walks
//!   the real rows only: the row reductions (`cum_mean`, `mean_all` in
//!   its row-major summation order, softmax, the losses, the RMSNorm and
//!   embedding gradients), `gᵀ·x`'s conversions, the skip-zero scan and
//!   every read-out. Bytes and virtual time are charged on `rows × cols`,
//!   never on a padded length. Tests poison the padding with NaN
//!   (`with_padding`): `padding_lanes_never_reach_a_result`
//!   (`model.rs`) holds stacked forward values, each segment's loss and
//!   parameter gradient and the stage forward bit-equal to per-sequence
//!   references over 1–70 rows cut anywhere, and the skip-zero scans'
//!   count equal under NaN and zero padding
//!   (`padding_never_enters_a_skip_zero_scan` in `kernels.rs` also plants
//!   a zero and an infinity so that neither scan's count is 0), and SiLU,
//!   `softmax_rows` and `tape::log_probs` of the stacked logits bit-equal
//!   under NaN and zero padding (`both_instantiations_…` also holds their
//!   NaN padding lanes NaN); `crates/rlhf/tests/tp_inference_bytes.rs`
//!   pins what a ragged `tp_inference` pass puts on the wire on 1-2-2 and
//!   2-1-2.
//! * **Why `gᵀ·x` converts.** Its output element is a sum over rows, so
//!   no lane may hold a row: its lanes are `x`'s columns, and its output
//!   is the row-major flat gradient the tape writes in place, `[k × n]`
//!   with `n` = `x`'s columns. So each tape op transposes all of `x`'s
//!   rows once into panels of its columns ([`Panels::transpose`]) and
//!   reads `g` out row-major once ([`Panels::row_major`]; the expand
//!   reads it once for both of its weights), both by moves of 8×8 lanes
//!   that do no arithmetic, and each segment's call reads its own
//!   contiguous steps of both in place (its product reads `g` a row of
//!   adjacent values at a time; read in place from lane panels, such a
//!   product measured 3–4× slower than the read-out costs, and a whole
//!   actor pass 1.02× slower). Converting both again for every segment
//!   and every weight, with `g`'s zero scan on every call, is what this
//!   replaced. Each output row's eight sums are then eight adjacent
//!   values of the flat gradient, stored or added as one vector; with
//!   `g`'s columns as the lanes instead, every sum was scattered to its
//!   own row (`gᵀ·x` was 14.6 % of `ppo_colocated`'s profile).
//!   Multiplication commutes exactly and the rows are still summed in
//!   ascending order, so the bits are the same; a zero of `g` is a
//!   broadcast value, which the masked terms (`NnSkipB`) leave out by the
//!   value, not by the lane.
//!
//! **Measured and not built** (scratch copies; EXPERIMENTS.md,
//! "activations in lane panels"):
//!
//! * *16 lanes under `avx512f`.* `grpo_long_rollout` read 1.15× in
//!   calibrated time, but the raw iteration p50 did not move (42.07
//!   against 42.16 ms): the benchmark's reference kernel slowed from
//!   1.41× to 1.65–1.85× of its reference time, so the calibration
//!   credited a frequency license, not faster code.
//! * *16 lanes under `avx2`:* 0.78×, from register spills.
//! * *`NC = 8` under AVX2:* `grpo` 0.88×, `ppo_colocated` 0.63×.
//! * *A buffered transpose store with the row-major layout kept* (one
//!   transpose per panel inside the product): +3–5 % end to end on
//!   `grpo_long_rollout` and `ppo_colocated`, about a third of what the
//!   layout gives.
//! * *The RMSNorm backward's `1 / rms` kept from the forward, its `dx`
//!   step kept out of line* (inlined, LLVM vectorises that loop across
//!   steps and gathers each lane's values), *and `cum_mean`'s backward
//!   turned 8×8 blocks at a time*: in A/Bs of whole GRPO actor passes the
//!   first read 1.00×, the second 1.01–1.04× and the third 1.7–1.9× the
//!   plain loops' time.
//! * *RMSNorm inside `on_host`*: `rmsnorm_into` and `rmsnorm_backward`
//!   with eight lanes as one ymm (the `dx` loop then vectorises on ymm
//!   with shuffles) read 1.002× on whole GRPO actor passes, 0.996× on
//!   forward-only passes and 1.008× on decoding (paired medians of 60
//!   alternating in-process runs, 30/60, 25/60 and 43/60 faster).
//! * *`cum_mean` and its backward as one scan over the transposed panels*
//!   (columns as lanes, rows as steps, the same per-column add order):
//!   the forward `cum_mean` rose from 19–20 to 22–24 ms per 40 GRPO actor
//!   passes — the two transposes cost more than the row walk saves — and
//!   the backward stayed at 23–24 ms, also with the scan inside
//!   `on_host`.
//! * *SiLU inside the decoder's second expand store*: decoding 0.67×.

use std::ops::Range;

use crate::expf::exp;
use crate::kernels::{self, Lanes, LANES};
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
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
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
    pub(crate) fn from_data(data: Vec<Lanes>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows.div_ceil(LANES) * cols, "panel data shape");
        Panels { data, rows, cols }
    }

    /// The rows of a row-major matrix as lanes.
    pub(crate) fn from_mat(m: Mat) -> Self {
        let mut panels = Panels::new(m.rows, m.cols);
        for r in 0..m.rows {
            panels.set_row(r, m.row(r).iter().copied());
        }
        panels
    }

    /// One column of values, one per row.
    pub(crate) fn from_column(values: &[f32]) -> Self {
        let mut panels = Panels::new(values.len(), 1);
        panels.column_mut().copy_from_slice(values);
        panels
    }

    /// The row-major matrix of the real rows.
    pub(crate) fn to_tensor(&self) -> Tensor {
        Tensor::new(self.row_major(), self.rows, self.cols)
    }

    /// The real rows, row-major: a panel at a time, each of its real
    /// lanes read out into one row, 8×8 lanes of a block at a time.
    pub(crate) fn row_major(&self) -> Vec<f32> {
        let cols = self.cols;
        let mut out = vec![0.0; self.rows * cols];
        for (g, rows) in out.chunks_mut((LANES * cols).max(1)).enumerate() {
            let (blocks, rest) = self.panel(g).as_chunks::<LANES>();
            for (l, row) in rows.chunks_exact_mut(cols).enumerate() {
                let (whole, tail) = row.as_chunks_mut::<LANES>();
                for (d, block) in whole.iter_mut().zip(blocks) {
                    lane_of(block, l, d);
                }
                lane_of(rest, l, tail);
            }
        }
        out
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Number of panels.
    pub(crate) fn groups(&self) -> usize {
        self.rows.div_ceil(LANES)
    }

    /// Real rows in panel `g`: [`LANES`] but in a ragged last panel.
    pub(crate) fn width(&self, g: usize) -> usize {
        LANES.min(self.rows - g * LANES)
    }

    /// Panel `g`'s `cols` steps.
    pub(crate) fn panel(&self, g: usize) -> &[Lanes] {
        &self.data[g * self.cols..][..self.cols]
    }

    pub(crate) fn panel_mut(&mut self, g: usize) -> &mut [Lanes] {
        &mut self.data[g * self.cols..][..self.cols]
    }

    /// Every panel's steps, panel after panel.
    pub(crate) fn data(&self) -> &[Lanes] {
        &self.data
    }

    pub(crate) fn data_mut(&mut self) -> &mut [Lanes] {
        &mut self.data
    }

    pub(crate) fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r / LANES * self.cols + c][r % LANES]
    }

    /// Row `r`, column by column.
    pub(crate) fn row(&self, r: usize) -> impl Iterator<Item = f32> + '_ {
        self.panel(r / LANES).iter().map(move |lanes| lanes[r % LANES])
    }

    /// Overwrites row `r` with `values`, column by column.
    pub(crate) fn set_row(&mut self, r: usize, values: impl IntoIterator<Item = f32>) {
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
    pub(crate) fn column(&self) -> &[f32] {
        assert_eq!(self.cols, 1, "a column is one value per row");
        &self.data.as_flattened()[..self.rows]
    }

    pub(crate) fn column_mut(&mut self) -> &mut [f32] {
        assert_eq!(self.cols, 1, "a column is one value per row");
        &mut self.data.as_flattened_mut()[..self.rows]
    }

    /// `f` of every lane, padding included: for the cheap elementwise
    /// ops, which vectorise over whole panels.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Panels {
        let data = self.data.iter().map(|lanes| lanes.map(&f)).collect();
        Panels { data, ..*self }
    }

    /// `f` of every real lane in place, for the ops that cost a call per
    /// value (`exp`, `ln`); `f` is an `#[inline(always)]` function or
    /// closure. The whole panels go as one flat loop
    /// ([`kernels::map_in_place`]); a ragged last panel's real lanes are
    /// gathered into a buffer on the stack for that loop and put back, so
    /// that a one-row panel (a decode group of one sequence) pays one
    /// `exp` a step, not eight. Padding lanes keep what they held.
    pub(crate) fn map_real(&mut self, f: impl Fn(f32) -> f32) {
        let width = self.rows % LANES;
        let (whole, ragged) = self.data.split_at_mut(self.rows / LANES * self.cols);
        kernels::map_in_place(whole.as_flattened_mut(), &f);
        if width == 0 {
            return;
        }
        let mut buf = [0.0f32; GATHER];
        for steps in ragged.chunks_mut(GATHER / width) {
            let values = &mut buf[..steps.len() * width];
            for (v, lanes) in values.chunks_exact_mut(width).zip(&*steps) {
                v.copy_from_slice(&lanes[..width]);
            }
            kernels::map_in_place(values, &f);
            for (v, lanes) in values.chunks_exact(width).zip(steps) {
                lanes[..width].copy_from_slice(v);
            }
        }
    }

    /// Elementwise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn add(&self, other: &Panels) -> Panels {
        let mut sum = self.clone();
        sum.add_assign(other);
        sum
    }

    /// Elementwise `self += other`, lanes at a time.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn add_assign(&mut self, other: &Panels) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            for (a, b) in a.iter_mut().zip(b) {
                *a += b;
            }
        }
    }

    /// `self` with rows and columns swapped, `[cols × rows]`: the columns
    /// of `self` become the lanes, its rows the steps. Values move an
    /// 8×8 block of lanes at a time; the padding lanes of the result's
    /// ragged last panel hold what [`Panels::new`] put there.
    pub(crate) fn transpose(&self) -> Panels {
        let mut t = Panels::new(self.cols, self.rows);
        for g in 0..self.groups() {
            let rows = g * LANES..g * LANES + self.width(g);
            for (p, steps) in self.panel(g).chunks(LANES).enumerate() {
                // Lane `l` of these steps is step `8g + l` of panel `p`.
                let dst = &mut t.panel_mut(p)[rows.clone()];
                match (
                    <&[Lanes; LANES]>::try_from(steps),
                    <&mut [Lanes; LANES]>::try_from(&mut *dst),
                ) {
                    // A whole block: lengths the compiler sees.
                    (Ok(steps), Ok(dst)) => swap_lanes(steps, dst),
                    _ => swap_lanes(steps, dst),
                }
            }
        }
        t
    }
}

/// Values [`Panels::map_real`] gathers from a ragged panel at a time.
const GATHER: usize = 64;

/// `dst[l][s] = steps[s][l]` over the shorter of each: steps and lanes
/// swapped.
#[inline(always)]
fn swap_lanes(steps: &[Lanes], dst: &mut [Lanes]) {
    for (l, d) in dst.iter_mut().enumerate() {
        lane_of(steps, l, d);
    }
}

/// Lane `l` of each of `steps` into `dst`, step by step.
#[inline(always)]
fn lane_of(steps: &[Lanes], l: usize, dst: &mut [f32]) {
    for (v, lanes) in dst.iter_mut().zip(steps) {
        *v = lanes[l];
    }
}

/// What a new panel's padding lanes hold: `0.0`, or under a test
/// `with_padding` the value it set.
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

/// SiLU, `x · σ(x)` with `σ(x) = 1 / (1 + e^{−x})`: the one float
/// expression of the tape, the stage forward and both decoders.
#[inline(always)]
pub(crate) fn silu(x: f32) -> f32 {
    x * (1.0 / (1.0 + exp(-x)))
}

/// [`silu`] of every real lane in place ([`Panels::map_real`]).
pub(crate) fn silu_in_place(x: &mut Panels) {
    x.map_real(silu);
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
        let tt = with_padding(f32::NAN, || p.transpose());
        assert_eq!((tt.rows(), tt.cols()), (3, 11));
        assert_eq!((tt.get(0, 2), tt.get(2, 10)), (6.0, 32.0));
        assert!(tt.panel(0).iter().all(|lanes| lanes[3..].iter().all(|v| v.is_nan())));
        assert_eq!(tt.transpose().to_tensor(), t);
        // Several 8×8 blocks each way, ragged in both.
        let (rows, cols) = (19, 21);
        let t = Tensor::new((0..rows * cols).map(|v| v as f32).collect(), rows, cols);
        let tt = Panels::from_mat(t.mat()).transpose().to_tensor();
        assert!((0..rows * cols).all(|i| tt.get(i % cols, i / cols) == t.get(i / cols, i % cols)));
        let col = Panels::from_column(&[1.0, 2.0, 3.0]);
        assert_eq!(col.column(), [1.0, 2.0, 3.0]);
    }
}
