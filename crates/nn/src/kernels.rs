//! The one GEMM microkernel under every product in hf-nn: the tape's
//! forward and backward, the stage forward (`ShardedLm::forward_stage`,
//! `TinyLm::log_probs_stacked`), the batched decoder, and
//! `Tensor::matmul_{nt,nn,tn}`, which convert around it.
//!
//! Contract (DESIGN.md §2, "kernel contract"): every output element is
//! the sum of its terms in ascending `k`, starting from `0.0`, each term
//! a plain `mul` — exactly what the scalar loops it replaces compute, so
//! results are bit-identical to them. A sum of two products — a block's
//! expand `n·Waᵀ + c·Uaᵀ` — is two products, the second's sums added to
//! the first's stored ones, in the tape, the stage forward and the
//! decoder alike: no kernel fuses them, so a decoded row is the
//! forward's row bit for bit. Speed comes only from sharing a
//! vector between *independent* outputs: [`LANES`] values of the lane
//! dimension (rows of `x`/`g`, columns of `x` for `gᵀ·x`, sequences of a
//! decode batch) sit in `[k][LANES]` panels — the layout every activation
//! in hf-nn is kept in ([`Panels`]) — and [`NC`] output columns are
//! accumulated at once in registers. `x·wᵀ` and `g·w` read their panel
//! in place and store each column's sums as one vector; `gᵀ·x`, whose
//! lanes are `x`'s columns, is handed `x` transposed and `g` row-major —
//! both converted once per tape op, by 8×8 block moves, and sliced to
//! each segment's rows — and stores each row of the row-major flat
//! gradient a vector at a time. Every term is a plain `mul` and every
//! sum a plain `add`: no product fuses a multiply-add, which would round
//! once where the reference rounds twice. The vector width may follow the
//! host, because lanes are independent outputs: [`panel_product`] runs
//! its one body through [`on_host`], which compiles it inside an
//! `avx2,fma` trampoline where the CPU has both — the one `unsafe` block
//! in hf-nn, guarded by `is_x86_feature_detected!` — and for the
//! baseline target elsewhere. Rust never contracts `a * b + c`, so the
//! `fma` feature changes no product's bits; it is there for the one
//! `exp` ([`crate::expf`]), whose loops run through [`on_host`] too and
//! whose fused steps are glibc's. The sums of padding lanes are computed
//! and never read.

use std::cell::OnceCell;
use std::ops::Range;

use crate::panels::Panels;
use crate::tensor::Mat;

/// Width of the lane dimension: two 4-wide vectors on the baseline
/// target, one 8-wide vector inside [`on_host`]'s trampoline.
pub(crate) const LANES: usize = 8;
/// Output columns accumulated together: `NC × LANES` sums fill the
/// baseline target's vector registers, and each `a` step is
/// loaded once per `NC` columns.
const NC: usize = 4;

/// [`LANES`] independent values: one row of a panel.
pub(crate) type Lanes = [f32; LANES];

/// The summands of a panel product: for output column `c` and lane `l`
/// the kernel adds `term(step kk, c, l)` for `kk` ascending.
pub(crate) trait Terms: Copy {
    /// What one `kk` contributes to `N` adjacent output columns.
    type Step<const N: usize>;
    /// The steps of output columns `j..j + N`, `kk` ascending.
    fn steps<const N: usize>(self, j: usize) -> impl Iterator<Item = Self::Step<N>>;
    /// The summands of column `j + c` at one step, lane by lane.
    fn term<const N: usize>(step: &Self::Step<N>, c: usize) -> Lanes;
}

/// `a[kk][l] · w[c][kk]`: the right operand is given transposed, as
/// `w: [n × k]` row-major (`x · wᵀ`).
#[derive(Clone, Copy)]
pub(crate) struct Nt<'a> {
    pub a: &'a [Lanes],
    pub w: &'a [f32],
}

impl<'a> Terms for Nt<'a> {
    type Step<const N: usize> = (&'a Lanes, [f32; N]);

    #[inline(always)]
    fn steps<const N: usize>(self, j: usize) -> impl Iterator<Item = Self::Step<N>> {
        let k = self.a.len();
        // A loop, not `std::array::from_fn`: LLVM leaves that one out of
        // line in the `avx2,fma` instantiation, whose inner loop then checks
        // every row's bounds at every step.
        let mut rows: [&[f32]; N] = [&[]; N];
        for (c, row) in rows.iter_mut().enumerate() {
            *row = &self.w[(j + c) * k..][..k];
        }
        self.a.iter().enumerate().map(move |(kk, a)| (a, rows.map(|r| r[kk])))
    }

    #[inline(always)]
    fn term<const N: usize>((a, b): &Self::Step<N>, c: usize) -> Lanes {
        a.map(|v| v * b[c])
    }
}

/// `a[kk][l] · b[kk][c]` with `b: [k × n]` row-major. With `SKIP_ZERO`
/// every term whose `a` is exactly zero is left out, as the backward
/// loops always have left it out (masked gradient rows), so a zero
/// gradient never meets a non-finite weight: the term is replaced by
/// `+0.0`, and a running sum that starts at `+0.0` is never `-0.0`, so
/// adding `+0.0` leaves it bit for bit as it was. [`skip_zero_product`]
/// picks which of the two a panel takes.
#[derive(Clone, Copy)]
struct Nn<'a, const SKIP_ZERO: bool> {
    a: &'a [Lanes],
    b: Mat<'a>,
}

impl<'a, const SKIP_ZERO: bool> Terms for Nn<'a, SKIP_ZERO> {
    type Step<const N: usize> = (&'a Lanes, [u32; LANES], [f32; N]);

    #[inline(always)]
    fn steps<const N: usize>(self, j: usize) -> impl Iterator<Item = Self::Step<N>> {
        let rows = self.b.data.chunks_exact(self.b.cols);
        self.a.iter().zip(rows).map(move |(a, row)| {
            let keep = a.map(|v| if v == 0.0 { 0 } else { u32::MAX });
            (a, keep, *row[j..].first_chunk::<N>().expect("j + N <= n"))
        })
    }

    #[inline(always)]
    fn term<const N: usize>((a, keep, b): &Self::Step<N>, c: usize) -> Lanes {
        if SKIP_ZERO {
            std::array::from_fn(|l| f32::from_bits((a[l] * b[c]).to_bits() & keep[l]))
        } else {
            a.map(|v| v * b[c])
        }
    }
}

/// The microkernel: `N × LANES` running sums held in registers over one
/// pass of `k`.
#[inline(always)]
fn micro<T: Terms, const N: usize>(terms: T, j: usize) -> [Lanes; N] {
    let mut acc = [[0.0f32; LANES]; N];
    for step in terms.steps::<N>(j) {
        for (c, lanes) in acc.iter_mut().enumerate() {
            for (v, t) in lanes.iter_mut().zip(T::term::<N>(&step, c)) {
                *v += t;
            }
        }
    }
    acc
}

/// One panel's product: hands `store` the [`LANES`] sums of each of the
/// `n` output columns, in ascending order, through [`on_host`]. Every
/// product in hf-nn comes through here.
#[inline(always)]
pub(crate) fn panel_product<T: Terms>(terms: T, n: usize, store: impl FnMut(usize, &Lanes)) {
    on_host(
        (),
        #[inline(always)]
        |()| panel_body(terms, n, store),
    )
}

/// `f(args)`, compiled for the widest target the running CPU has:
/// inside [`avx2_fma`] where it has AVX2 and FMA, for the baseline
/// target elsewhere. `f` must be an `#[inline(always)]` closure whose
/// callees are `#[inline(always)]` too, so that all of it is compiled
/// into the trampoline. `args` reach `f` as the trampoline's own
/// argument: a `&mut` slice there is known to alias nothing else — not
/// [`crate::expf`]'s table, which LLVM must know to vectorise a loop of
/// `exp` — where one the closure captured is not. Every product and
/// every `exp` loop in hf-nn runs through here. The target changes no
/// rounding: Rust never contracts `a * b + c` into a fused multiply-add,
/// so a product's sums keep their bits, and `exp`'s `mul_add`s round once
/// either way.
#[inline(always)]
pub(crate) fn on_host<A, R>(args: A, f: impl FnOnce(A) -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
        && !baseline_only()
    {
        // SAFETY: `avx2_fma` only requires the `avx2` and `fma` target
        // features, and the running CPU was detected to have both above.
        return unsafe { avx2_fma(args, f) };
    }
    f(args)
}

/// `f` of each of `values`, in place, as one flat loop inside
/// [`on_host`]: the form every elementwise `exp` in hf-nn takes, so that
/// it vectorises. `f` must be an `#[inline(always)]` function or
/// closure.
#[inline(always)]
pub(crate) fn map_in_place(values: &mut [f32], f: impl Fn(f32) -> f32) {
    on_host(
        values,
        #[inline(always)]
        |values: &mut [f32]| {
            for v in values {
                *v = f(*v);
            }
        },
    )
}

/// Whether a test asked for the baseline target on a host that has
/// AVX2 and FMA ([`tests::on`]); never outside tests.
#[inline(always)]
fn baseline_only() -> bool {
    #[cfg(test)]
    return tests::BASELINE_ONLY.get();
    #[cfg(not(test))]
    false
}

/// The trampoline of [`on_host`]: `f` compiled with 8-wide vectors and
/// fused multiply-adds where it asks for them (`mul_add`) — the same
/// operations in the same order as the baseline, so the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2_fma<A, R>(args: A, f: impl FnOnce(A) -> R) -> R {
    f(args)
}

/// The product itself. Columns go [`NC`] at a time; the `n % NC` left
/// over — and every column when `n < NC`, the value head — go one at a
/// time, which costs no padding.
#[inline(always)]
fn panel_body<T: Terms>(terms: T, n: usize, mut store: impl FnMut(usize, &Lanes)) {
    let blocked = n - n % NC;
    for j in (0..blocked).step_by(NC) {
        for (c, lanes) in micro::<T, NC>(terms, j).iter().enumerate() {
            store(j + c, lanes);
        }
    }
    for j in blocked..n {
        let [lanes] = micro::<T, 1>(terms, j);
        store(j, &lanes);
    }
}

/// Whether a product's sums replace what `out` holds or are added to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Write {
    Store,
    Add,
}

impl Write {
    /// `dst` replaced by, or added to, `sums`.
    #[inline(always)]
    fn put(self, dst: &mut [f32], sums: &[f32]) {
        match self {
            Write::Store => dst.copy_from_slice(sums),
            Write::Add => dst.iter_mut().zip(sums).for_each(|(d, s)| *d += s),
        }
    }
}

/// [`Nn`]'s terms with the zero terms of `b` left out instead of `a`'s:
/// `gᵀ·x` takes `x`'s columns as lanes and broadcasts `g`'s values, so
/// there the gradient's zeros are `b`'s. A kept term is the plain
/// product, and a left-out one `+0.0`, as in [`Nn`].
#[derive(Clone, Copy)]
struct NnSkipB<'a> {
    a: &'a [Lanes],
    b: Mat<'a>,
}

impl<'a> Terms for NnSkipB<'a> {
    type Step<const N: usize> = (&'a Lanes, [f32; N]);

    #[inline(always)]
    fn steps<const N: usize>(self, j: usize) -> impl Iterator<Item = Self::Step<N>> {
        let rows = self.b.data.chunks_exact(self.b.cols);
        self.a
            .iter()
            .zip(rows)
            .map(move |(a, row)| (a, *row[j..].first_chunk::<N>().expect("j + N <= n")))
    }

    #[inline(always)]
    fn term<const N: usize>((a, b): &Self::Step<N>, c: usize) -> Lanes {
        let keep = if b[c] == 0.0 { 0 } else { u32::MAX };
        a.map(|v| f32::from_bits((v * b[c]).to_bits() & keep))
    }
}

/// Whether any of `values` is one `hit` is true of: one fold over the
/// values in order without an early exit, which vectorises over
/// adjacent values (a scan value by value with an early exit cost as
/// much as a product's arithmetic).
#[inline(always)]
fn any_hit(values: &[f32], hit: impl Fn(f32) -> bool) -> bool {
    values.iter().fold(0u32, |hits, &v| hits | u32::from(hit(v))) != 0
}

/// Whether any of the first `width` lanes of a panel holds a value `hit`
/// is true of: a whole panel's values as one flat slice, a ragged one's
/// real lanes folded lane by lane.
#[inline(always)]
fn real_lanes_hit(panel: &[Lanes], width: usize, hit: impl Fn(f32) -> bool) -> bool {
    if width == LANES {
        return any_hit(panel.as_flattened(), hit);
    }
    let hits = panel.iter().fold([0u32; LANES], |mut hits, lanes| {
        for (h, &v) in hits.iter_mut().zip(lanes) {
            *h |= u32::from(hit(v));
        }
        hits
    });
    hits[..width].contains(&1)
}

/// Counts a panel whose skip-zero scan found what it looks for, for the
/// padding tests.
fn count_hit(hit: bool) {
    #[cfg(test)]
    tests::SCAN_HITS.set(tests::SCAN_HITS.get() + usize::from(hit));
    #[cfg(not(test))]
    let _ = hit;
}

/// The product of one panel of [`Nn`] terms, `width` of whose lanes are
/// real. It skips the zero terms of `a` only where that changes a sum:
/// where a real lane of `a` holds an exact zero and a value of `b` is not
/// finite (`0 · ∞` is NaN). A term `0 · b` of a finite `b` is `±0.0`,
/// which adds nothing to a sum that is never `-0.0`, so there the plain
/// product is the same sum. Padding lanes never enter the scan; `finite`
/// keeps the answer for `b` across the panels of one product.
#[inline(always)]
fn skip_zero_product(
    a: &[Lanes],
    width: usize,
    (b, finite): (Mat, &OnceCell<bool>),
    store: impl FnMut(usize, &Lanes),
) {
    let zero = real_lanes_hit(a, width, |v| v == 0.0);
    count_hit(zero);
    if zero && !*finite.get_or_init(|| !any_hit(b.data, |v| !v.is_finite())) {
        panel_product(Nn::<true> { a, b }, b.cols, store)
    } else {
        panel_product(Nn::<false> { a, b }, b.cols, store)
    }
}

/// `x · wᵀ` with `x: [m × k]` in panels and `w: [n × k]` row-major →
/// `[m × n]` in panels: each panel of `x` read in place, each output
/// column's sums stored as one vector.
pub(crate) fn x_wt(x: &Panels, w: Mat) -> Panels {
    assert_eq!(x.cols(), w.cols, "x·wᵀ inner dims");
    let mut out = Vec::with_capacity(x.groups() * w.rows);
    for g in 0..x.groups() {
        panel_product(Nt { a: x.panel(g), w: w.data }, w.rows, |c, sums| {
            debug_assert_eq!(out.len(), g * w.rows + c, "columns come in order");
            out.push(*sums);
        });
    }
    Panels::from_data(out, x.rows(), w.rows)
}

/// `out += x · wᵀ`, `out: [m × n]` in panels: each column's sums added
/// to what it holds — the second product of a sum of two, whose first
/// [`x_wt`] stored.
pub(crate) fn x_wt_add(out: &mut Panels, x: &Panels, w: Mat) {
    assert_eq!((x.cols(), out.rows(), out.cols()), (w.cols, x.rows(), w.rows), "x·wᵀ shapes");
    for g in 0..x.groups() {
        let dst = out.panel_mut(g);
        panel_product(Nt { a: x.panel(g), w: w.data }, w.rows, |c, sums| {
            Write::Add.put(&mut dst[c], sums);
        });
    }
}

/// `g · w` with `g: [m × k]` in panels and `w: [k × n]` row-major →
/// `[m × n]` in panels, zero terms of `g` skipped.
pub(crate) fn g_w(g: &Panels, w: Mat) -> Panels {
    assert_eq!(g.cols(), w.rows, "g·w inner dims");
    let (mut out, finite) = (Vec::with_capacity(g.groups() * w.cols), OnceCell::new());
    for p in 0..g.groups() {
        skip_zero_product(g.panel(p), g.width(p), (w, &finite), |c, sums| {
            debug_assert_eq!(out.len(), p * w.cols + c, "columns come in order");
            out.push(*sums);
        });
    }
    Panels::from_data(out, g.rows(), w.cols)
}

/// `gᵀ · x` over rows `rows` of `g: [m × k]` and `x: [m × n]`, zero
/// terms of `g` skipped, stored in or added to the row-major `out: [k ×
/// n]` — a weight gradient lands where it is summed. `g` is given
/// row-major and `x` transposed ([`Panels::transpose`], `x`'s columns
/// as lanes), each over all of an op's rows and converted once for all
/// of its segments: this call reads the steps `rows` of each panel in
/// place and stores each output row's [`LANES`] sums as one vector of
/// `out`. The zero terms are `g`'s, the broadcast operand: a panel skips
/// them ([`NnSkipB`]) only where a non-finite value in its real lanes
/// meets a zero in `g`'s rows, which are scanned only then.
pub(crate) fn gt_x_into(
    g: Mat,
    xt: &Panels,
    rows: Range<usize>,
    (out, write): (&mut [f32], Write),
) {
    let (k, n) = (g.cols, xt.rows());
    assert_eq!((g.rows, out.len()), (xt.cols(), k * n), "gᵀ·x shapes");
    let b = Mat { data: &g.data[rows.start * k..rows.end * k], rows: rows.len(), cols: k };
    let zero = OnceCell::new();
    for p in 0..xt.groups() {
        let (a, width, j0) = (&xt.panel(p)[rows.clone()], xt.width(p), p * LANES);
        let store = |c: usize, sums: &Lanes| {
            let at = c * n + j0;
            if width == LANES {
                // A length the compiler sees: one vector.
                let dst: &mut Lanes = (&mut out[at..at + LANES]).try_into().expect("LANES values");
                write.put(dst, sums);
            } else {
                write.put(&mut out[at..at + width], &sums[..width]);
            }
        };
        let masked = real_lanes_hit(a, width, |v| !v.is_finite())
            && *zero.get_or_init(|| any_hit(b.data, |v| v == 0.0));
        count_hit(masked);
        if masked {
            panel_product(NnSkipB { a, b }, k, store)
        } else {
            panel_product(Nn::<false> { a, b }, k, store)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::panels::{silu_in_place, with_padding};
    use crate::tape::{log_probs, softmax_rows};

    /// The scalar loops the kernels replaced, kept as the reference the
    /// kernels must match bit for bit.
    pub(crate) mod reference {
        use crate::expf::exp;

        pub(crate) fn x_wt(x: &[f32], w: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += x[i * k + kk] * w[j * k + kk];
                    }
                    out[i * n + j] = acc;
                }
            }
            out
        }

        pub(crate) fn g_w(g: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for kk in 0..k {
                    let gik = g[i * k + kk];
                    if gik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[i * n + j] += gik * w[kk * n + j];
                    }
                }
            }
            out
        }

        /// SiLU of each value, `exp` one value at a time.
        pub(crate) fn silu(x: &[f32]) -> Vec<f32> {
            x.iter().map(|&v| v * (1.0 / (1.0 + exp(-v)))).collect()
        }

        /// Each row's softmax: the maximum folded from `-∞`, `e = exp(v −
        /// max)`, `z = Σ e` in column order from `0.0`, `e / z`.
        pub(crate) fn softmax(x: &[f32], n: usize) -> Vec<f32> {
            let mut out = Vec::with_capacity(x.len());
            for row in x.chunks(n) {
                let m = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let e: Vec<f32> = row.iter().map(|&v| exp(v - m)).collect();
                let z = e.iter().fold(0.0f32, |z, &e| z + e);
                out.extend(e.iter().map(|e| e / z));
            }
            out
        }

        /// `ln(max(p, 1e-30))` of each row's softmax at its target.
        pub(crate) fn log_probs(x: &[f32], n: usize, targets: &[usize]) -> Vec<f32> {
            let p = softmax(x, n);
            (targets.iter().enumerate()).map(|(r, &t)| p[r * n + t].max(1e-30).ln()).collect()
        }

        pub(crate) fn gt_x(g: &[f32], x: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; k * n];
            for i in 0..m {
                for kk in 0..k {
                    let gik = g[i * k + kk];
                    if gik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[kk * n + j] += gik * x[i * n + j];
                    }
                }
            }
            out
        }
    }

    /// `rows × cols` values with exact `0.0` and `-0.0` mixed in and
    /// about one row in four all zero (a masked gradient row).
    fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let masked = rng.random_range(0u32..4) == 0;
            for _ in 0..cols {
                data.push(match rng.random_range(0u32..8) {
                    _ if masked => 0.0,
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.random::<f32>() * 4.0 - 2.0,
                });
            }
        }
        data
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn mat(data: &[f32], rows: usize, cols: usize) -> Mat<'_> {
        Mat { data, rows, cols }
    }

    thread_local! {
        /// Panels whose skip-zero scan found what it looks for: an exact
        /// zero in a real lane of `g·w`'s gradient panel, or a
        /// non-finite value in a real lane of `gᵀ·x`'s `x` panel where
        /// `g`'s rows hold a zero.
        pub(crate) static SCAN_HITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        /// Set while [`on`] runs the baseline target.
        pub(crate) static BASELINE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Runs `f` with every [`on_host`] call on this thread compiled for
    /// `isa`.
    pub(crate) fn on<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
        let before = BASELINE_ONLY.replace(matches!(isa, Isa::Baseline));
        let out = f();
        BASELINE_ONLY.set(before);
        out
    }

    /// The lanes of `m`'s rows, padded with `f32::NAN`: a padding lane
    /// that reached a stored sum would show.
    fn poisoned(m: Mat) -> Panels {
        with_padding(f32::NAN, || Panels::from_mat(m))
    }

    /// The columns of `m` as lanes, padded with `f32::NAN`: `m`
    /// converted as a tape op converts `x` for `gᵀ·x`.
    fn columns(m: Mat) -> Panels {
        with_padding(f32::NAN, || poisoned(m).transpose())
    }

    /// The row-major `[k × n]` of [`gt_x_into`] over all rows of `g`
    /// and `x`, written over `out`.
    fn gt_x(g: Mat, x: Mat, out: (&mut [f32], Write)) {
        gt_x_into(g, &columns(x), 0..g.rows, out);
    }

    fn dim() -> impl Strategy<Value = usize> {
        // Ragged against both the lane width and the column block, the
        // single-column path (`n < 4`) and the one-step sum (`k = 1`).
        prop_oneof![1usize..=70, Just(1usize), Just(2usize), Just(3usize), Just(5usize)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn kernels_bit_identical_to_reference(
            m in dim(), n in dim(), k in dim(), seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = matrix(&mut rng, m, k);
            let w = matrix(&mut rng, n, k);
            prop_assert_eq!(
                bits(x_wt(&poisoned(mat(&x, m, k)), mat(&w, n, k)).to_tensor().data()),
                bits(&reference::x_wt(&x, &w, m, n, k)),
                "x·wᵀ at {}×{}×{}", m, n, k
            );
            let g = matrix(&mut rng, m, k);
            let w = matrix(&mut rng, k, n);
            prop_assert_eq!(
                bits(g_w(&poisoned(mat(&g, m, k)), mat(&w, k, n)).to_tensor().data()),
                bits(&reference::g_w(&g, &w, m, k, n)),
                "g·w at {}×{}×{}", m, k, n
            );
            let x = matrix(&mut rng, m, n);
            let gtx = reference::gt_x(&g, &x, m, k, n);
            // Stored over whatever was there, then added to it.
            let mut out = vec![f32::NAN; k * n];
            gt_x(mat(&g, m, k), mat(&x, m, n), (&mut out, Write::Store));
            prop_assert_eq!(bits(&out), bits(&gtx), "gᵀ·x at {}×{}×{}", m, k, n);
            let mut out = matrix(&mut rng, k, n);
            let sum: Vec<f32> = out.iter().zip(&gtx).map(|(a, b)| a + b).collect();
            gt_x(mat(&g, m, k), mat(&x, m, n), (&mut out, Write::Add));
            prop_assert_eq!(bits(&out), bits(&sum), "gᵀ·x added in place");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// `gᵀ·x` as a tape op runs it: `g` read out of its panels and
        /// `x` transposed once over all rows, then one call per segment
        /// on its slice of steps, each against the scalar loop over that
        /// segment alone. Segments start anywhere in a panel and run
        /// across panel boundaries; the last panel is ragged whenever
        /// the rows are; `x` holds NaN and ±∞ where `g` holds exact
        /// zeros, so both a masked and a plain panel are taken.
        #[test]
        fn gt_x_per_segment_bit_identical_to_reference(
            lens in proptest::collection::vec(0usize..=19, 1..6),
            n in dim(), k in dim(), seed in any::<u64>(), specials in 0usize..4,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m: usize = lens.iter().sum();
            let mut g = matrix(&mut rng, m, k);
            let mut x = matrix(&mut rng, m, n);
            let values = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for v in 0..specials.min(m * n) {
                let at = rng.random_range(0..m * n);
                x[at] = values[v % values.len()];
            }
            // Every other segment's first row meets a zero of `g` with a
            // value of `x` that is not finite: its first panel is masked.
            let starts = lens.iter().scan(0, |r, &len| Some((std::mem::replace(r, *r + len), len)));
            for (s, (r, _)) in starts.enumerate().filter(|&(s, (_, len))| s % 2 == 0 && len > 0) {
                (g[r * k], x[r * n]) = (0.0, values[s / 2 % values.len()]);
            }
            let gr = poisoned(mat(&g, m, k)).row_major();
            prop_assert_eq!(bits(&gr), bits(&g), "g read out of its panels");
            let xt = columns(mat(&x, m, n));
            let part = |v: &[f32], cols: usize, rows: &Range<usize>| {
                v[rows.start * cols..rows.end * cols].to_vec()
            };
            for isa in isas() {
                let mut r0 = 0;
                for (s, &len) in lens.iter().enumerate() {
                    let rows = r0..r0 + len;
                    r0 += len;
                    let want =
                        reference::gt_x(&part(&g, k, &rows), &part(&x, n, &rows), len, k, n);
                    let mut out = vec![f32::NAN; k * n];
                    on(isa, || gt_x_into(mat(&gr, m, k), &xt, rows.clone(), (&mut out, Write::Store)));
                    prop_assert_eq!(
                        bits(&out), bits(&want),
                        "{:?} segment {} (rows {:?}) of {:?}, n, k = {}, {}", isa, s, rows, lens, n, k
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn padding_never_enters_a_skip_zero_scan(
            m in dim(), n in dim(), k in dim(), seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Zero padding flags as many panels as NaN padding does.
            // `g·w` scans its gradient's lanes for zeros; `gᵀ·x` scans
            // `x`'s lanes for non-finite values where `g` holds a zero, so
            // one of each is planted and neither count can be 0.
            let (mut gz, w) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
            let mut xi = matrix(&mut rng, m, n);
            (gz[0], xi[0]) = (0.0, f32::INFINITY);
            let hits = |pad: f32, product: &dyn Fn()| {
                SCAN_HITS.set(0);
                with_padding(pad, product);
                SCAN_HITS.get()
            };
            let g_w_scan = || {
                g_w(&Panels::from_mat(mat(&gz, m, k)), mat(&w, k, n));
            };
            let gt_x_scan = || {
                let xt = Panels::from_mat(mat(&xi, m, n)).transpose();
                gt_x_into(mat(&gz, m, k), &xt, 0..m, (&mut vec![0.0; k * n], Write::Store));
            };
            for (name, product) in [("g·w", &g_w_scan as &dyn Fn()), ("gᵀ·x", &gt_x_scan)] {
                let (zero, nan) = (hits(0.0, product), hits(f32::NAN, product));
                prop_assert_eq!(zero, nan, "padding reached {}'s skip-zero scan", name);
                prop_assert!(nan > 0, "{}'s scan flagged no panel", name);
            }
        }
    }

    /// A target [`on_host`] compiles for.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Isa {
        /// The baseline target.
        Baseline,
        /// The `avx2,fma` trampoline: what [`on_host`] enters on a host
        /// that has both, the only host [`isas`] offers it on.
        Avx2Fma,
    }

    /// Every target this host can run. Without AVX2 and FMA the
    /// `avx2,fma` half is skipped, and says so.
    pub(crate) fn isas() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return vec![Isa::Baseline, Isa::Avx2Fma];
        }
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| eprintln!("no AVX2 and FMA on this host: that target is skipped"));
        vec![Isa::Baseline]
    }

    /// The `[lanes × n]` result of the panel products `panel(group)` of
    /// the lane groups of `lanes`, through `isa`.
    fn gather<T: Terms>(isa: Isa, lanes: usize, n: usize, panel: impl Fn(usize) -> T) -> Vec<u32> {
        let mut out = vec![f32::NAN; lanes * n];
        for group in 0..lanes.div_ceil(LANES) {
            let r0 = group * LANES;
            let store = |c: usize, sums: &Lanes| {
                for (l, &v) in sums[..LANES.min(lanes - r0)].iter().enumerate() {
                    out[(r0 + l) * n + c] = v;
                }
            };
            on(isa, || panel_product(panel(group), n, store));
        }
        bits(&out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn both_instantiations_bit_identical_to_reference(
            m in dim(), n in dim(), k in dim(), seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (x, w) = (matrix(&mut rng, m, k), matrix(&mut rng, n, k));
            let (g, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
            let gx = matrix(&mut rng, m, n);
            let x_wt = bits(&reference::x_wt(&x, &w, m, n, k));
            let g_w = bits(&reference::g_w(&g, &b, m, k, n));
            // `gᵀ · x` with `x`'s columns as lanes is `[n × k]`: its
            // reference transposed. Where `x` holds an infinity, only the
            // terms that skip `g`'s zeros keep the reference's bits.
            let gx_inf: Vec<f32> = (gx.iter().enumerate())
                .map(|(i, &v)| if i % 7 == 3 { f32::INFINITY } else { v })
                .collect();
            let transposed = |out: Vec<f32>| {
                bits(&(0..n * k).map(|i| out[i % k * n + i / k]).collect::<Vec<_>>())
            };
            let gt_x = transposed(reference::gt_x(&g, &gx, m, k, n));
            let gt_x_inf = transposed(reference::gt_x(&g, &gx_inf, m, k, n));
            let xp = poisoned(mat(&x, m, k));
            let g_rows = poisoned(mat(&g, m, k));
            let (gx_cols, gx_inf_cols) = (columns(mat(&gx, m, n)), columns(mat(&gx_inf, m, n)));
            let b = mat(&b, k, n);
            let xt = |i: usize| Nt { a: xp.panel(i), w: &w };
            // `g · b` takes the rows of `g` as lanes, `gᵀ · x` the columns
            // of `x` and broadcasts `g`'s values: there a masked row of `g`
            // is a step whose every broadcast value is zero.
            let rows = |i: usize| g_rows.panel(i);
            let g_mat = mat(&g, m, k);
            // SiLU's input with every special value `exp` selects on.
            let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 89.0, -104.0, -103.5];
            let x_special: Vec<f32> = (x.iter().enumerate())
                .map(|(i, &v)| if i % 5 == 2 { specials[i / 5 % specials.len()] } else { v * 8.0 })
                .collect();
            let silu = nan_as_one(&reference::silu(&x_special));
            let (softmax, targets) = (bits(&reference::softmax(&x, k)), (0..m).map(|r| r * 7 % k).collect::<Vec<_>>());
            let log_p = bits(&reference::log_probs(&x, k, &targets));
            for isa in isas() {
                // Exact zeros add `±0.0` to a sum that is never `-0.0`, so
                // on finite operands the plain `Nn` keeps the bits of the
                // loop that skips them.
                let cases = [
                    ("Nt", gather(isa, m, n, xt), &x_wt),
                    ("Nn<true>", gather(isa, m, n, |i| Nn::<true> { a: rows(i), b }), &g_w),
                    ("Nn<false>", gather(isa, m, n, |i| Nn::<false> { a: rows(i), b }), &g_w),
                    (
                        "gᵀ·x NnSkipB",
                        gather(isa, n, k, |i| NnSkipB { a: gx_cols.panel(i), b: g_mat }),
                        &gt_x,
                    ),
                    (
                        "gᵀ·x Nn<false>",
                        gather(isa, n, k, |i| Nn::<false> { a: gx_cols.panel(i), b: g_mat }),
                        &gt_x,
                    ),
                    (
                        "gᵀ·x NnSkipB, x with infinities",
                        gather(isa, n, k, |i| NnSkipB { a: gx_inf_cols.panel(i), b: g_mat }),
                        &gt_x_inf,
                    ),
                ];
                for (terms, got, want) in cases {
                    prop_assert_eq!(
                        &got, want, "{:?} {} at m, n, k = {}, {}, {}", isa, terms, m, n, k
                    );
                }
                // The `exp` loops with NaN in the padding lanes: the real
                // rows are the scalar loops' bits, and the padding lanes
                // keep their NaN.
                let mut act = poisoned(mat(&x_special, m, k));
                on(isa, || silu_in_place(&mut act));
                prop_assert_eq!(nan_as_one(act.to_tensor().data()), silu.clone(), "{:?} SiLU", isa);
                prop_assert!(padding_is_nan(&act), "{:?} SiLU padding", isa);
                let probs = on(isa, || softmax_rows(&xp));
                prop_assert_eq!(bits(probs.to_tensor().data()), softmax.clone(), "{:?} softmax", isa);
                prop_assert!(padding_is_nan(&probs), "{:?} softmax padding", isa);
                let lp = on(isa, || log_probs(&xp, &targets));
                prop_assert_eq!(bits(&lp), log_p.clone(), "{:?} log-probs", isa);
            }
        }
    }

    /// [`bits`], with every NaN as one value: where two NaNs meet (SiLU
    /// of a NaN multiplies it by the NaN its `exp` made), which one's sign
    /// survives depends on operand order, and no contract fixes it.
    fn nan_as_one(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Whether every padding lane of `p`'s ragged last panel is NaN.
    fn padding_is_nan(p: &Panels) -> bool {
        let g = p.groups();
        g == 0
            || p.panel(g - 1).iter().all(|lanes| lanes[p.width(g - 1)..].iter().all(|v| v.is_nan()))
    }

    #[test]
    fn zero_gradient_never_meets_a_non_finite_weight() {
        // The skip is part of the contract, not an optimisation: 0 · ∞
        // would be NaN.
        let g = [0.0f32, 1.0, -0.0, 2.0];
        let w = [f32::INFINITY, f32::NAN, 3.0, 4.0];
        let dx = g_w(&poisoned(mat(&g, 2, 2)), mat(&w, 2, 2)).to_tensor();
        assert_eq!(dx.data(), [3.0, 4.0, 6.0, 8.0]);
        let x = [f32::NAN, f32::INFINITY, 5.0, 7.0];
        let g = [0.0f32, -0.0, 2.0, 3.0];
        let mut dw = [0.0f32; 4];
        gt_x(mat(&g, 2, 2), mat(&x, 2, 2), (&mut dw, Write::Store));
        assert_eq!(dw, [10.0, 14.0, 15.0, 21.0]);
    }
}
