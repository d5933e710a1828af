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
//! lanes are `x`'s columns, transposes `x`'s rows and reads `g`'s out
//! row-major once a call, and stores each row of the row-major flat
//! gradient a vector at a time. There
//! is no FMA, no `mul_add` and no target feature
//! that changes a rounding (a fused multiply-add rounds once where the
//! reference rounds twice). The vector width may follow the host,
//! because lanes are independent outputs: [`panel_product`] runs an
//! `avx2` instantiation of the same body where the CPU has it — the one
//! `unsafe` block in hf-nn, guarded by `is_x86_feature_detected!("avx2")`
//! — and the baseline one elsewhere. `avx2` is the only feature ever
//! enabled. The sums of padding lanes are computed and never read.

use std::cell::OnceCell;

use crate::panels::Panels;
use crate::tensor::Mat;

/// Width of the lane dimension: two 4-wide vectors on the baseline
/// target, one 8-wide vector under `avx2`.
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
        // line in the `avx2` instantiation, whose inner loop then checks
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
/// `n` output columns, in ascending order, through the widest instantiation of
/// [`panel_body`] the running CPU has. Every product in hf-nn comes
/// through here.
#[inline(always)]
pub(crate) fn panel_product<T: Terms>(terms: T, n: usize, store: impl FnMut(usize, &Lanes)) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `panel_product_avx2` only requires the `avx2` target
        // feature, and the running CPU was detected to have it above.
        return unsafe { panel_product_avx2(terms, n, store) };
    }
    panel_body(terms, n, store)
}

/// [`panel_body`] compiled for `avx2`: one 8-wide vector per panel row
/// instead of two 4-wide ones; the same `mul`s and `add`s in the same
/// order, so the same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panel_product_avx2<T: Terms>(terms: T, n: usize, store: impl FnMut(usize, &Lanes)) {
    panel_body(terms, n, store)
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

/// Which lanes of a panel hold a value `hit` is true of, over the
/// panel's steps — lane by lane and without an early exit, which
/// vectorises: a scan value by value cost as much as a product's
/// arithmetic.
#[inline(always)]
fn lane_hits(panel: &[Lanes], hit: impl Fn(f32) -> bool) -> [u32; LANES] {
    panel.iter().fold([0u32; LANES], |mut hits, lanes| {
        for (h, &v) in hits.iter_mut().zip(lanes) {
            *h |= u32::from(hit(v));
        }
        hits
    })
}

/// Whether any of `values` is one `hit` is true of: [`lane_hits`] over
/// a flat slice.
fn any_hit(values: &[f32], hit: impl Fn(f32) -> bool + Copy) -> bool {
    let (steps, rest) = values.as_chunks::<LANES>();
    lane_hits(steps, hit).contains(&1) || rest.iter().any(|&v| hit(v))
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
    let zero = lane_hits(a, |v| v == 0.0)[..width].contains(&1);
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

/// `gᵀ · x` over rows `rows` of `g: [m × k]` and `x: [m × n]`, both in
/// panels, zero terms of `g` skipped, stored in or added to the
/// row-major `out: [k × n]` — a weight gradient lands where it is
/// summed. The lanes are `x`'s columns, so `x`'s rows are transposed
/// once and `g`'s read out row-major once, and each output row's
/// [`LANES`] sums are one vector of `out`. The zero terms are `g`'s, the
/// broadcast operand: a panel skips them ([`NnSkipB`]) only where a zero
/// in `g`'s rows meets a non-finite value in the panel's real lanes.
pub(crate) fn gt_x_into(
    g: &Panels,
    x: &Panels,
    rows: std::ops::Range<usize>,
    (out, write): (&mut [f32], Write),
) {
    let (k, n) = (g.cols(), x.cols());
    assert_eq!((g.rows(), out.len()), (x.rows(), k * n), "gᵀ·x shapes");
    let gr = g.rows_major(rows.clone());
    let b = Mat { data: &gr, rows: rows.len(), cols: k };
    let zero = any_hit(&gr, |v| v == 0.0);
    let xt = x.transpose_rows(rows);
    for p in 0..xt.groups() {
        let (a, width, j0) = (xt.panel(p), xt.width(p), p * LANES);
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
        let masked = zero && lane_hits(a, |v| !v.is_finite())[..width].contains(&1);
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
    use crate::panels::with_padding;

    /// The scalar loops the kernels replaced, kept as the reference the
    /// kernels must match bit for bit.
    pub(crate) mod reference {
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
    }

    /// The lanes of `m`'s rows, padded with `f32::NAN`: a padding lane
    /// that reached a stored sum would show.
    fn poisoned(m: Mat) -> Panels {
        with_padding(f32::NAN, || Panels::from_mat(m))
    }

    /// The row-major `[k × n]` of [`gt_x_into`] over all rows of `g`
    /// and `x`, written over `out`.
    fn gt_x(g: Mat, x: Mat, out: (&mut [f32], Write)) {
        gt_x_into(&poisoned(g), &poisoned(x), 0..g.rows, out);
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
            // A window of rows, starting anywhere in a panel.
            let (r0, r1) = (m / 3, m - m / 4);
            let part = |v: &[f32], cols: usize| v[r0 * cols..r1 * cols].to_vec();
            let want = reference::gt_x(&part(&g, k), &part(&x, n), r1 - r0, k, n);
            let mut out = vec![f32::NAN; k * n];
            let (gp, xp) = (poisoned(mat(&g, m, k)), poisoned(mat(&x, m, n)));
            gt_x_into(&gp, &xp, r0..r1, (&mut out, Write::Store));
            prop_assert_eq!(bits(&out), bits(&want), "gᵀ·x over rows {}..{}", r0, r1);
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
                let (gp, xp) = (Panels::from_mat(mat(&gz, m, k)), Panels::from_mat(mat(&xi, m, n)));
                gt_x_into(&gp, &xp, 0..m, (&mut vec![0.0; k * n], Write::Store));
            };
            for (name, product) in [("g·w", &g_w_scan as &dyn Fn()), ("gᵀ·x", &gt_x_scan)] {
                let (zero, nan) = (hits(0.0, product), hits(f32::NAN, product));
                prop_assert_eq!(zero, nan, "padding reached {}'s skip-zero scan", name);
                prop_assert!(nan > 0, "{}'s scan flagged no panel", name);
            }
        }
    }

    /// An instantiation of the panel product.
    #[derive(Debug, Clone, Copy)]
    enum Isa {
        /// [`panel_body`] compiled for the baseline target.
        Baseline,
        /// The `avx2` one: what [`panel_product`] enters on a host that
        /// has AVX2, the only host [`isas`] offers it on.
        Avx2,
    }

    /// Every instantiation this host can run. Without AVX2 the `avx2`
    /// half is skipped, and says so.
    fn isas() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return vec![Isa::Baseline, Isa::Avx2];
        }
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| eprintln!("no AVX2 on this host: the avx2 instantiation is skipped"));
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
            match isa {
                Isa::Baseline => panel_body(panel(group), n, store),
                Isa::Avx2 => panel_product(panel(group), n, store),
            }
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
            let x_cols = |x: &[f32]| {
                with_padding(f32::NAN, || Panels::from_mat(mat(x, m, n)).transpose_rows(0..m))
            };
            let (gx_cols, gx_inf_cols) = (x_cols(&gx), x_cols(&gx_inf));
            let b = mat(&b, k, n);
            let xt = |i: usize| Nt { a: xp.panel(i), w: &w };
            // `g · b` takes the rows of `g` as lanes, `gᵀ · x` the columns
            // of `x` and broadcasts `g`'s values: there a masked row of `g`
            // is a step whose every broadcast value is zero.
            let rows = |i: usize| g_rows.panel(i);
            let g_mat = mat(&g, m, k);
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
            }
        }
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
