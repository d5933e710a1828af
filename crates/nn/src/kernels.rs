//! The one GEMM microkernel under `Tensor::matmul_{nt,nn,tn}` (so the
//! tape's forward and backward and `ShardedLm::forward_stage`) and the
//! batched decoder.
//!
//! Contract (DESIGN.md §2, "kernel contract"): every output element is
//! the sum of its terms in ascending `k`, starting from `0.0`, each term
//! a plain `mul` — exactly what the scalar loops it replaces compute, so
//! results are bit-identical to them. Speed comes only from sharing a
//! vector between *independent* outputs: [`LANES`] values of the lane
//! dimension (rows of `x`/`g`, columns of `g` for `gᵀ·x`, sequences of a
//! decode batch) are packed into `[k][LANES]` panels and [`NC`] output
//! columns are accumulated at once in registers. There is no FMA, no
//! `mul_add` and no target feature that changes a rounding (a fused
//! multiply-add rounds once where the reference rounds twice). The
//! vector width may follow the host, because lanes are independent
//! outputs: [`panel_product`] runs an `avx2` instantiation of the same
//! body where the CPU has it — the one `unsafe` block in hf-nn, guarded
//! by `is_x86_feature_detected!("avx2")` — and the baseline one
//! elsewhere. `avx2` is the only feature ever enabled. The sums of lanes
//! past the end of a ragged dimension are computed from padding and
//! never stored.

use crate::tensor::{Mat, Tensor};

/// Width of the lane dimension: two 4-wide vectors on the baseline
/// target, one 8-wide vector under `avx2`.
pub(crate) const LANES: usize = 8;
/// Output columns accumulated together: `NC × LANES` sums fill the
/// baseline target's vector registers, and each packed `a` row is
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
/// adding `+0.0` leaves it bit for bit as it was. A panel without an
/// exact zero has no term to leave out and takes the plain product.
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

/// `t + u` per step: the decoder's fused `n·Waᵀ + c·Uaᵀ` expansion adds
/// both products *before* accumulating.
#[derive(Clone, Copy)]
pub(crate) struct Sum<T, U>(pub T, pub U);

impl<T: Terms, U: Terms> Terms for Sum<T, U> {
    type Step<const N: usize> = (T::Step<N>, U::Step<N>);

    #[inline(always)]
    fn steps<const N: usize>(self, j: usize) -> impl Iterator<Item = Self::Step<N>> {
        self.0.steps::<N>(j).zip(self.1.steps::<N>(j))
    }

    #[inline(always)]
    fn term<const N: usize>((t, u): &Self::Step<N>, c: usize) -> Lanes {
        let (t, u) = (T::term::<N>(t, c), U::term::<N>(u, c));
        std::array::from_fn(|l| t[l] + u[l])
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
/// `n` output columns, through the widest instantiation of
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

/// A value for the lanes past the end of a ragged dimension. Their sums
/// are never stored, so any value would do but an exact zero, which
/// would make the panel look masked to [`skip_zero_product`].
const PADDING: f32 = 1.0;

/// Packs the rows of `x` as lanes: rows `8g..8g + 8` form panel `g`,
/// `x.cols` steps long.
fn pack_rows(x: Mat) -> Vec<Lanes> {
    let k = x.cols;
    let mut panels = vec![[PADDING; LANES]; x.rows.div_ceil(LANES) * k];
    for r in 0..x.rows {
        let panel = &mut panels[r / LANES * k..][..k];
        for (p, &v) in panel.iter_mut().zip(x.row(r)) {
            p[r % LANES] = v;
        }
    }
    panels
}

/// Packs the columns of `g` as lanes — they are already adjacent in
/// memory: columns `8g..8g + 8` form panel `g`, `g.rows` steps long.
fn pack_cols(g: Mat) -> Vec<Lanes> {
    let mut panels = vec![[PADDING; LANES]; g.cols.div_ceil(LANES) * g.rows];
    for i in 0..g.rows {
        for (group, chunk) in g.row(i).chunks(LANES).enumerate() {
            panels[group * g.rows + i][..chunk.len()].copy_from_slice(chunk);
        }
    }
    panels
}

/// Whether a product's sums replace what `out` holds or are added to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Write {
    Store,
    Add,
}

/// The `[lanes × n]` result of one `product` per `k`-step panel of
/// `panels`, written to `out`; `product` hands each output column's sums
/// to the store it is given.
fn unpacked_product<'p>(
    panels: &'p [Lanes],
    k: usize,
    (lanes, n): (usize, usize),
    (out, write): (&mut [f32], Write),
    product: impl Fn(&'p [Lanes], &mut dyn FnMut(usize, &Lanes)),
) {
    assert_eq!(out.len(), lanes * n, "product output shape");
    for r0 in (0..lanes).step_by(LANES) {
        let width = LANES.min(lanes - r0);
        let rows = &mut out[r0 * n..(r0 + width) * n];
        let panel = &panels[r0 / LANES * k..][..k];
        match write {
            Write::Store => product(panel, &mut |c, sums| {
                for (l, &v) in sums[..width].iter().enumerate() {
                    rows[l * n + c] = v;
                }
            }),
            Write::Add => product(panel, &mut |c, sums| {
                for (l, &v) in sums[..width].iter().enumerate() {
                    rows[l * n + c] += v;
                }
            }),
        }
    }
}

/// [`unpacked_product`] of [`Nn`] terms: `Σ a · b` over `b: [k × n]`
/// with the exact zeros of `a` skipped.
fn skip_zero_product(panels: &[Lanes], lanes: usize, b: Mat, out: (&mut [f32], Write)) {
    unpacked_product(panels, b.rows, (lanes, b.cols), out, |a, store| {
        if a.iter().flatten().all(|&v| v != 0.0) {
            panel_product(Nn::<false> { a, b }, b.cols, store)
        } else {
            panel_product(Nn::<true> { a, b }, b.cols, store)
        }
    })
}

/// `x · wᵀ` with `x: [m × k]`, `w: [n × k]` → `[m × n]`.
pub(crate) fn x_wt(x: Mat, w: Mat) -> Tensor {
    assert_eq!(x.cols, w.cols, "x·wᵀ inner dims");
    let mut out = Tensor::zeros(x.rows, w.rows);
    let store = (out.data_mut(), Write::Store);
    unpacked_product(&pack_rows(x), x.cols, (x.rows, w.rows), store, |a, store| {
        panel_product(Nt { a, w: w.data }, w.rows, store)
    });
    out
}

/// `g · w` with `g: [m × k]`, `w: [k × n]` → `[m × n]`, zero terms of
/// `g` skipped.
pub(crate) fn g_w(g: Mat, w: Mat) -> Tensor {
    assert_eq!(g.cols, w.rows, "g·w inner dims");
    let mut out = Tensor::zeros(g.rows, w.cols);
    skip_zero_product(&pack_rows(g), g.rows, w, (out.data_mut(), Write::Store));
    out
}

/// `gᵀ · x` with `g: [m × k]`, `x: [m × n]`, zero terms of `g` skipped,
/// stored in or added to `out: [k × n]` — a weight gradient lands where
/// it is summed.
pub(crate) fn gt_x_into(g: Mat, x: Mat, out: (&mut [f32], Write)) {
    assert_eq!(g.rows, x.rows, "gᵀ·x outer dims");
    skip_zero_product(&pack_cols(g), g.cols, x, out);
}

/// [`gt_x_into`] a new `[k × n]` tensor.
pub(crate) fn gt_x(g: Mat, x: Mat) -> Tensor {
    let mut out = Tensor::zeros(g.cols, x.cols);
    gt_x_into(g, x, (out.data_mut(), Write::Store));
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;

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

        /// `x · wᵀ + y · uᵀ` with the two products added term by term,
        /// as the decoder's scalar `n·Waᵀ + c·Uaᵀ` loop does.
        pub(crate) fn x_wt_plus_y_ut(
            (x, w): (&[f32], &[f32]),
            (y, u): (&[f32], &[f32]),
            m: usize,
            n: usize,
            k: usize,
        ) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += x[i * k + kk] * w[j * k + kk] + y[i * k + kk] * u[j * k + kk];
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
                bits(x_wt(mat(&x, m, k), mat(&w, n, k)).data()),
                bits(&reference::x_wt(&x, &w, m, n, k)),
                "x·wᵀ at {}×{}×{}", m, n, k
            );
            let g = matrix(&mut rng, m, k);
            let w = matrix(&mut rng, k, n);
            prop_assert_eq!(
                bits(g_w(mat(&g, m, k), mat(&w, k, n)).data()),
                bits(&reference::g_w(&g, &w, m, k, n)),
                "g·w at {}×{}×{}", m, k, n
            );
            let x = matrix(&mut rng, m, n);
            let gtx = reference::gt_x(&g, &x, m, k, n);
            prop_assert_eq!(
                bits(gt_x(mat(&g, m, k), mat(&x, m, n)).data()),
                bits(&gtx),
                "gᵀ·x at {}×{}×{}", m, k, n
            );
            // In place: stored over whatever was there, then added to it.
            let mut out = vec![f32::NAN; k * n];
            gt_x_into(mat(&g, m, k), mat(&x, m, n), (&mut out, Write::Store));
            prop_assert_eq!(bits(&out), bits(&gtx), "gᵀ·x stored in place");
            let mut out = matrix(&mut rng, k, n);
            let sum: Vec<f32> = out.iter().zip(&gtx).map(|(a, b)| a + b).collect();
            gt_x_into(mat(&g, m, k), mat(&x, m, n), (&mut out, Write::Add));
            prop_assert_eq!(bits(&out), bits(&sum), "gᵀ·x added in place");
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
            let (y, u) = (matrix(&mut rng, m, k), matrix(&mut rng, n, k));
            let (g, b) = (matrix(&mut rng, m, k), matrix(&mut rng, k, n));
            let gx = matrix(&mut rng, m, n);
            let x_wt = bits(&reference::x_wt(&x, &w, m, n, k));
            let sum = bits(&reference::x_wt_plus_y_ut((&x, &w), (&y, &u), m, n, k));
            let g_w = bits(&reference::g_w(&g, &b, m, k, n));
            let gt_x = bits(&reference::gt_x(&g, &gx, m, k, n));
            let (xp, yp) = (pack_rows(mat(&x, m, k)), pack_rows(mat(&y, m, k)));
            let (g_rows, g_cols) = (pack_rows(mat(&g, m, k)), pack_cols(mat(&g, m, k)));
            let (b, gx) = (mat(&b, k, n), mat(&gx, m, n));
            let xt = |i: usize| Nt { a: &xp[i * k..][..k], w: &w };
            let yt = |i: usize| Nt { a: &yp[i * k..][..k], w: &u };
            // `g · b` takes the rows of `g` as lanes, `gᵀ · x` its columns:
            // there a masked row of `g` is a step with every lane zero.
            let rows = |i: usize| &g_rows[i * k..][..k];
            let cols = |i: usize| &g_cols[i * m..][..m];
            for isa in isas() {
                // Exact zeros add `±0.0` to a sum that is never `-0.0`, so
                // on finite operands the plain `Nn` keeps the bits of the
                // loop that skips them.
                let cases = [
                    ("Nt", gather(isa, m, n, xt), &x_wt),
                    ("Sum<Nt, Nt>", gather(isa, m, n, |i| Sum(xt(i), yt(i))), &sum),
                    ("Nn<true>", gather(isa, m, n, |i| Nn::<true> { a: rows(i), b }), &g_w),
                    ("Nn<false>", gather(isa, m, n, |i| Nn::<false> { a: rows(i), b }), &g_w),
                    (
                        "gᵀ·x Nn<true>",
                        gather(isa, k, n, |i| Nn::<true> { a: cols(i), b: gx }),
                        &gt_x,
                    ),
                    (
                        "gᵀ·x Nn<false>",
                        gather(isa, k, n, |i| Nn::<false> { a: cols(i), b: gx }),
                        &gt_x,
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
        assert_eq!(g_w(mat(&g, 2, 2), mat(&w, 2, 2)).data(), [3.0, 4.0, 6.0, 8.0]);
        let x = [f32::NAN, f32::INFINITY, 5.0, 7.0];
        let g = [0.0f32, -0.0, 2.0, 3.0];
        assert_eq!(gt_x(mat(&g, 2, 2), mat(&x, 2, 2)).data(), [10.0, 14.0, 15.0, 21.0]);
    }
}
