//! `e^x` in `f32`, the one `exp` of hf-nn.
//!
//! Every `e^x` in hf-nn is [`exp`]: SiLU's `σ` in the tape, the stage
//! forward and both decoders, `softmax_rows` (the log-prob gather and the
//! entropy), `tape::log_probs`, the PPO ratio, `token_log_prob`,
//! `sample_softmax` and [`crate::sum_exp`], which the `tp_inference`
//! log-softmax in hf-rlhf calls.
//!
//! It is a port of glibc's `expf` as its FMA variant computes it
//! (`__expf_fma`, glibc 2.28 onward; the ifunc picks it on a CPU with FMA
//! and AVX2), step for step: `kd = fma(N/ln 2, x, 1.5·2^52)`,
//! `r = fma(N/ln 2, x, −kd)` with `N = 32`, so `x·N/ln 2 = k + r`;
//! `2^(k/N)` from a 32-entry table and `2^(r/N)` by a cubic in `r` with
//! two fused steps, all in `f64`, rounded once to `f32`. Each `mul_add`
//! here is a fused multiply-add glibc's FMA build makes, and no other
//! operation fuses. The constants are glibc's `__exp2f_data`.
//!
//! The special values are selected with bit masks, not branched to: the
//! input is clamped into the table's range first, and overflow (`+∞`
//! above `ln 2^128`), underflow (`0` below `ln 2^-150`, `2^-149` below
//! `ln 2^-149`) and NaN (`x + x`) replace the result after. With a
//! branch, LLVM sank the table lookup into one arm and no loop of it
//! vectorised; without one, a loop of it inside
//! [`crate::kernels::on_host`] is two 4-wide `f64` vectors per eight
//! lanes, the table read by scalar loads (LLVM does not emit gathers for
//! this target). Outside `on_host` a `mul_add` is a call to libm's
//! `fma`, which rounds the same.
//!
//! * **What is checked.** On all `2^32` inputs the port is `f32::exp` bit
//!   for bit on an x86-64 glibc host with FMA, NaN payloads included
//!   (`exp_is_libm_on_every_input`, `#[ignore]`d, ~1 min in release, its
//!   own CI step); a strided sweep of 1 M patterns and every pattern
//!   within 64 ulps of each threshold, `±0`, `±∞`, the subnormal edge and
//!   the NaNs runs in the tier of unit tests, through both targets and as
//!   a scalar call. Both say so and pass where libm is not that function.
//!   The exhaustive test tells a fused `r` from an unfused one (2 inputs
//!   differ); it cannot tell the cubic's last step fused from unfused,
//!   which rounds to the same `f32` on every input.
//! * **What "every host computes the same bits" means.** Before the port
//!   hf-nn called the host's `expf`: glibc's non-FMA build differs from
//!   the FMA one on 2 of the `2^32` inputs (`x = 32.564632` and
//!   `−63.09946`, 1 ulp each; the same two an unfused `r` gives), and
//!   other libms differ more. The port is IEEE arithmetic only (`mul_add`
//!   rounds once on every target, an instruction or libm's `fma`), so
//!   `exp`, like every product, gives the same bits on every host. `ln`
//!   (log-probs and the entropy's `ln p`) and the `tp_inference` branch's
//!   `z.ln()` still call the host's `logf`: the claim holds for
//!   everything but those.
//! * **What it costs.** In `on_host` a sigmoid over the port reads about
//!   3 ns a value against 5.4 ns through libm, and the GRPO actor's
//!   forward SiLU fell from 256 to 205 ms per 40 passes (its two copies,
//!   not its `exp`, are now most of it). Outside `on_host` a `mul_add` is
//!   a call to libm's `fma` and the port costs ~27 ns a value, five times
//!   libm's: so no caller outside hf-nn gets the scalar function, only
//!   `sum_exp`, which runs its loop inside.

/// `2^(i/N)` as bits, less `i << 47`: `T[k % N] + (k << 47)` is the bits
/// of `2^(k/N)` for an integer `|k| < 150·N`.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `N / ln 2`.
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2^52`: adding it rounds to an integer, ties to even.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic's coefficients, highest power first, scaled by `N`.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// Above `ln(2^128)`: `+∞`.
const OVERFLOW: f32 = f32::from_bits(0x42b17217);
/// Below `ln(2^-150)`: `0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);
/// Below `ln(2^-149)` (and not below [`UNDERFLOW`]): `2^-149`.
const MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce8ecf);

/// `e^x`, bit for bit glibc's `__expf_fma`.
#[inline(always)]
pub(crate) fn exp(x: f32) -> f32 {
    // Inside the table's range; every special value lies outside it, and
    // a NaN, which the clamp keeps, is replaced below.
    let xd = f64::from(x.clamp(-104.0, 89.0));
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C[0].mul_add(r, C[1]);
    let y = C[2].mul_add(r, 1.0);
    let y = (z.mul_add(r * r, y) * s) as f32;
    // Later picks win; only underflow's two ranges overlap.
    let y = pick(x.is_nan(), x + x, y);
    let y = pick(x < MAY_UNDERFLOW, f32::from_bits(1), y);
    let y = pick(x < UNDERFLOW, 0.0, y);
    pick(x > OVERFLOW, f32::INFINITY, y)
}

/// `if c { a } else { b }` as bit operations: no branch for LLVM to sink
/// `b`'s computation into, so a loop of [`exp`] vectorises.
#[inline(always)]
fn pick(c: bool, a: f32, b: f32) -> f32 {
    let mask = u32::from(c).wrapping_neg();
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::map_in_place;
    use crate::kernels::tests::{isas, on, Isa};

    /// Whether `f32::exp` here is glibc's FMA variant, the oracle: x86-64
    /// glibc on a CPU with FMA and AVX2, where its ifunc picks
    /// `__expf_fma`. Elsewhere a libm comparison is skipped, and says so.
    fn libm_is_the_oracle() -> bool {
        #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
        if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2")
        {
            return true;
        }
        eprintln!(
            "f32::exp is not glibc's __expf_fma on this host: the libm comparison is skipped"
        );
        false
    }

    /// The inputs of `bits` whose `exp` differs from `f32::exp`'s: the
    /// whole slice as one lane loop compiled for `isa`, or each value
    /// alone outside any.
    fn mismatches(isa: Isa, bits: &[u32]) -> Vec<(u32, u32, u32)> {
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut lanes = xs.clone();
        on(isa, || map_in_place(&mut lanes, exp));
        let alone = xs.iter().map(|&x| exp(x));
        (xs.iter().zip(lanes).zip(alone))
            .filter_map(|((x, lane), alone)| {
                let want = x.exp().to_bits();
                (lane.to_bits() != want || alone.to_bits() != want).then_some((
                    x.to_bits(),
                    lane.to_bits(),
                    want,
                ))
            })
            .collect()
    }

    /// Every bit pattern within ±64 ulps of `centre`, wrapping.
    fn around(centre: u32) -> impl Iterator<Item = u32> {
        (0..=128u32).map(move |d| centre.wrapping_add(d).wrapping_sub(64))
    }

    #[test]
    fn exp_is_libm_on_a_sweep_and_around_every_edge() {
        if !libm_is_the_oracle() {
            return;
        }
        // A strided sweep of all 2^32 patterns (an odd stride walks every
        // exponent and many mantissas), and every pattern near a special
        // value or a threshold.
        let mut bits: Vec<u32> = (0..1u64 << 32).step_by(4099).map(|b| b as u32).collect();
        let edges = [
            OVERFLOW.to_bits(),
            UNDERFLOW.to_bits(),
            MAY_UNDERFLOW.to_bits(),
            0x0000_0000, // +0 and the smallest subnormals
            0x8000_0000, // -0
            0x0080_0000, // the smallest normal
            0x8080_0000,
            0x7f80_0000, // +∞, the largest finite, the first NaNs
            0xff80_0000,
            0x7fc0_0000, // quiet NaNs
            0xffc0_0000,
            0x7fff_ffff, // the NaNs with every payload bit set
            0xffff_ffff,
        ];
        bits.extend(edges.into_iter().flat_map(around));
        for isa in isas() {
            let bad = mismatches(isa, &bits);
            assert!(
                bad.is_empty(),
                "{isa:?}: {} of {} differ, first (x, got, want) {:x?}",
                bad.len(),
                bits.len(),
                &bad[..bad.len().min(8)]
            );
        }
    }

    /// All 2^32 inputs through the lane loop the host runs (~1 min in
    /// release): `cargo test -p hf-nn --release -- --ignored exp_is_libm`.
    #[test]
    #[ignore = "exhaustive: 2^32 inputs, run in release"]
    fn exp_is_libm_on_every_input() {
        if !libm_is_the_oracle() {
            return;
        }
        let (mut bad, mut first) = (0u64, Vec::new());
        let mut chunk = vec![0u32; 1 << 16];
        for start in (0..1u64 << 32).step_by(chunk.len()) {
            for (i, b) in chunk.iter_mut().enumerate() {
                *b = (start + i as u64) as u32;
            }
            let xs: Vec<f32> = chunk.iter().map(|&b| f32::from_bits(b)).collect();
            let mut lanes = xs.clone();
            map_in_place(&mut lanes, exp);
            for (x, y) in xs.iter().zip(&lanes) {
                if y.to_bits() != x.exp().to_bits() {
                    bad += 1;
                    if first.len() < 8 {
                        first.push(x.to_bits());
                    }
                }
            }
        }
        assert_eq!(bad, 0, "inputs whose exp differs from libm's, first {first:x?}");
    }
}
