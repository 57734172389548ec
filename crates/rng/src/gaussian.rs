//! Box–Muller Gaussian sampling — the paper's noise-sampling kernel.
//!
//! PyTorch's `torch.normal()` (the kernel the paper characterizes in §4.3)
//! is a Box–Muller transform: per generated vector it executes an AVX
//! load, ~101 AVX trigonometric/logarithmic/other compute instructions,
//! and an AVX store, making it strongly *compute-bound* (Fig. 6: 215
//! GFLOPS effective, 81% of peak). This module implements the same
//! transform as one lane-wise `f32` body, [`pair`], and exports the
//! instruction-count constants that `lazydp-sysmodel` uses to model the
//! kernel at paper scale.
//!
//! [`pair`] is built only from IEEE correctly-rounded operations
//! (`+ − × ÷ √`, exact integer→float conversions, bit casts) with fixed
//! polynomials for `ln` and `sin`/`cos` — no libm call. Two loops apply it,
//! and LLVM autovectorizes both: the counter-based noise of every DP
//! kernel hashes each pair's two counters and transforms them in one fused
//! loop body (`crate::counter`), and the sequential generators' fills run
//! it over fixed 16-pair blocks ([`fill_standard_normal`]). Because each
//! operation has exactly one correct result, the vector lanes, the scalar
//! tails and a build for any other x86-64 level all produce the same
//! noise bits (pinned by `known_answer_bits`).

use crate::prng::Prng;

/// AVX compute instructions Box–Muller spends per 8-wide vector of
/// outputs, as measured by the paper (§4.3: "101 AVX compute
/// instructions for trigonometric/logarithmic/other operations").
pub const BOX_MULLER_AVX_OPS_PER_VECTOR: u32 = 101;

/// Lanes per AVX vector for f32 (AVX2: 256-bit / 32-bit).
pub const AVX_F32_LANES: u32 = 8;

/// Compute cost of the *noisy gradient update* stream kernel per loaded
/// element: one multiply by the learning rate and one add into the weight
/// (§4.3: "requiring only two computations for each loaded data element").
pub const UPDATE_OPS_PER_ELEMENT: u32 = 2;

/// One Box–Muller pair from two raw 64-bit draws: `(r cos θ, r sin θ)`
/// with `r = √(−2 ln u1)`, `u1 = ((a >> 11) + 1) · 2⁻⁵³ ∈ (0, 1]`, and
/// `θ = 2π · (b >> 37) · 2⁻²⁷`.
///
/// Every Gaussian draw of the workspace goes through this one body. It
/// uses only correctly-rounded operations, so its bits do not depend on
/// the build or on how many lanes run it at once. `u1 = 1` gives exactly
/// zero; the smallest `u1`, `2⁻⁵³`, gives the largest radius, `8.5717`.
#[inline(always)]
#[must_use]
pub fn pair(a: u64, b: u64) -> (f32, f32) {
    let r = radius(a);
    let (cos, sin) = cos_sin(b);
    (r * cos, r * sin)
}

/// `√(−2 ln u1)` for `u1 = m · 2⁻⁵³`, `m = (a >> 11) + 1 ≤ 2⁵³` (exact as
/// an `f64`). Writing `m = 2ᵏ · f` with `f ∈ [√½, √2)` gives
/// `−ln u1 = (53 − k) ln 2 − ln f`, and `ln f = 2 atanh(s / (2 + s))` with
/// `s = f − 1` (exact) is a short odd series in `f32`: its first omitted
/// term is below 2⁻²⁶ relative, and `s` near 0 keeps `u1` near 1 accurate.
#[inline(always)]
fn radius(a: u64) -> f32 {
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    let m = ((a >> 11) + 1) as i64 as f64;
    // Moves the exponent step from 2 to √2 (the musl `log` reduction).
    let bits = m.to_bits() + (ONE - SQRT_HALF);
    let k = (bits >> 52) as i32 - 1023;
    let f = f64::from_bits((bits & ((1 << 52) - 1)) + SQRT_HALF);
    let s = (f - 1.0) as f32;
    let u = s / (2.0 + s);
    let w = u * u;
    let ln_f = u * (2.0 + w * (2.0 / 3.0 + w * (2.0 / 5.0 + w * (2.0 / 7.0 + w * (2.0 / 9.0)))));
    ((53 - k) as f32 * (2.0 * std::f32::consts::LN_2) - 2.0 * ln_f).sqrt()
}

/// `(cos θ, sin θ)` for `θ = 2π · (b >> 37) · 2⁻²⁷`: the top 3 bits pick
/// an octant, the next 24 a point `x ∈ [0, 1)` in it, and fixed
/// polynomials on `[0, π/4]` (Cephes `sinf`/`cosf`) do the rest. Odd
/// octants run backwards from their far edge (`1 − x`, exact), so every
/// octant is a swap and sign flip of the first.
#[inline(always)]
fn cos_sin(b: u64) -> (f32, f32) {
    let octant = (b >> 61) as u32;
    let x = ((b >> 37) & 0xff_ffff) as i32 as f32 * (1.0 / 16_777_216.0);
    let x = if octant & 1 == 1 { 1.0 - x } else { x };
    let phi = x * std::f32::consts::FRAC_PI_4;
    let w = phi * phi;
    let sin = phi + phi * w * (-1.666_665_4e-1 + w * (8.332_161e-3 + w * -1.951_529_6e-4));
    let cos =
        (w * w * (4.166_664_6e-2 + w * (-1.388_731_6e-3 + w * 2.443_315_7e-5)) - 0.5 * w) + 1.0;
    let (cos, sin) = if (octant + 1) & 2 == 0 {
        (cos, sin)
    } else {
        (sin, cos)
    };
    let cos_sign = ((octant + 2) & 4) << 29;
    let sin_sign = (octant & 4) << 29;
    (
        f32::from_bits(cos.to_bits() ^ cos_sign),
        f32::from_bits(sin.to_bits() ^ sin_sign),
    )
}

/// Box–Muller pairs per block of [`fill_mapped`]: the fixed array length
/// LLVM vectorizes [`pair`] over.
const BLOCK_PAIRS: usize = 16;

/// The fill kernel of the sequential generators (`Xoshiro256PlusPlus`,
/// [`GaussianSampler`]): draws raw `u64`s in stream order into blocks of
/// `2 × BLOCK_PAIRS`, runs [`pair`] over each block's fixed arrays, and
/// applies `f` to each sample as it is stored — so an affine output
/// transform costs no second sweep. The tail runs `pair` one pair at a
/// time, so a short fill does exact-size work; draw `2i` and `2i + 1`
/// always feed output pair `i`. Counter-addressed noise does not come
/// through here: its draws are pure functions of their position, so
/// `CounterNoise` hashes them inside its own pair loop with no draw
/// buffer.
#[inline]
fn fill_mapped<R: Prng>(rng: &mut R, out: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut bits = [0u64; 2 * BLOCK_PAIRS];
    let mut blocks = out.chunks_exact_mut(2 * BLOCK_PAIRS);
    for block in &mut blocks {
        for b in &mut bits {
            *b = rng.next_u64();
        }
        let mut z0 = [0.0f32; BLOCK_PAIRS];
        let mut z1 = [0.0f32; BLOCK_PAIRS];
        for ((z0, z1), ab) in z0.iter_mut().zip(&mut z1).zip(bits.chunks_exact(2)) {
            (*z0, *z1) = pair(ab[0], ab[1]);
        }
        for ((o, &z0), &z1) in block.chunks_exact_mut(2).zip(&z0).zip(&z1) {
            o[0] = f(z0);
            o[1] = f(z1);
        }
    }
    for o in blocks.into_remainder().chunks_mut(2) {
        let (z0, z1) = pair(rng.next_u64(), rng.next_u64());
        o[0] = f(z0);
        if let Some(last) = o.get_mut(1) {
            *last = f(z1);
        }
    }
}

/// Fills `out` with independent standard-normal `f32` samples using
/// Box–Muller over the supplied uniform generator, drawing in blocks (see
/// `fill_mapped`).
///
/// Consumes exactly `2 * ceil(out.len() / 2)` draws, so the stream
/// position after the call is a deterministic function of `out.len()` —
/// a property the counter-based noise sources rely on.
pub fn fill_standard_normal<R: Prng>(rng: &mut R, out: &mut [f32]) {
    fill_mapped(rng, out, |z| z);
}

/// A configured Gaussian sampler `N(mean, std²)`.
///
/// # Example
///
/// ```
/// use lazydp_rng::{GaussianSampler, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from(1);
/// let sampler = GaussianSampler::new(0.0, 2.0);
/// let mut noise = vec![0.0f32; 512];
/// sampler.fill(&mut rng, &mut noise);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSampler {
    mean: f32,
    std: f32,
}

impl GaussianSampler {
    /// Creates a sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or not finite.
    #[must_use]
    pub fn new(mean: f32, std: f32) -> Self {
        assert!(
            std.is_finite() && std >= 0.0,
            "std must be finite and >= 0, got {std}"
        );
        Self { mean, std }
    }

    /// Standard normal `N(0, 1)`.
    #[must_use]
    pub fn standard() -> Self {
        Self::new(0.0, 1.0)
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f32 {
        self.mean
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn std(&self) -> f32 {
        self.std
    }

    /// Fills `out` with samples in a single pass: the `mean + std·z`
    /// affine is folded into the Box–Muller loop. Consumes the same
    /// draws as [`fill_standard_normal`], and for `N(0, 1)` gives its
    /// exact bits.
    pub fn fill<R: Prng>(&self, rng: &mut R, out: &mut [f32]) {
        if self.mean == 0.0 && self.std == 1.0 {
            // The affine is not a bitwise no-op: it maps `-0.0` to `+0.0`.
            fill_standard_normal(rng, out);
        } else {
            let (mean, std) = (self.mean, self.std);
            fill_mapped(rng, out, move |z| mean + std * z);
        }
    }

    /// Draws a single sample (two raw draws, one [`pair`]).
    pub fn sample<R: Prng>(&self, rng: &mut R) -> f32 {
        let (z, _) = pair(rng.next_u64(), rng.next_u64());
        self.mean + self.std * z
    }
}

impl Default for GaussianSampler {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CounterNoise, RowNoise};
    use crate::prng::Xoshiro256PlusPlus;
    use crate::stats;

    /// The textbook f64 transform through libm — the reference [`pair`]
    /// is measured against. `u1 ∈ (0, 1]`, `u2 ∈ [0, 1)`.
    fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }

    /// [`box_muller`] on the uniforms [`pair`] reads from `a` and `b`.
    fn reference(a: u64, b: u64) -> (f64, f64) {
        box_muller(
            ((a >> 11) + 1) as f64 / (1u64 << 53) as f64,
            (b >> 37) as f64 / (1u64 << 27) as f64,
        )
    }

    /// `2²²` standard-normal samples from one long fill.
    fn big_sample(seed: u64) -> Vec<f64> {
        let mut buf = vec![0.0f32; 1 << 22];
        fill_standard_normal(&mut Xoshiro256PlusPlus::seed_from(seed), &mut buf);
        buf.iter().map(|&x| f64::from(x)).collect()
    }

    /// Two-sided 5σ tail probability of a normal, the significance of
    /// every distribution bound below.
    const FIVE_SIGMA_ALPHA: f64 = 5.733e-7;

    #[test]
    fn box_muller_known_values() {
        // u1 = 1 ⇒ r = 0 ⇒ both outputs zero regardless of u2.
        let (a, b) = box_muller(1.0, 0.25);
        assert!(a.abs() < 1e-12 && b.abs() < 1e-12);
        // u2 = 0 ⇒ theta = 0 ⇒ z1 = 0, z0 = r.
        let (z0, z1) = box_muller(0.5_f64, 0.0);
        assert!((z0 - (-2.0 * 0.5_f64.ln()).sqrt()).abs() < 1e-12);
        assert!(z1.abs() < 1e-12);
    }

    #[test]
    fn known_answer_bits() {
        // The first pinned noise bits: identical in debug and release and
        // under every `target-cpu` (CI runs this on each leg).
        let mut got = [0.0f32; 64];
        CounterNoise::new(1).fill_unit(0, 0, 1, &mut got);
        let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, COUNTER_KAT);
        let mut got = [0.0f32; 65];
        GaussianSampler::standard().fill(&mut Xoshiro256PlusPlus::seed_from(1), &mut got);
        let bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        assert_eq!(bits, SAMPLER_KAT);
    }

    /// `CounterNoise::new(1).fill_unit(0, 0, 1, _)`, 64 samples: 32 pairs
    /// of the fused loop's vector body.
    #[rustfmt::skip]
    const COUNTER_KAT: [u32; 64] = [
        0xbe9b_04cd, 0x3e8a_e348, 0xbdcb_deb1, 0xbfd9_1ca4, 0x3e3d_29f2, 0xbf16_8e19, 0x3f9c_9d78, 0x3f06_a923,
        0x3ea8_7234, 0x3e10_cc4f, 0x400c_0921, 0x3f18_cb96, 0xbeb6_92eb, 0xbfec_8054, 0xbde8_691a, 0xbf28_1f07,
        0xbecb_4e14, 0xbdcd_b4a2, 0xbf48_7ada, 0x3f40_7aa2, 0xbeac_c2f3, 0xc012_e28f, 0xbfbf_9dd0, 0x3f9f_9e49,
        0x3fa8_1dc9, 0xbe42_8ee8, 0x3f78_6cb2, 0xbf79_d562, 0x3f3f_3f82, 0xc022_6d35, 0x3e22_5def, 0x3f1b_f048,
        0xbe58_001a, 0xbf58_4022, 0x3f0a_4029, 0x3f5c_5ea7, 0x3ea2_8c81, 0x3ed8_cb4b, 0x3e6f_f73f, 0x3e1f_437e,
        0x3f70_4fad, 0x3f02_9322, 0x3d7f_c2e2, 0x3e3d_419f, 0xbee4_0b4c, 0x3ecd_7921, 0xbedc_0405, 0xbf17_c28c,
        0xbf9c_7743, 0xbe33_2347, 0xbfa5_d3d3, 0xbf93_be62, 0x3f35_24c9, 0x3f42_9c42, 0xbe80_3ea4, 0x3ffe_a0fa,
        0xbe15_bcde, 0x3ebc_d55b, 0x3f31_b1db, 0xbf86_51c9, 0xbf80_4494, 0xbf14_c971, 0xbf45_f3b6, 0x3ff3_5db3,
    ];

    /// `GaussianSampler::standard().fill` over `Xoshiro256PlusPlus::seed_from(1)`,
    /// 65 samples: two blocks and a one-element scalar tail.
    #[rustfmt::skip]
    const SAMPLER_KAT: [u32; 65] = [
        0xbc40_90b2, 0xbf25_60d3, 0xbd50_d93d, 0xc009_4210, 0xbfc6_42bf, 0xbf7d_5125, 0xbe24_a9a0, 0xbcc3_3a82,
        0x3fb7_edf5, 0x3fce_c52d, 0xbe67_339f, 0x3ead_989c, 0xbfe7_4552, 0x3fb4_5ed0, 0x3f9c_18f7, 0x3fe9_ecc0,
        0xbf88_7219, 0x3e3b_a8a9, 0xbe3c_2877, 0xbe6a_1f4c, 0x3ee3_ca51, 0xbfc8_ffa4, 0xbfd2_2be6, 0x3f7e_16dd,
        0xbfad_4c8d, 0xbf82_9119, 0x3fe9_f3eb, 0xbe53_c3ae, 0xbdfd_7aa0, 0xbf7c_0be1, 0xbf1a_557b, 0xbf53_12e8,
        0xbf58_ff0a, 0xbf4c_9a73, 0xbe0a_d9c1, 0x3e8c_7407, 0xbe55_423c, 0xc006_4c6b, 0xbe25_f8f6, 0xbed8_7aaf,
        0xbf9d_374f, 0x3c05_0d27, 0x3ef9_6194, 0xbfa4_effa, 0xbf60_4361, 0xbf18_f57f, 0x3e9a_7399, 0x3f6b_7c97,
        0x4004_b4f2, 0x3f4e_a05b, 0xbf32_40c1, 0xbea4_f56a, 0x3f5b_5525, 0x3fa1_eacf, 0xbfa4_d92a, 0x3dad_aec2,
        0xbdf4_15d8, 0x3fde_2e81, 0x3f97_785c, 0x3f2d_01ce, 0xbfe8_5724, 0x3ee3_405d, 0xbec0_bfe7, 0x3ee3_801b,
        0x3f0e_720f,
    ];

    #[test]
    fn pair_matches_the_f64_reference() {
        let check = |a: u64, b: u64| {
            let (z0, z1) = pair(a, b);
            let (r0, r1) = reference(a, b);
            for (z, r) in [(z0, r0), (z1, r1)] {
                let err = (f64::from(z) - r).abs();
                assert!(
                    err <= 1e-6 * r.abs().max(1.0),
                    "a {a:#x} b {b:#x}: {z} vs {r}"
                );
            }
        };
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        for _ in 0..1 << 22 {
            check(rng.next_u64(), rng.next_u64());
        }
        // Extremes: u1 at both ends, θ at every octant edge.
        for a in [0, 1 << 11, u64::MAX >> 1, u64::MAX - (1 << 11), u64::MAX] {
            for o in 0..8u64 {
                check(a, o << 61);
                check(a, (o << 61) | ((1 << 61) - 1));
            }
        }
        // u1 = 1 is exactly zero; u1 = 2⁻⁵³ is the largest radius.
        assert_eq!(pair(u64::MAX, 12345), (0.0, 0.0));
        let (r, zero) = pair(0, 0);
        assert!((r - 8.5717).abs() < 1e-4 && zero == 0.0, "r {r}");
    }

    #[test]
    fn tail_mass_beyond_four_sigma() {
        // P(|z| > 4) = 6.334e-5: where a polynomial `ln` would show.
        let n = 1usize << 22;
        let beyond = big_sample(17).iter().filter(|z| z.abs() > 4.0).count() as f64;
        let expect = 6.334e-5 * n as f64;
        assert!(
            (beyond - expect).abs() <= 5.0 * expect.sqrt(),
            "{beyond} vs {expect}"
        );
    }

    #[test]
    fn standard_normal_moments_and_ks() {
        let mut xs = big_sample(7);
        let n = xs.len() as f64;
        let (mean, var) = stats::mean_var(&xs);
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "var {var}");
        let skew = stats::skewness(&xs);
        assert!(skew.abs() < 5.0 * (6.0 / n).sqrt(), "skewness {skew}");
        let kurt = stats::excess_kurtosis(&xs);
        assert!(
            kurt.abs() < 5.0 * (24.0 / n).sqrt(),
            "excess kurtosis {kurt}"
        );
        let ks = stats::ks_statistic_normal(&mut xs, 0.0, 1.0);
        assert!(
            ks < stats::ks_critical(xs.len(), FIVE_SIGMA_ALPHA),
            "ks {ks}"
        );
    }

    #[test]
    fn counter_stream_fill_unit_is_bitwise_stable_under_batching() {
        // 129 = 64 pairs (eight 8-pair vector steps of the fused loop on
        // an AVX-512 build) + a 1-element tail: every element must be
        // `pair` over the same counters taken one pair at a time.
        let mut got = vec![0.0f32; 129];
        let mut noise = CounterNoise::new(99);
        noise.fill_unit(3, 17, 5, &mut got);
        let mut stream = noise.stream_for(3, 17, 5);
        for (i, g) in got.chunks(2).enumerate() {
            let (z0, z1) = pair(stream.next_u64(), stream.next_u64());
            let want = [z0.to_bits(), z1.to_bits()];
            let g: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
            assert_eq!(g, want[..g.len()], "pair {i}");
        }
    }

    #[test]
    fn odd_length_fill_consumes_deterministic_uniforms() {
        for len in [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 1023] {
            let mut a = Xoshiro256PlusPlus::seed_from(3);
            let mut b = Xoshiro256PlusPlus::seed_from(3);
            fill_standard_normal(&mut a, &mut vec![0.0f32; len]);
            for _ in 0..len.div_ceil(2) * 2 {
                let _ = b.next_u64();
            }
            assert_eq!(a.next_u64(), b.next_u64(), "len {len}");
        }
    }

    #[test]
    fn sampler_scales_mean_and_std() {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let sampler = GaussianSampler::new(3.0, 0.5);
        let mut buf = vec![0.0f32; 50_000];
        sampler.fill(&mut rng, &mut buf);
        let xs: Vec<f64> = buf.iter().map(|&x| f64::from(x)).collect();
        let (mean, var) = stats::mean_var(&xs);
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.01, "var {var}");
    }

    #[test]
    #[should_panic(expected = "std must be finite")]
    fn sampler_rejects_negative_std() {
        let _ = GaussianSampler::new(0.0, -1.0);
    }

    #[test]
    fn sum_of_gaussians_matches_aggregated_distribution() {
        // Theorem 5.1 of the paper at the sampler level: the sum of n
        // independent N(0, σ²) draws has the distribution N(0, n·σ²).
        let n = 16usize;
        let sigma = 0.7f32;
        let mut rng = Xoshiro256PlusPlus::seed_from(31);
        let per_step = GaussianSampler::new(0.0, sigma);
        let mut sums: Vec<f64> = Vec::with_capacity(20_000);
        for _ in 0..20_000 {
            let mut acc = 0.0f64;
            for _ in 0..n {
                acc += f64::from(per_step.sample(&mut rng));
            }
            sums.push(acc);
        }
        let (mean, var) = stats::mean_var(&sums);
        let expect_var = f64::from(sigma) * f64::from(sigma) * n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!(
            (var - expect_var).abs() / expect_var < 0.05,
            "var {var} vs {expect_var}"
        );
        let ks = stats::ks_statistic_normal(&mut sums, 0.0, expect_var.sqrt());
        assert!(ks < stats::ks_critical(sums.len(), 0.001), "ks {ks}");
    }
}
