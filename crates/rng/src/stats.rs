//! Statistical test kit used to validate noise distributions.
//!
//! LazyDP's aggregated noise sampling (ANS, paper Theorem 5.1) replaces a
//! sum of `n` Gaussian draws by a single draw with `n×` the variance. That
//! replacement is *distributional*, not pointwise, so the test suite
//! verifies it with moment checks and one-sample Kolmogorov–Smirnov tests
//! against the normal CDF. All routines are plain `f64` and deterministic.

/// Sample mean and (population) variance of `xs`.
///
/// Returns `(0.0, 0.0)` for an empty slice.
#[must_use]
pub fn mean_var(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mut total = 0.0f64;
    for &x in xs {
        total += x;
    }
    let mean = total / n;
    let mut sq = 0.0f64;
    for &x in xs {
        sq += (x - mean) * (x - mean);
    }
    (mean, sq / n)
}

/// Sample skewness (third standardized moment). Zero for symmetric data.
#[must_use]
pub fn skewness(xs: &[f64]) -> f64 {
    let (mean, var) = mean_var(xs);
    if var <= 0.0 || xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mut m3 = 0.0f64;
    for &x in xs {
        m3 += (x - mean).powi(3);
    }
    m3 / n / var.powf(1.5)
}

/// Excess kurtosis (fourth standardized moment minus 3). Zero for a
/// normal distribution.
#[must_use]
pub fn excess_kurtosis(xs: &[f64]) -> f64 {
    let (mean, var) = mean_var(xs);
    if var <= 0.0 || xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mut m4 = 0.0f64;
    for &x in xs {
        m4 += (x - mean).powi(4);
    }
    m4 / n / (var * var) - 3.0
}

/// The error function `erf(x)`, via the Abramowitz & Stegun 7.1.26
/// rational approximation (|error| ≤ 1.5e-7, ample for KS testing).
#[must_use]
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// CDF of the normal distribution `N(mean, std²)` at `x`.
///
/// # Panics
///
/// Panics if `std <= 0`.
#[must_use]
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    assert!(std > 0.0, "std must be positive");
    0.5 * (1.0 + erf((x - mean) / (std * std::f64::consts::SQRT_2)))
}

/// One-sample Kolmogorov–Smirnov statistic of `xs` against
/// `N(mean, std²)`. Sorts `xs` in place.
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN, or `std <= 0`.
#[must_use]
pub fn ks_statistic_normal(xs: &mut [f64], mean: f64, std: f64) -> f64 {
    assert!(!xs.is_empty(), "ks test needs data");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in KS input"));
    let n = xs.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let cdf = normal_cdf(x, mean, std);
        let lo = i as f64 / n;
        let hi = (i as f64 + 1.0) / n;
        d = d.max((cdf - lo).abs()).max((hi - cdf).abs());
    }
    d
}

/// Approximate KS critical value at significance `alpha` for sample size
/// `n`: the asymptotic formula `c(α)·√(1/n)` with the closed form
/// `c(α) = √(−ln(α/2)/2)` (1.224 / 1.358 / 1.628 / 1.949 at
/// α = 0.1 / 0.05 / 0.01 / 0.001), valid for `n ≳ 35`.
///
/// # Panics
///
/// Panics unless `0 < alpha < 1`.
#[must_use]
pub fn ks_critical(n: usize, alpha: f64) -> f64 {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "alpha must be in (0, 1), got {alpha}"
    );
    (-(alpha / 2.0).ln() / 2.0).sqrt() / (n as f64).sqrt()
}

/// Two-sample mean z-score: how many standard errors apart the means of
/// `a` and `b` are. Used for quick A/B equivalence checks between noise
/// paths.
#[must_use]
pub fn mean_z_score(a: &[f64], b: &[f64]) -> f64 {
    let (ma, va) = mean_var(a);
    let (mb, vb) = mean_var(b);
    let se = (va / a.len() as f64 + vb / b.len() as f64).sqrt();
    if se == 0.0 {
        0.0
    } else {
        (ma - mb) / se
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::{Prng, Xoshiro256PlusPlus};

    #[test]
    fn mean_var_basics() {
        let (m, v) = mean_var(&[1.0, 2.0, 3.0, 4.0]);
        assert!((m - 2.5).abs() < 1e-12);
        assert!((v - 1.25).abs() < 1e-12);
        assert_eq!(mean_var(&[]), (0.0, 0.0));
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from tables (A&S): erf(0)=0, erf(1)=0.8427008,
        // erf(2)=0.9953223, erf(-1)=-erf(1).
        assert!(erf(0.0).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-5);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-5);
        assert!((erf(-1.0) + erf(1.0)).abs() < 1e-12);
    }

    #[test]
    fn normal_cdf_symmetry_and_tails() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(-8.0, 0.0, 1.0) < 1e-9);
        assert!(normal_cdf(8.0, 0.0, 1.0) > 1.0 - 1e-9);
        // Location/scale shift.
        assert!((normal_cdf(5.0, 5.0, 3.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ks_accepts_uniform_transformed_normals_rejects_shifted() {
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        let mut xs: Vec<f64> = Vec::with_capacity(20_000);
        let mut buf = vec![0.0f32; 20_000];
        crate::gaussian::fill_standard_normal(&mut rng, &mut buf);
        xs.extend(buf.iter().map(|&x| f64::from(x)));
        let mut copy = xs.clone();
        let d_ok = ks_statistic_normal(&mut copy, 0.0, 1.0);
        assert!(d_ok < ks_critical(xs.len(), 0.001), "d_ok {d_ok}");
        let mut shifted: Vec<f64> = xs.iter().map(|x| x + 0.15).collect();
        let d_bad = ks_statistic_normal(&mut shifted, 0.0, 1.0);
        assert!(d_bad > ks_critical(xs.len(), 0.001), "d_bad {d_bad}");
    }

    #[test]
    fn skew_kurtosis_of_uniform() {
        // Uniform on [0,1): skewness 0, excess kurtosis -1.2.
        let mut rng = Xoshiro256PlusPlus::seed_from(23);
        let xs: Vec<f64> = (0..100_000).map(|_| rng.next_f64()).collect();
        assert!(skewness(&xs).abs() < 0.03);
        assert!((excess_kurtosis(&xs) + 1.2).abs() < 0.05);
    }

    #[test]
    fn mean_z_score_detects_shift() {
        let a: Vec<f64> = (0..10_000).map(|i| f64::from(i % 7)).collect();
        let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        assert!(mean_z_score(&a, &a).abs() < 1e-9);
        assert!(mean_z_score(&a, &b).abs() > 10.0);
    }

    #[test]
    fn ks_critical_decreases_with_n() {
        assert!(ks_critical(100, 0.05) > ks_critical(10_000, 0.05));
        assert!(ks_critical(1000, 0.1) < ks_critical(1000, 0.001));
    }

    #[test]
    fn ks_critical_follows_alpha_between_table_values() {
        for (alpha, c) in [(0.1, 1.224), (0.05, 1.358), (0.01, 1.628), (0.001, 1.949)] {
            assert!((ks_critical(1, alpha) - c).abs() < 5e-4, "alpha {alpha}");
        }
        // An untabulated α must not fall back to the loosest threshold.
        let c = ks_critical(1, 0.02);
        assert!(
            ks_critical(1, 0.05) < c && c < ks_critical(1, 0.01),
            "c {c}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn ks_critical_rejects_alpha_outside_the_unit_interval() {
        let _ = ks_critical(100, 1.0);
    }
}
