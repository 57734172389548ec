//! `compute_rdp_step` against something other than itself: numerical
//! integration of the subsampled-Gaussian Rényi moment.
//!
//! One step of the Poisson-subsampled Gaussian mechanism has
//! `RDP(α) = ln A_α / (α − 1)` with
//!
//! ```text
//! A_α = E_{z∼N(0,σ²)}[ ((1 − q) + q·e^{(2z − 1)/(2σ²)})^α ]
//! ```
//!
//! (Mironov, Talwar & Zhang 2019, §3.3). The library evaluates `A_α`
//! by its binomial expansion; this test integrates the expectation
//! directly on a grid, in log space, so neither side overflows.
//!
//! The integrand is a mixture of Gaussian bumps of width σ centred at
//! `z = 0..=α`, so the grid spans `[−20σ, α + 20σ]` (the tails beyond
//! hold `e^{−200}` of the mass) at step σ/64. For an integrand this
//! smooth the trapezoid rule converges faster than any power of the
//! step; dividing by the same grid's integral of the bare density
//! cancels what discretization error is left, leaving f64 rounding.

use lazydp_privacy::compute_rdp_step;

/// `ln(e^a + e^b)`.
fn log_add(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// `ln Σ_i e^{f_i}`, summed with Neumaier compensation after shifting
/// by the maximum.
fn log_sum_exp(terms: &[f64]) -> f64 {
    let max = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for &t in terms {
        let x = (t - max).exp();
        let s = sum + x;
        carry += if sum.abs() >= x.abs() {
            (sum - s) + x
        } else {
            (x - s) + sum
        };
        sum = s;
    }
    max + (sum + carry).ln()
}

/// `RDP(α)` of one step by integrating `A_α` on the grid.
fn rdp_by_integration(sigma: f64, q: f64, alpha: u32) -> f64 {
    let a = f64::from(alpha);
    let s2 = sigma * sigma;
    let step = sigma / 64.0;
    let lo = -20.0 * sigma;
    let n = ((a + 40.0 * sigma) / step).ceil() as usize + 1;
    let (ln_q, ln_1q) = (q.ln(), (-q).ln_1p());
    let mut moment = Vec::with_capacity(n);
    let mut density = Vec::with_capacity(n);
    for i in 0..n {
        let z = lo + i as f64 * step;
        // ln φ_σ(z) up to its constant, which cancels in the ratio.
        let ln_phi = -z * z / (2.0 * s2);
        let ln_mix = log_add(ln_1q, ln_q + (2.0 * z - 1.0) / (2.0 * s2));
        moment.push(a * ln_mix + ln_phi);
        density.push(ln_phi);
    }
    (log_sum_exp(&moment) - log_sum_exp(&density)) / (a - 1.0)
}

#[test]
fn rdp_step_matches_numerical_integration() {
    for sigma in [0.5, 1.0, 2.0] {
        for q in [0.001, 0.01, 0.1] {
            for alpha in [2u32, 4, 8, 16, 32] {
                let closed = compute_rdp_step(sigma, q, alpha);
                let integrated = rdp_by_integration(sigma, q, alpha);
                assert!(
                    closed.is_finite() && integrated.is_finite() && closed > 0.0,
                    "σ {sigma} q {q} α {alpha}: {closed} vs {integrated}"
                );
                let rel = (closed - integrated).abs() / closed;
                assert!(
                    rel < 1e-6,
                    "σ {sigma} q {q} α {alpha}: closed form {closed:e}, integral {integrated:e} \
                     (relative {rel:e})"
                );
            }
        }
    }
}

/// The integral is a real check: a wrong mechanism (here, the same σ at
/// twice the sampling rate) is far outside the tolerance.
#[test]
fn integration_separates_neighbouring_mechanisms() {
    let closed = compute_rdp_step(1.0, 0.02, 8);
    let integrated = rdp_by_integration(1.0, 0.01, 8);
    assert!((closed - integrated).abs() / closed > 0.1);
}
