//! Rényi-DP of the Poisson-subsampled Gaussian mechanism.
//!
//! For an integer Rényi order α ≥ 2, sampling rate `q`, and noise
//! multiplier `σ`, one DP-SGD step satisfies (Mironov, Talwar & Zhang
//! 2019; Abadi et al. 2016, Lemma 3):
//!
//! ```text
//! RDP(α) = 1/(α−1) · ln( Σ_{k=0..α} C(α,k)·(1−q)^{α−k}·q^k·exp(k(k−1)/(2σ²)) )
//! ```
//!
//! computed here in log-space for numerical stability. RDP composes
//! additively over steps, and [`RdpAccountant`] tracks the running total
//! across a family of orders, converting to (ε, δ) on demand.

use crate::convert::rdp_to_epsilon;
use crate::mechanism::Mechanism;

/// The default family of integer Rényi orders tracked by the accountant
/// (2..=64 densely, then exponentially spaced up to 1024 — mirroring the
/// ranges Opacus/TF-Privacy search over).
#[must_use]
pub fn default_orders() -> Vec<u32> {
    let mut orders: Vec<u32> = (2..=64).collect();
    let mut o = 72u32;
    while o <= 1024 {
        orders.push(o);
        o = (o as f64 * 1.25) as u32;
    }
    orders
}

/// Log-space sum: `ln(exp(a) + exp(b))`.
fn log_add(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

/// RDP of **one** subsampled-Gaussian step at integer order `alpha`.
///
/// Special cases: `q == 0` costs nothing; `q == 1` is the plain Gaussian
/// mechanism with `RDP(α) = α/(2σ²)`.
///
/// # Panics
///
/// Panics if `alpha < 2`, `sigma <= 0`, or `q ∉ [0, 1]`.
#[must_use]
pub fn compute_rdp_step(sigma: f64, q: f64, alpha: u32) -> f64 {
    assert!(alpha >= 2, "integer RDP orders start at 2");
    assert!(sigma > 0.0, "noise multiplier must be positive");
    assert!((0.0..=1.0).contains(&q), "sampling rate must be in [0,1]");
    if q == 0.0 {
        return 0.0;
    }
    let a = f64::from(alpha);
    if (q - 1.0).abs() < 1e-15 {
        return a / (2.0 * sigma * sigma);
    }
    let ln_q = q.ln();
    let ln_1q = (-q).ln_1p();
    // log-sum-exp over k of:
    //   ln C(α,k) + (α−k)·ln(1−q) + k·ln q + k(k−1)/(2σ²)
    let mut ln_binom = 0.0f64; // ln C(α,0)
    let mut acc = f64::NEG_INFINITY;
    for k in 0..=alpha {
        if k > 0 {
            // C(α,k) = C(α,k−1) · (α−k+1)/k
            ln_binom += ((a - f64::from(k) + 1.0) / f64::from(k)).ln();
        }
        let kf = f64::from(k);
        let term =
            ln_binom + (a - kf) * ln_1q + kf * ln_q + kf * (kf - 1.0) / (2.0 * sigma * sigma);
        acc = log_add(acc, term);
    }
    (acc / (a - 1.0)).max(0.0)
}

/// Running RDP accountant over the [`default_orders`] family.
///
/// Usage: [`compose`](Self::compose) once per homogeneous training phase,
/// then [`epsilon`](Self::epsilon) for the (ε, δ) guarantee.
///
/// A trainer composes one step at a time, almost always of the same
/// `(mechanism, q)`. The accountant therefore keeps the per-step RDP
/// vector of the last `(mechanism, q)` and a count of steps composed
/// at it since it changed; the count folds in as one scaled add
/// (`steps · rdp_step`) when the pair changes or the curve is read.
/// Composing `T` single steps is thus bit for bit one `T`-step compose,
/// and a steady-state compose neither evaluates the RDP sum nor
/// allocates.
#[derive(Debug, Clone)]
pub struct RdpAccountant {
    orders: Vec<u32>,
    /// RDP of every run before the current one.
    rdp: Vec<f64>,
    steps: u64,
    /// The current run: its `(mechanism, q)`, per-step RDP at each
    /// order, and how many steps it holds.
    run: Option<(Mechanism, f64)>,
    run_rdp: Vec<f64>,
    run_steps: u64,
}

impl PartialEq for RdpAccountant {
    /// Equal when the orders, the step count and the total RDP curve
    /// are, however the steps were split into calls.
    fn eq(&self, other: &Self) -> bool {
        self.orders == other.orders
            && self.steps == other.steps
            && self.rdp_curve().eq(other.rdp_curve())
    }
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl RdpAccountant {
    /// Creates an accountant over the default order family.
    #[must_use]
    pub fn new() -> Self {
        Self::with_orders(default_orders())
    }

    /// Creates an accountant over a custom order family.
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty or contains an order < 2.
    #[must_use]
    pub fn with_orders(orders: Vec<u32>) -> Self {
        assert!(!orders.is_empty(), "need at least one Rényi order");
        assert!(orders.iter().all(|&o| o >= 2), "orders must be >= 2");
        let n = orders.len();
        Self {
            orders,
            rdp: vec![0.0; n],
            steps: 0,
            run: None,
            run_rdp: vec![0.0; n],
            run_steps: 0,
        }
    }

    /// Accumulates `steps` DP-SGD steps at `(sigma, q)` — shorthand for
    /// [`compose_mechanism`](Self::compose_mechanism) with
    /// [`Mechanism::Gaussian`].
    ///
    /// # Panics
    ///
    /// Panics on invalid `sigma`/`q` (see [`compute_rdp_step`]).
    pub fn compose(&mut self, sigma: f64, q: f64, steps: u64) {
        self.compose_mechanism(&Mechanism::Gaussian { sigma }, q, steps);
    }

    /// Accumulates `steps` subsampled steps of `mechanism` at sampling
    /// rate `q`. RDP composes additively across steps and across
    /// heterogeneous mechanisms, so a run may freely interleave
    /// [`Mechanism::Gaussian`] and [`Mechanism::SelectThenNoise`]
    /// phases.
    ///
    /// # Panics
    ///
    /// Panics on invalid mechanism multipliers or `q ∉ [0, 1]`.
    pub fn compose_mechanism(&mut self, mechanism: &Mechanism, q: f64, steps: u64) {
        let same = self
            .run
            .is_some_and(|(m, rq)| m == *mechanism && rq.to_bits() == q.to_bits());
        if !same {
            for (total, &per_step) in self.rdp.iter_mut().zip(&self.run_rdp) {
                *total = Self::with_run(*total, self.run_steps, per_step);
            }
            for (r, &alpha) in self.run_rdp.iter_mut().zip(&self.orders) {
                *r = mechanism.rdp_step(q, alpha);
            }
            self.run = Some((*mechanism, q));
            self.run_steps = 0;
        }
        self.run_steps += steps;
        self.steps += steps;
    }

    /// `total` plus a run of `steps` steps costing `per_step` each.
    fn with_run(total: f64, steps: u64, per_step: f64) -> f64 {
        if steps == 0 {
            total
        } else {
            total + steps as f64 * per_step
        }
    }

    /// Total steps composed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Best (ε, order) at failure probability `delta`, minimizing over
    /// the tracked orders with the improved RDP→DP conversion.
    ///
    /// # Panics
    ///
    /// Panics if `delta ∉ (0, 1)`.
    #[must_use]
    pub fn epsilon(&self, delta: f64) -> (f64, u32) {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let mut best = (f64::INFINITY, self.orders[0]);
        for (alpha, rdp) in self.rdp_curve() {
            let eps = rdp_to_epsilon(rdp, f64::from(alpha), delta);
            if eps < best.0 {
                best = (eps, alpha);
            }
        }
        best
    }

    /// The tracked `(order, total_rdp)` pairs.
    pub fn rdp_curve(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let pending = self.rdp.iter().zip(&self.run_rdp);
        self.orders
            .iter()
            .copied()
            .zip(pending.map(|(&total, &per_step)| Self::with_run(total, self.run_steps, per_step)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_batch_reduces_to_plain_gaussian() {
        // q = 1 ⇒ RDP(α) = α / (2σ²).
        for alpha in [2u32, 8, 32] {
            for sigma in [0.5f64, 1.0, 4.0] {
                let got = compute_rdp_step(sigma, 1.0, alpha);
                let expect = f64::from(alpha) / (2.0 * sigma * sigma);
                assert!((got - expect).abs() < 1e-9, "α={alpha} σ={sigma}");
            }
        }
    }

    #[test]
    fn zero_rate_costs_nothing() {
        assert_eq!(compute_rdp_step(1.0, 0.0, 16), 0.0);
    }

    #[test]
    fn rdp_monotone_in_q_and_sigma_and_alpha() {
        let base = compute_rdp_step(1.0, 0.01, 8);
        assert!(
            compute_rdp_step(1.0, 0.02, 8) > base,
            "more sampling, more cost"
        );
        assert!(
            compute_rdp_step(2.0, 0.01, 8) < base,
            "more noise, less cost"
        );
        assert!(
            compute_rdp_step(1.0, 0.01, 16) > base,
            "higher order, more cost"
        );
        assert!(base > 0.0);
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        // Subsampled cost must be far below the unsubsampled cost and,
        // for small q, roughly quadratic in q (privacy amplification).
        let sigma = 1.0;
        let alpha = 4u32;
        let full = compute_rdp_step(sigma, 1.0, alpha);
        let q = 1e-3;
        let sub = compute_rdp_step(sigma, q, alpha);
        assert!(sub < full * 1e-2, "sub {sub} vs full {full}");
        let sub2 = compute_rdp_step(sigma, 2.0 * q, alpha);
        let ratio = sub2 / sub;
        assert!(
            (3.0..5.0).contains(&ratio),
            "q-scaling ratio {ratio} not ~4"
        );
    }

    #[test]
    fn mechanism_composition_is_additive_over_steps() {
        // T steps of the selection+noise mechanism must cost exactly
        // T × one step, at every tracked order (additive composition).
        let m = Mechanism::SelectThenNoise {
            sigma: 1.1,
            sigma_select: 2.0,
        };
        let mut one = RdpAccountant::new();
        one.compose_mechanism(&m, 0.01, 1);
        let mut many = RdpAccountant::new();
        many.compose_mechanism(&m, 0.01, 750);
        for ((_, r1), (_, r750)) in one.rdp_curve().zip(many.rdp_curve()) {
            assert!((r750 - 750.0 * r1).abs() <= 1e-9 * r750.max(1.0));
        }
        assert_eq!(many.steps(), 750);
    }

    #[test]
    fn gaussian_mechanism_compose_matches_legacy_compose() {
        // The (σ, q, T) shorthand and the mechanism route must agree
        // bitwise — compose() is defined as the Gaussian special case.
        let mut a = RdpAccountant::new();
        a.compose(1.3, 0.05, 42);
        let mut b = RdpAccountant::new();
        b.compose_mechanism(&Mechanism::Gaussian { sigma: 1.3 }, 0.05, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn accountant_composes_linearly() {
        let mut one = RdpAccountant::new();
        one.compose(1.1, 0.01, 1);
        let mut many = RdpAccountant::new();
        many.compose(1.1, 0.01, 500);
        for ((_, r1), (_, r500)) in one.rdp_curve().zip(many.rdp_curve()) {
            assert!((r500 - 500.0 * r1).abs() < 1e-9);
        }
        assert_eq!(many.steps(), 500);
    }

    fn curve_bits(acc: &RdpAccountant) -> Vec<u64> {
        acc.rdp_curve().map(|(_, r)| r.to_bits()).collect()
    }

    #[test]
    fn single_step_composes_equal_one_batched_compose_bitwise() {
        let m = Mechanism::SelectThenNoise {
            sigma: 1.1,
            sigma_select: 2.0,
        };
        let mut stepped = RdpAccountant::new();
        for _ in 0..1000 {
            stepped.compose_mechanism(&m, 0.01, 1);
        }
        let mut batched = RdpAccountant::new();
        batched.compose_mechanism(&m, 0.01, 1000);
        assert_eq!(curve_bits(&stepped), curve_bits(&batched));
        assert_eq!(
            stepped.epsilon(1e-6).0.to_bits(),
            batched.epsilon(1e-6).0.to_bits()
        );
        assert_eq!(stepped.steps(), 1000);
        // One batched compose is one scaled add of the per-step cost.
        for (alpha, r) in batched.rdp_curve() {
            assert_eq!(r.to_bits(), (1000.0 * m.rdp_step(0.01, alpha)).to_bits());
        }
    }

    #[test]
    fn a_new_sampling_rate_invalidates_the_cached_step() {
        // 500 steps at q, then 500 at q': the second run must be charged
        // at q', i.e. equal a fresh accountant that composes the two
        // runs as two batched calls.
        let mut stepped = RdpAccountant::new();
        for q in [0.01, 0.02] {
            for _ in 0..500 {
                stepped.compose(1.1, q, 1);
            }
        }
        let mut batched = RdpAccountant::new();
        batched.compose(1.1, 0.01, 500);
        batched.compose(1.1, 0.02, 500);
        assert_eq!(curve_bits(&stepped), curve_bits(&batched));
        let mut stale = RdpAccountant::new();
        stale.compose(1.1, 0.01, 1000);
        assert!(stepped.epsilon(1e-6).0 > stale.epsilon(1e-6).0);
        // ... and switching back re-evaluates q rather than reusing q'.
        stepped.compose(1.1, 0.01, 10);
        batched.compose(1.1, 0.01, 10);
        assert_eq!(curve_bits(&stepped), curve_bits(&batched));
    }

    #[test]
    fn epsilon_matches_published_mnist_reference_band() {
        // The canonical TF-Privacy / Opacus tutorial setting:
        // N = 60_000, batch = 256, σ = 1.1, 60 epochs, δ = 1e-5.
        // Published accountants report ε ≈ 3.0–3.6 depending on the
        // order grid and RDP→DP conversion (classic vs improved). Our
        // integer-order accountant with the classic conversion lands at
        // ≈ 3.0; assert the band and that the improved bound is tighter.
        let q = 256.0 / 60_000.0;
        let steps = (60.0f64 * 60_000.0 / 256.0).round() as u64;
        let mut acc = RdpAccountant::new();
        let mut best_classic = f64::INFINITY;
        acc.compose(1.1, q, steps);
        for (alpha, rdp) in acc.rdp_curve() {
            best_classic = best_classic.min(crate::convert::rdp_to_epsilon_classic(
                rdp,
                f64::from(alpha),
                1e-5,
            ));
        }
        let (eps_improved, order) = acc.epsilon(1e-5);
        assert!(
            (2.5..4.0).contains(&best_classic),
            "classic ε = {best_classic}, expected ≈ 3.0-3.6"
        );
        assert!(
            eps_improved <= best_classic,
            "improved ε {eps_improved} (order {order}) must not exceed classic {best_classic}"
        );
    }

    #[test]
    fn single_full_batch_step_near_analytic_gaussian_bound() {
        // q = 1, T = 1, σ = 1.1, δ = 1e-5: the analytic Gaussian
        // mechanism satisfies ε = √(2·ln(1.25/δ))/σ ≈ 4.40; the RDP
        // route must land in the same ballpark.
        let mut acc = RdpAccountant::new();
        acc.compose(1.1, 1.0, 1);
        let (eps, _) = acc.epsilon(1e-5);
        let analytic = (2.0 * (1.25f64 / 1e-5).ln()).sqrt() / 1.1;
        assert!(
            (eps / analytic - 1.0).abs() < 0.5,
            "RDP ε {eps} vs analytic {analytic}"
        );
    }

    #[test]
    fn epsilon_decreases_with_more_noise() {
        let q = 0.01;
        let mut prev = f64::INFINITY;
        for sigma in [0.8, 1.0, 2.0, 4.0] {
            let mut acc = RdpAccountant::new();
            acc.compose(sigma, q, 1000);
            let (eps, _) = acc.epsilon(1e-6);
            assert!(eps < prev, "σ={sigma}: ε={eps} !< {prev}");
            prev = eps;
        }
    }

    #[test]
    fn epsilon_increases_with_steps_and_delta_tightness() {
        let mut short = RdpAccountant::new();
        short.compose(1.0, 0.02, 100);
        let mut long = RdpAccountant::new();
        long.compose(1.0, 0.02, 10_000);
        assert!(long.epsilon(1e-5).0 > short.epsilon(1e-5).0);
        // Smaller δ ⇒ larger ε.
        assert!(short.epsilon(1e-9).0 > short.epsilon(1e-3).0);
    }

    #[test]
    fn heterogeneous_composition_accumulates() {
        let mut acc = RdpAccountant::new();
        acc.compose(1.0, 0.01, 100);
        let (eps1, _) = acc.epsilon(1e-5);
        acc.compose(2.0, 0.005, 100);
        let (eps2, _) = acc.epsilon(1e-5);
        assert!(eps2 > eps1, "composition only adds cost");
    }

    #[test]
    #[should_panic(expected = "noise multiplier")]
    fn rejects_nonpositive_sigma() {
        let _ = compute_rdp_step(0.0, 0.5, 4);
    }

    #[test]
    fn log_add_handles_neg_infinity() {
        assert_eq!(log_add(f64::NEG_INFINITY, 3.0), 3.0);
        assert_eq!(log_add(3.0, f64::NEG_INFINITY), 3.0);
        let s = log_add(0.0, 0.0); // ln(2)
        assert!((s - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
