//! Aggregated noise sampling (ANS) — paper §5.2.2, Theorem 5.1.
//!
//! The sum of `n` i.i.d. draws from `N(0, σ²)` is distributed as
//! `N(0, n·σ²)`; therefore the `n` deferred per-iteration noise draws a
//! row owes can be replaced by **one** draw with standard deviation
//! `√n · σ`, cutting the Box–Muller compute by a factor of `n`. This
//! module holds the scaling rule and its statistical validation.

/// Standard deviation of the single aggregated draw replacing `delays`
/// deferred draws of standard deviation `per_step_std`
/// (Algorithm 1 line 38: `GaussianNoise(delays × σ²C², dim)`).
///
/// # Panics
///
/// Panics if `per_step_std` is negative or not finite.
#[inline]
#[must_use]
pub fn aggregated_std(per_step_std: f32, delays: u64) -> f32 {
    assert!(
        per_step_std.is_finite() && per_step_std >= 0.0,
        "per-step std must be finite and >= 0"
    );
    ((delays as f64).sqrt() * f64::from(per_step_std)) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::{stats, GaussianSampler, Prng, Xoshiro256PlusPlus};

    #[test]
    fn scaling_rule() {
        assert_eq!(aggregated_std(0.5, 0), 0.0);
        assert_eq!(aggregated_std(0.5, 1), 0.5);
        assert!((aggregated_std(0.5, 4) - 1.0).abs() < 1e-7);
        assert!((aggregated_std(1.0, 9) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn theorem_5_1_sum_equals_aggregated_distribution() {
        // Empirical check of Theorem 5.1 exactly as the optimizer uses
        // it: compare (a) sums of `n` per-step draws against (b) single
        // aggregated draws, via moments and a KS test on equal-size
        // samples.
        let n = 12u64;
        let std = 0.7f32;
        let trials = 30_000;
        let mut rng = Xoshiro256PlusPlus::seed_from(2024);
        let per_step = GaussianSampler::new(0.0, std);
        let agg = GaussianSampler::new(0.0, aggregated_std(std, n));
        let mut summed: Vec<f64> = Vec::with_capacity(trials);
        let mut aggregated: Vec<f64> = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut acc = 0.0f64;
            for _ in 0..n {
                acc += f64::from(per_step.sample(&mut rng));
            }
            summed.push(acc);
            aggregated.push(f64::from(agg.sample(&mut rng)));
        }
        let (ms, vs) = stats::mean_var(&summed);
        let (ma, va) = stats::mean_var(&aggregated);
        let expect_var = f64::from(std) * f64::from(std) * n as f64;
        assert!(ms.abs() < 0.05 && ma.abs() < 0.05, "means {ms} {ma}");
        assert!(
            (vs - expect_var).abs() / expect_var < 0.05,
            "summed var {vs}"
        );
        assert!((va - expect_var).abs() / expect_var < 0.05, "agg var {va}");
        // Both against the theoretical CDF.
        let crit = stats::ks_critical(trials, 0.001);
        let ks_s = stats::ks_statistic_normal(&mut summed, 0.0, expect_var.sqrt());
        let ks_a = stats::ks_statistic_normal(&mut aggregated, 0.0, expect_var.sqrt());
        assert!(ks_s < crit, "summed KS {ks_s}");
        assert!(ks_a < crit, "aggregated KS {ks_a}");
        // And against each other (z-test of means).
        let z = stats::mean_z_score(&summed, &aggregated);
        assert!(z.abs() < 4.0, "mean z-score {z}");
    }

    #[test]
    fn zero_delay_draw_is_degenerate() {
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let s = GaussianSampler::new(0.0, aggregated_std(1.0, 0));
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 0.0);
        }
        let _ = rng.next_u64();
    }
}
