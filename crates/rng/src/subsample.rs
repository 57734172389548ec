//! Mini-batch subsampling for DP training.
//!
//! DP-SGD's privacy analysis assumes **Poisson sampling**: each training
//! example is included in the batch independently with probability
//! `q = B / N` (Opacus' `DPDataLoader`, which the paper's LazyDP data
//! loader wraps — Fig. 9(b) "Poisson sampler"). This module provides that
//! sampler.

use crate::prng::Prng;

/// Poisson-samples indices from `0..n`: each index is included
/// independently with probability `q`.
///
/// The expected batch size is `n·q`; the realized size varies, which is
/// exactly what the RDP accountant of `lazydp-privacy` assumes.
///
/// # Panics
///
/// Panics if `q` is not within `[0, 1]`.
pub fn poisson_sample<R: Prng>(rng: &mut R, n: usize, q: f64) -> Vec<usize> {
    assert!(
        (0.0..=1.0).contains(&q),
        "sampling rate must be in [0,1], got {q}"
    );
    if q == 0.0 {
        return Vec::new();
    }
    if q == 1.0 {
        return (0..n).collect();
    }
    // Geometric skipping: jump directly between successes. For inclusion
    // probability q the gap G (number of failures before the next
    // success) is geometric: G = floor(ln U / ln(1-q)). This touches only
    // O(n·q) random numbers instead of n.
    let ln_fail = (1.0 - q).ln();
    let mut out = Vec::with_capacity((n as f64 * q * 1.2) as usize + 4);
    let mut i = 0usize;
    loop {
        let u = rng.next_f64_open();
        let gap = (u.ln() / ln_fail).floor();
        if !gap.is_finite() || gap >= (n - i) as f64 {
            break;
        }
        i += gap as usize;
        out.push(i);
        i += 1;
        if i >= n {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Xoshiro256PlusPlus;

    #[test]
    fn poisson_sample_expected_size_and_sorted_unique() {
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        let n = 100_000;
        let q = 0.02;
        let mut total = 0usize;
        let trials = 50;
        for _ in 0..trials {
            let s = poisson_sample(&mut rng, n, q);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            assert!(s.iter().all(|&i| i < n));
            total += s.len();
        }
        let mean = total as f64 / trials as f64;
        let expect = n as f64 * q; // 2000
                                   // 50-trial mean: sd ≈ sqrt(2000/50) ≈ 6.3; allow 6σ.
        assert!((mean - expect).abs() < 40.0, "mean {mean} vs {expect}");
    }

    #[test]
    fn poisson_sample_edge_rates() {
        let mut rng = Xoshiro256PlusPlus::seed_from(2);
        assert!(poisson_sample(&mut rng, 100, 0.0).is_empty());
        assert_eq!(poisson_sample(&mut rng, 5, 1.0), vec![0, 1, 2, 3, 4]);
        assert!(poisson_sample(&mut rng, 0, 0.5).is_empty());
    }

    #[test]
    fn poisson_inclusion_probability_is_uniform() {
        let mut rng = Xoshiro256PlusPlus::seed_from(3);
        let n = 200;
        let q = 0.3;
        let mut counts = vec![0usize; n];
        let trials = 20_000;
        for _ in 0..trials {
            for i in poisson_sample(&mut rng, n, q) {
                counts[i] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / trials as f64;
            // sd of p-hat = sqrt(0.3*0.7/20000) ≈ 0.0032; allow 5σ.
            assert!((p - q).abs() < 0.017, "index {i}: p {p}");
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate")]
    fn poisson_rejects_bad_rate() {
        let mut rng = Xoshiro256PlusPlus::seed_from(8);
        let _ = poisson_sample(&mut rng, 10, 1.5);
    }
}
