//! Per-example L2-norm clipping (paper §2.4, step 2 of DP-SGD).

/// Clipping coefficients `min(1, C / ‖g_i‖)` from per-example *squared*
/// norms, into a caller-owned vector (cleared and refilled; no
/// allocation at steady state).
///
/// # Panics
///
/// Panics if `c <= 0` or a squared norm is negative/NaN.
pub fn clip_weights_into(norms_sq: &[f64], c: f64, out: &mut Vec<f32>) {
    assert!(c > 0.0, "clipping threshold must be positive");
    out.clear();
    out.extend(norms_sq.iter().map(|&n| {
        assert!(n >= 0.0, "squared norm must be non-negative, got {n}");
        let norm = n.sqrt();
        if norm <= c {
            1.0
        } else {
            (c / norm) as f32
        }
    }));
}

/// Fraction of examples whose gradient was actually clipped (norm > C) —
/// a standard DP-SGD diagnostic.
#[must_use]
pub fn clipped_fraction(norms_sq: &[f64], c: f64) -> f64 {
    if norms_sq.is_empty() {
        return 0.0;
    }
    let clipped = norms_sq.iter().filter(|&&n| n.sqrt() > c).count();
    clipped as f64 / norms_sq.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip_weights(norms_sq: &[f64], c: f64) -> Vec<f32> {
        let mut w = Vec::new();
        clip_weights_into(norms_sq, c, &mut w);
        w
    }

    #[test]
    fn small_gradients_pass_through() {
        let w = clip_weights(&[0.25, 1.0], 1.0); // norms 0.5, 1.0
        assert_eq!(w, vec![1.0, 1.0]);
    }

    #[test]
    fn large_gradients_scaled_to_threshold() {
        let w = clip_weights(&[4.0], 1.0); // norm 2 → weight 0.5
        assert!((w[0] - 0.5).abs() < 1e-7);
        // After scaling, the norm equals exactly C.
        assert!((f64::from(w[0]) * 2.0 - 1.0).abs() < 1e-7);
    }

    #[test]
    fn clipped_fraction_counts() {
        let norms_sq = [0.25, 4.0, 9.0, 1.0];
        assert!((clipped_fraction(&norms_sq, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(clipped_fraction(&[], 1.0), 0.0);
    }

    #[test]
    fn zero_gradient_is_fine() {
        assert_eq!(clip_weights(&[0.0], 1.0), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "clipping threshold")]
    fn rejects_bad_threshold() {
        let _ = clip_weights(&[1.0], 0.0);
    }
}
