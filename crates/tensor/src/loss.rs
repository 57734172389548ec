//! Loss functions for click-through-rate training.
//!
//! DLRM is trained with binary cross-entropy on the click/no-click label.
//! The implementations here operate on *logits* and use the standard
//! stable formulation, and — importantly for DP-SGD — expose per-example
//! loss gradients (the paper's per-example gradient derivation starts
//! from per-example ∂L/∂logit).

/// Stable binary cross-entropy with logits, averaged over the batch.
///
/// `loss_i = max(z,0) − z·y + ln(1 + exp(−|z|))`.
///
/// # Panics
///
/// Panics if lengths differ or a label is outside `[0, 1]`.
#[must_use]
pub fn bce_with_logits(logits: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(logits.len(), labels.len(), "logit/label length mismatch");
    assert!(!logits.is_empty(), "empty batch");
    let mut total = 0.0f64;
    for (&z, &y) in logits.iter().zip(labels.iter()) {
        assert!((0.0..=1.0).contains(&y), "label {y} outside [0,1]");
        let z = f64::from(z);
        let y = f64::from(y);
        total += z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln();
    }
    total / logits.len() as f64
}

/// Per-example gradient of the *mean* BCE loss with respect to each
/// logit, `(σ(z_i) − y_i) / B`, into a caller-owned vector (cleared and
/// refilled; no allocation at steady state).
///
/// For DP-SGD the per-example gradient of the *sum* (not mean) is often
/// wanted; pass `mean = false` for that convention. DP-SGD clips
/// per-example gradients before averaging, so it uses the sum form.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn bce_with_logits_grad_into(logits: &[f32], labels: &[f32], mean: bool, out: &mut Vec<f32>) {
    assert_eq!(logits.len(), labels.len(), "logit/label length mismatch");
    let scale = if mean { 1.0 / logits.len() as f32 } else { 1.0 };
    out.clear();
    out.extend(
        logits
            .iter()
            .zip(labels.iter())
            .map(|(&z, &y)| (crate::ops::sigmoid(z) - y) * scale),
    );
}

/// Mean squared error.
///
/// # Panics
///
/// Panics if lengths differ or the slices are empty.
#[must_use]
pub fn mse(pred: &[f32], target: &[f32]) -> f64 {
    assert_eq!(pred.len(), target.len(), "mse length mismatch");
    assert!(!pred.is_empty(), "empty batch");
    pred.iter()
        .zip(target.iter())
        .map(|(&p, &t)| {
            let d = f64::from(p) - f64::from(t);
            d * d
        })
        .sum::<f64>()
        / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_known_values() {
        // z = 0 ⇒ loss = ln 2 regardless of label.
        let l = bce_with_logits(&[0.0], &[1.0]);
        assert!((l - std::f64::consts::LN_2).abs() < 1e-6);
        // Perfect confident prediction ⇒ loss → 0.
        assert!(bce_with_logits(&[30.0], &[1.0]) < 1e-9);
        assert!(bce_with_logits(&[-30.0], &[0.0]) < 1e-9);
        // Confident wrong prediction ⇒ loss ≈ |z|.
        assert!((bce_with_logits(&[-10.0], &[1.0]) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn bce_is_stable_at_extreme_logits() {
        let l = bce_with_logits(&[1e4, -1e4], &[0.0, 1.0]);
        assert!(l.is_finite());
    }

    #[test]
    fn bce_grad_matches_finite_difference() {
        let logits = [0.5f32, -1.0, 2.0];
        let labels = [1.0f32, 0.0, 1.0];
        let mut grad = Vec::new();
        bce_with_logits_grad_into(&logits, &labels, true, &mut grad);
        let eps = 1e-3f32;
        for j in 0..logits.len() {
            let mut lp = logits;
            lp[j] += eps;
            let mut lm = logits;
            lm[j] -= eps;
            let fd = (bce_with_logits(&lp, &labels) - bce_with_logits(&lm, &labels))
                / (2.0 * f64::from(eps));
            assert!(
                (f64::from(grad[j]) - fd).abs() < 1e-4,
                "logit {j}: grad {} fd {fd}",
                grad[j]
            );
        }
    }

    #[test]
    fn sum_grad_is_batch_times_mean_grad() {
        let logits = [0.1f32, 0.2, -0.7, 1.5];
        let labels = [0.0f32, 1.0, 0.0, 1.0];
        let (mut mean, mut sum) = (Vec::new(), Vec::new());
        bce_with_logits_grad_into(&logits, &labels, true, &mut mean);
        bce_with_logits_grad_into(&logits, &labels, false, &mut sum);
        for (m, s) in mean.iter().zip(sum.iter()) {
            assert!((m * 4.0 - s).abs() < 1e-7);
        }
    }

    #[test]
    fn mse_basics() {
        assert!((mse(&[1.0, 2.0], &[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mse(&[3.0], &[3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn bce_rejects_bad_labels() {
        let _ = bce_with_logits(&[0.0], &[1.5]);
    }
}
