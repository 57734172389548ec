//! Shared DP-SGD hyper-parameters.

/// Hyper-parameters common to every DP optimizer (the arguments of the
/// paper's `LazyDP.make_private` wrapper, Fig. 9(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpConfig {
    /// Noise multiplier σ (Fig. 9(a) example: 1.1).
    pub noise_multiplier: f64,
    /// Per-example gradient clipping threshold C (Fig. 9(a): 1.0).
    pub max_grad_norm: f64,
    /// Learning rate η (Fig. 9(a): 0.05).
    pub lr: f32,
    /// Nominal batch size B used for the 1/B scaling of gradients and
    /// noise (Algorithm 1). Under Poisson sampling the realized batch
    /// varies; Opacus scales by the nominal size, and so do we.
    pub nominal_batch: usize,
    /// Worker threads for the DP noise kernels (the MLP layers' fused
    /// noise-and-apply sweep, the eager dense noisy update, LazyDP's
    /// pending-noise flush). The GEMMs inside forward/backward
    /// are governed separately by the process-global width
    /// (`lazydp_exec::global_threads` / `LAZYDP_THREADS`), not by this
    /// field. Every kernel is chunk-addressed on the `lazydp_exec`
    /// executor, so the trained model is bitwise identical for any value
    /// here. LazyDP's lookahead flush takes one path at every width: an
    /// `Executor::overlap` beside the dense forward/backward, whose
    /// worker side gets a thread of its own only when `threads > 1`.
    /// [`new`](Self::new) defaults it to
    /// [`lazydp_exec::global_threads`].
    pub threads: usize,
}

impl DpConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or non-finite.
    #[must_use]
    pub fn new(noise_multiplier: f64, max_grad_norm: f64, lr: f32, nominal_batch: usize) -> Self {
        assert!(
            noise_multiplier.is_finite() && noise_multiplier >= 0.0,
            "noise multiplier must be finite and >= 0"
        );
        assert!(
            max_grad_norm.is_finite() && max_grad_norm > 0.0,
            "clipping threshold must be positive"
        );
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!(nominal_batch > 0, "batch size must be positive");
        Self {
            noise_multiplier,
            max_grad_norm,
            lr,
            nominal_batch,
            threads: lazydp_exec::global_threads(),
        }
    }

    /// Sets the worker-thread count for the parallel kernels.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// The paper's default hyper-parameters (Fig. 9(a)) at the given
    /// batch size.
    #[must_use]
    pub fn paper_default(nominal_batch: usize) -> Self {
        Self::new(1.1, 1.0, 0.05, nominal_batch)
    }

    /// Per-coordinate standard deviation of the noise added to the
    /// *averaged* gradient: `σ·C/B` (Algorithm 1 lines 34/38 divide the
    /// `N(0, σ²C²)` draw by B).
    #[must_use]
    pub fn noise_std_per_coord(&self) -> f32 {
        (self.noise_multiplier * self.max_grad_norm / self.nominal_batch as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_std_formula() {
        let cfg = DpConfig::new(1.1, 2.0, 0.05, 100);
        assert!((f64::from(cfg.noise_std_per_coord()) - 1.1 * 2.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_default_values() {
        let cfg = DpConfig::paper_default(2048);
        assert_eq!(cfg.noise_multiplier, 1.1);
        assert_eq!(cfg.max_grad_norm, 1.0);
        assert_eq!(cfg.lr, 0.05);
        assert_eq!(cfg.nominal_batch, 2048);
    }

    #[test]
    fn threads_default_and_override() {
        let cfg = DpConfig::paper_default(8);
        assert_eq!(cfg.threads, lazydp_exec::global_threads());
        assert_eq!(cfg.with_threads(3).threads, 3);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let _ = DpConfig::paper_default(8).with_threads(0);
    }

    #[test]
    fn zero_noise_is_allowed_for_ablation() {
        let cfg = DpConfig::new(0.0, 1.0, 0.1, 8);
        assert_eq!(cfg.noise_std_per_coord(), 0.0);
    }

    #[test]
    #[should_panic(expected = "clipping threshold")]
    fn rejects_zero_clip() {
        let _ = DpConfig::new(1.0, 0.0, 0.1, 8);
    }
}
