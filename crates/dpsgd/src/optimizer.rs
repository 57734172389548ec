//! The optimizer interface shared by SGD, the DP-SGD baselines, EANA,
//! and LazyDP (`lazydp-core`).

use crate::counters::KernelCounters;
use lazydp_data::MiniBatch;
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_model::Dlrm;

/// Per-step diagnostics returned by [`Optimizer::step`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepStats {
    /// Realized batch size (varies under Poisson sampling).
    pub realized_batch: usize,
    /// Fraction of examples whose per-example gradient was clipped
    /// (0 for non-private SGD).
    pub clipped_fraction: f64,
}

/// A training algorithm: consumes one mini-batch per step and updates
/// the model in place.
///
/// `next` is the *following* iteration's mini-batch when the driver has
/// lookahead (the LazyDP `InputQueue`); eager algorithms ignore it.
/// LazyDP requires it for every step except the last before
/// [`finalize`](Self::finalize).
///
/// `T` is the embedding backend the algorithm drives, the in-memory
/// [`EmbeddingTable`] by default. Every algorithm runs on every
/// [`EmbeddingStorage`], including the out-of-core
/// `lazydp_store::StoredTable`.
pub trait Optimizer<T: EmbeddingStorage = EmbeddingTable> {
    /// Algorithm name as the paper spells it (e.g. `"DP-SGD(F)"`).
    fn name(&self) -> &'static str;

    /// Performs one training iteration.
    fn step(
        &mut self,
        model: &mut Dlrm<T>,
        batch: &MiniBatch,
        next: Option<&MiniBatch>,
    ) -> StepStats;

    /// Completes any deferred work so the model reaches its final,
    /// releasable state. Eager algorithms have nothing to do; LazyDP
    /// flushes all pending noise here (threat model §3: the adversary
    /// observes the *final* model).
    fn finalize(&mut self, model: &mut Dlrm<T>) {
        let _ = model;
    }

    /// Cumulative logical-work counters.
    fn counters(&self) -> KernelCounters;
}

#[cfg(test)]
mod tests {
    use super::*;

    // Object safety: the harness stores optimizers as trait objects.
    #[test]
    fn optimizer_is_object_safe() {
        fn _takes(_: &dyn Optimizer) {}
    }

    #[test]
    fn step_stats_default() {
        let s = StepStats::default();
        assert_eq!(s.realized_batch, 0);
        assert_eq!(s.clipped_fraction, 0.0);
    }
}
