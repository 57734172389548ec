//! Non-private SGD: the baseline every speedup in the paper is
//! normalized against.

use crate::counters::KernelCounters;
use crate::noise_update::sparse_grad_update;
use crate::optimizer::{Optimizer, StepStats};
use crate::step::StepScratch;
use lazydp_data::MiniBatch;
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_model::Dlrm;
use std::marker::PhantomData;

/// Plain mini-batch SGD with sparse embedding updates (paper Fig. 4(a)),
/// on the embedding backend `T`.
///
/// Owns the same step scratch as the DP optimizers (forward
/// cache, gradient buffers): after the first step sizes it,
/// steady-state steps perform no heap allocations.
#[derive(Debug, Clone)]
pub struct SgdOptimizer<T = EmbeddingTable> {
    lr: f32,
    counters: KernelCounters,
    scratch: StepScratch,
    backend: PhantomData<fn() -> T>,
}

impl SgdOptimizer {
    /// [`for_storage`](Self::for_storage) on in-memory tables.
    #[must_use]
    pub fn new(lr: f32) -> Self {
        Self::for_storage(lr)
    }
}

impl<T: EmbeddingStorage> SgdOptimizer<T> {
    /// An SGD optimizer with learning rate `lr` for tables of backend
    /// `T`. Panics if `lr` is not positive and finite.
    #[must_use]
    pub fn for_storage(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            counters: KernelCounters::default(),
            scratch: StepScratch::default(),
            backend: PhantomData,
        }
    }
}

impl<T: EmbeddingStorage> Optimizer<T> for SgdOptimizer<T> {
    fn name(&self) -> &'static str {
        "SGD"
    }

    fn step(
        &mut self,
        model: &mut Dlrm<T>,
        batch: &MiniBatch,
        _next: Option<&MiniBatch>,
    ) -> StepStats {
        // Counted like a DP step: an empty Poisson batch is still a step.
        self.counters.steps += 1;
        lazydp_obs::metrics().trainer.steps.incr();
        if batch.is_empty() {
            return StepStats::default();
        }
        let s = &mut self.scratch;
        {
            lazydp_obs::span!(step_forward);
            model.forward_with(batch, &mut s.cache, &mut s.model_scratch);
        }
        self.counters.rows_gathered += batch.total_lookups() as u64;
        self.counters.duplicates_removed += batch.duplicate_lookups() as u64;
        Dlrm::logit_grads_into(&s.cache, &batch.labels, true, &mut s.logit_g);
        {
            lazydp_obs::span!(step_backward);
            model.backward_with(
                &s.cache,
                batch,
                &s.logit_g,
                &mut s.grads,
                &mut s.model_scratch,
            );
        }
        {
            lazydp_obs::span!(step_dense_update);
            model.bottom.apply(&s.grads.bottom, self.lr);
            model.top.apply(&s.grads.top, self.lr);
        }
        for (table, g) in model.tables.iter_mut().zip(s.grads.tables.iter()) {
            lazydp_obs::span!(step_sparse_update);
            sparse_grad_update(table, g, self.lr, &mut self.counters);
        }
        StepStats {
            realized_batch: batch.batch_size(),
            clipped_fraction: 0.0,
        }
    }

    fn counters(&self) -> KernelCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::Xoshiro256PlusPlus;

    #[test]
    fn sgd_learns_and_counts_sparse_work_only() {
        let mut rng = Xoshiro256PlusPlus::seed_from(3);
        let mut model = Dlrm::new(DlrmConfig::tiny(3, 64, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, 128));
        let batch = ds.batch_of(&(0..64).collect::<Vec<_>>());
        let before = model.loss(&batch);
        let mut opt = SgdOptimizer::new(0.1);
        for _ in 0..40 {
            let stats = opt.step(&mut model, &batch, None);
            assert_eq!(stats.realized_batch, 64);
        }
        let after = model.loss(&batch);
        assert!(after < before, "SGD must learn: {before:.4} -> {after:.4}");
        let c = opt.counters();
        assert_eq!(c.steps, 40);
        assert_eq!(c.gaussian_samples, 0, "SGD draws no noise");
        // Sparse: rows written per step ≤ total lookups (after dedup).
        assert!(c.table_rows_written <= c.rows_gathered);
        assert!(c.table_rows_written > 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut rng = Xoshiro256PlusPlus::seed_from(4);
        let mut model = Dlrm::new(DlrmConfig::tiny(2, 16, 4), &mut rng);
        let snapshot = model.tables[0].clone();
        let mut opt = SgdOptimizer::new(0.1);
        let stats = opt.step(&mut model, &MiniBatch::default(), None);
        assert_eq!(stats.realized_batch, 0);
        assert_eq!(model.tables[0], snapshot);
        assert_eq!(opt.counters().steps, 1, "an empty batch is still a step");
    }
}
