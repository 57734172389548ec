//! EANA (Ning et al., RecSys 2022) — the prior-work comparison of §7.4.
//!
//! EANA modifies DP-SGD to add noise **only to the embedding rows that
//! were accessed** in the current iteration. That makes its model-update
//! cost proportional to the batch's unique rows (like LazyDP), but its
//! privacy is *weaker and data-dependent*: a row that is never accessed
//! never receives noise, so the released model leaks which features
//! never occurred in the data (§2.5). LazyDP achieves the same
//! asymptotic cost while preserving the exact DP-SGD guarantee.

use crate::config::DpConfig;
use crate::counters::KernelCounters;
use crate::noise_update::sparse_noisy_update_with;
use crate::optimizer::{Optimizer, StepStats};
use crate::step::{DpStep, TableStage};
use lazydp_data::MiniBatch;
use lazydp_embedding::EmbeddingStorage;
use lazydp_model::Dlrm;
use lazydp_rng::RowNoise;

/// The EANA optimizer: the shared [`DpStep`] front half (ghost-norm
/// clipping, MLP update + noise) plus accessed-rows-only table noise.
/// One step allocates nothing at steady state (pinned by
/// `tests/alloc_steady_state_eana.rs`).
#[derive(Debug, Clone)]
pub struct EanaOptimizer<N> {
    core: DpStep<N>,
}

impl<N: RowNoise> EanaOptimizer<N> {
    /// Creates an EANA optimizer.
    #[must_use]
    pub fn new(cfg: DpConfig, noise: N) -> Self {
        Self {
            core: DpStep::new(cfg, noise, 0),
        }
    }

    /// The hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        self.core.config()
    }
}

impl<T: EmbeddingStorage, N: RowNoise> Optimizer<T> for EanaOptimizer<N> {
    fn name(&self) -> &'static str {
        "EANA"
    }

    fn step(
        &mut self,
        model: &mut Dlrm<T>,
        batch: &MiniBatch,
        _next: Option<&MiniBatch>,
    ) -> StepStats {
        self.core.begin_step();
        let clipped = self.core.clipped_aggregate(model, batch);
        self.core.dense_update(model);
        // Table stage: noise lands only on the rows the batch accessed.
        // An empty batch accesses none, so EANA adds no embedding noise
        // at all — exactly the information leak §2.5 describes (the MLP
        // noise above still lands: dense layers are always "accessed").
        lazydp_obs::span!(step_table_noise);
        let TableStage {
            grads,
            noise,
            counters,
            iter,
            noise_std,
            lr,
        } = self.core.table_stage();
        // The kernel's scratch argument is unused (an empty `Vec` never
        // allocates).
        let unused = &mut Vec::new();
        for (t, (table, g)) in model.tables.iter_mut().zip(grads.iter()).enumerate() {
            sparse_noisy_update_with(
                t as u32, table, g, noise, iter, noise_std, lr, counters, unused,
            );
        }
        self.core.finish_step(batch, clipped)
    }

    fn counters(&self) -> KernelCounters {
        self.core.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn setup() -> (Dlrm, SyntheticDataset) {
        let mut rng = Xoshiro256PlusPlus::seed_from(21);
        let model = Dlrm::new(DlrmConfig::tiny(2, 50, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 50, 64));
        (model, ds)
    }

    #[test]
    fn eana_never_noises_untouched_rows() {
        let (mut model, ds) = setup();
        let before = model.tables[0].clone();
        let mut opt = EanaOptimizer::new(DpConfig::paper_default(8), CounterNoise::new(3));
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        opt.step(&mut model, &batch, None);
        let touched: std::collections::HashSet<u64> =
            batch.table_indices(0).iter().copied().collect();
        let mut untouched_unchanged = 0;
        for r in 0..model.tables[0].rows() {
            if !touched.contains(&(r as u64)) {
                assert_eq!(
                    model.tables[0].row(r),
                    before.row(r),
                    "EANA noised untouched row {r} — privacy leak signature"
                );
                untouched_unchanged += 1;
            }
        }
        assert!(untouched_unchanged > 0, "test needs untouched rows");
    }

    #[test]
    fn eana_work_scales_with_batch_not_table() {
        let (mut model, ds) = setup();
        let mut opt = EanaOptimizer::new(DpConfig::paper_default(8), CounterNoise::new(3));
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        let mlp_params = (model.bottom.params() + model.top.params()) as u64;
        opt.step(&mut model, &batch, None);
        let c = Optimizer::<lazydp_embedding::EmbeddingTable>::counters(&opt);
        let emb_samples = c.gaussian_samples - mlp_params;
        let dim = model.config().embedding_dim as u64;
        // At most one noise vector per lookup (fewer after dedup),
        // never table_rows × dim.
        assert!(emb_samples <= batch.total_lookups() as u64 * dim);
        let total_rows: u64 = model.tables.iter().map(|t| t.rows() as u64).sum();
        assert!(emb_samples < total_rows * dim / 2);
    }

    #[test]
    fn eana_learns_like_dp_sgd() {
        let (mut model, ds) = setup();
        let eval = ds.batch_of(&(0..64).collect::<Vec<_>>());
        let before = model.loss(&eval);
        let mut opt = EanaOptimizer::new(DpConfig::new(0.3, 5.0, 0.1, 32), CounterNoise::new(3));
        for it in 0..30 {
            let ids: Vec<usize> = (0..32).map(|k| (it * 32 + k) % 64).collect();
            let batch = ds.batch_of(&ids);
            opt.step(&mut model, &batch, None);
        }
        let after = model.loss(&eval);
        assert!(
            after < before,
            "EANA should learn: {before:.4} -> {after:.4}"
        );
    }

    #[test]
    fn eana_matches_dp_sgd_on_accessed_rows_with_same_noise() {
        // With the same counter noise source, EANA and DP-SGD(F) apply
        // identical updates to accessed rows; they differ only on
        // untouched rows (which EANA leaves pristine).
        let (model0, ds) = setup();
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        let cfg = DpConfig::paper_default(8);
        let mut eana_model = model0.clone();
        let mut dp_model = model0.clone();
        let mut eana = EanaOptimizer::new(cfg, CounterNoise::new(55));
        let mut dp = crate::eager::EagerDpSgd::new(
            cfg,
            crate::eager::ClipStyle::Fast,
            CounterNoise::new(55),
        );
        eana.step(&mut eana_model, &batch, None);
        dp.step(&mut dp_model, &batch, None);
        let touched: std::collections::HashSet<u64> =
            batch.table_indices(0).iter().copied().collect();
        for &r in &touched {
            let a = eana_model.tables[0].row(r as usize);
            let b = dp_model.tables[0].row(r as usize);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-6, "row {r} differs");
            }
        }
    }
}
