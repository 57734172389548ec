//! Eager DP-SGD(F), the paper's strongest eager baseline (§2.5).
//!
//! Per-example norms come from the ghost-norm trick (no per-example
//! weight gradients at all) inside the model's one clipped backward,
//! `Dlrm::backward_clipped_with` (Denison et al.); the table stage is
//! the **dense noisy update** of every row of every embedding table —
//! the §4 bottleneck. The paper's DP-SGD(B) (materialized per-example
//! gradients) and (R) (a norm pass, then a reweighted pass) release the
//! same model; `lazydp_sysmodel` prices them for Fig. 3, and
//! `Dlrm::per_example_grads` stays as the (B) definition the tests
//! check the fused clipping against.

use crate::config::DpConfig;
use crate::counters::KernelCounters;
use crate::noise_update::dense_noisy_update;
use crate::optimizer::{Optimizer, StepStats};
use crate::step::{DpStep, TableStage};
use lazydp_data::MiniBatch;
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_exec::Executor;
use lazydp_model::Dlrm;
use lazydp_rng::RowNoise;
use std::marker::PhantomData;

/// How per-example clipping is computed: ghost norms plus the
/// reweighted pass, the only style [`EagerDpSgd`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClipStyle {
    /// DP-SGD(F): ghost norms + reweighting.
    Fast,
}

/// Eager (non-lazy) DP-SGD(F): the shared [`DpStep`] front half plus a
/// dense noisy update of every table at `DpConfig::threads`, on the
/// embedding backend `T`. The whole in-memory step runs allocation-free
/// at steady state (pinned by `tests/alloc_steady_state_eager.rs`).
#[derive(Debug, Clone)]
pub struct EagerDpSgd<N, T = EmbeddingTable> {
    core: DpStep<N>,
    backend: PhantomData<fn() -> T>,
}

impl<N: RowNoise> EagerDpSgd<N> {
    /// [`for_storage`](Self::for_storage) on in-memory tables. `_style`
    /// is always [`ClipStyle::Fast`]; it keeps the argument list that
    /// existing callers pass.
    #[must_use]
    pub fn new(cfg: DpConfig, _style: ClipStyle, noise: N) -> Self {
        Self::for_storage(cfg, noise)
    }
}

impl<N: RowNoise, T: EmbeddingStorage> EagerDpSgd<N, T> {
    /// Creates an eager DP-SGD(F) optimizer for tables of backend `T`.
    #[must_use]
    pub fn for_storage(cfg: DpConfig, noise: N) -> Self {
        let (core, backend) = (DpStep::new(cfg, noise, 0), PhantomData);
        Self { core, backend }
    }

    /// The hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        self.core.config()
    }
}

impl<N: RowNoise, T: EmbeddingStorage> Optimizer<T> for EagerDpSgd<N, T> {
    fn name(&self) -> &'static str {
        "DP-SGD(F)"
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
        // Table stage: every row of every table receives fresh noise, in
        // one chunk-addressed sweep per table — the paper's tuned
        // multi-threaded baseline (§6).
        lazydp_obs::span!(step_table_noise);
        let exec = Executor::new(self.core.config().threads);
        let TableStage {
            grads,
            noise,
            counters,
            iter,
            noise_std,
            lr,
        } = self.core.table_stage();
        for (t, (table, g)) in model.tables.iter_mut().zip(grads.iter()).enumerate() {
            dense_noisy_update(
                t as u32, table, g, noise, iter, noise_std, lr, &exec, counters,
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
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let model = Dlrm::new(DlrmConfig::tiny(3, 40, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(3, 40, 96));
        (model, ds)
    }

    fn max_table_diff(a: &Dlrm, b: &Dlrm) -> f32 {
        a.tables
            .iter()
            .zip(b.tables.iter())
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f32::max)
    }

    #[test]
    fn eager_step_is_thread_count_independent() {
        // The parallel dense noisy update is wired into the real step
        // path: any `threads` value trains the bitwise-same model.
        let (model0, ds) = setup();
        let run = |threads: usize| -> Dlrm {
            let mut model = model0.clone();
            let cfg = DpConfig::new(0.9, 0.8, 0.05, 16).with_threads(threads);
            let mut opt = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(21));
            for it in 0..3 {
                let batch = ds.batch_of(&(it * 16..(it + 1) * 16).collect::<Vec<_>>());
                opt.step(&mut model, &batch, None);
            }
            model
        };
        let base = run(1);
        for threads in [2usize, 3, 8] {
            let m = run(threads);
            assert_eq!(
                max_table_diff(&base, &m),
                0.0,
                "threads {threads} changed the tables"
            );
            for (a, b) in base.top.layers().iter().zip(m.top.layers().iter()) {
                assert_eq!(a.weight.max_abs_diff(&b.weight), 0.0);
            }
        }
    }

    #[test]
    fn zero_noise_huge_clip_equals_plain_sgd() {
        let (model0, ds) = setup();
        let batch = ds.batch_of(&(0..16).collect::<Vec<_>>());
        let mut dp_model = model0.clone();
        let mut sgd_model = model0.clone();
        let cfg = DpConfig::new(0.0, 1e9, 0.05, 16);
        let mut dp = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(1));
        let mut sgd = crate::sgd::SgdOptimizer::new(0.05);
        for _ in 0..3 {
            dp.step(&mut dp_model, &batch, None);
            sgd.step(&mut sgd_model, &batch, None);
        }
        assert!(
            max_table_diff(&dp_model, &sgd_model) < 1e-5,
            "σ=0, C=∞ DP-SGD must equal SGD"
        );
    }

    #[test]
    fn dense_update_work_scales_with_table_size_not_batch() {
        let (mut model, ds) = setup();
        let total_rows: u64 = model.tables.iter().map(|t| t.rows() as u64).sum();
        let dim = model.config().embedding_dim as u64;
        let mlp_params = (model.bottom.params() + model.top.params()) as u64;
        let mut opt = EagerDpSgd::new(
            DpConfig::paper_default(8),
            ClipStyle::Fast,
            CounterNoise::new(5),
        );
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        opt.step(&mut model, &batch, None);
        let c = opt.counters();
        assert_eq!(c.gaussian_samples, total_rows * dim + mlp_params);
        assert_eq!(c.table_rows_written, total_rows);
        assert_eq!(c.steps, 1);
    }

    #[test]
    fn clipping_activates_for_tiny_threshold() {
        let (mut model, ds) = setup();
        let mut opt = EagerDpSgd::new(
            DpConfig::new(0.0, 1e-4, 0.05, 16),
            ClipStyle::Fast,
            CounterNoise::new(5),
        );
        let batch = ds.batch_of(&(0..16).collect::<Vec<_>>());
        let stats = opt.step(&mut model, &batch, None);
        assert!(stats.clipped_fraction > 0.9, "tiny C must clip almost all");
    }

    #[test]
    fn empty_batch_still_adds_noise() {
        let (mut model, _) = setup();
        let snapshot = model.tables[0].clone();
        let mut opt = EagerDpSgd::new(
            DpConfig::paper_default(8),
            ClipStyle::Fast,
            CounterNoise::new(5),
        );
        let stats = opt.step(&mut model, &MiniBatch::default(), None);
        assert_eq!(stats.realized_batch, 0);
        assert!(
            model.tables[0].max_abs_diff(&snapshot) > 0.0,
            "DP mechanism must add noise even on empty batches"
        );
    }

    #[test]
    fn private_training_with_mild_noise_still_learns() {
        let (mut model, ds) = setup();
        let eval = ds.batch_of(&(0..96).collect::<Vec<_>>());
        let before = model.loss(&eval);
        // Large batch, mild noise: utility should survive (the paper's
        // premise that DP RecSys training is viable, §2.5 / Denison).
        let mut opt = EagerDpSgd::new(
            DpConfig::new(0.3, 5.0, 0.1, 48),
            ClipStyle::Fast,
            CounterNoise::new(13),
        );
        for it in 0..30 {
            let ids: Vec<usize> = (0..48).map(|k| (it * 48 + k) % 96).collect();
            let batch = ds.batch_of(&ids);
            opt.step(&mut model, &batch, None);
        }
        let after = model.loss(&eval);
        assert!(
            after < before,
            "DP training should still learn: {before:.4} -> {after:.4}"
        );
    }
}
