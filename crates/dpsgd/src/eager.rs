//! Eager DP-SGD: the three baseline variants DP-SGD(B), DP-SGD(R),
//! DP-SGD(F) (paper §2.4–2.5).
//!
//! All three produce the *same* noisy gradient — they differ only in how
//! the per-example gradient norms (and the clipped aggregate) are
//! derived, which is exactly how the paper frames them:
//!
//! * **(B)** — materialize per-example gradients, clip, sum (Abadi et
//!   al.; memory-hungry).
//! * **(R)** — derive per-example norms first (recomputation), then one
//!   *reweighted* per-batch pass (Lee & Kifer). Here the reweighted pass
//!   is the model's one clipped backward, `Dlrm::backward_clipped_with`,
//!   whose clip closure ignores the ghost norms and writes the weights
//!   from the materialized norms.
//! * **(F)** — derive the norms with the ghost-norm trick (no
//!   per-example weight grads at all) inside that same clipped backward
//!   (Denison et al.). The paper uses (F) as the strongest baseline.
//!
//! All three then perform the identical **dense noisy update** on every
//! embedding table — the §4 bottleneck.

use crate::clip::{clip_weights, clipped_fraction};
use crate::config::DpConfig;
use crate::counters::KernelCounters;
use crate::noise_update::{dense_noisy_update_with, par_dense_noisy_update};
use crate::optimizer::{Optimizer, StepStats};
use crate::step::{DpStep, TableStage};
use lazydp_data::MiniBatch;
use lazydp_embedding::SparseGrad;
use lazydp_model::{Dlrm, DlrmGrads, DlrmScratch, MlpGrads};
use lazydp_rng::RowNoise;

/// How per-example clipping is computed (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClipStyle {
    /// DP-SGD(B): materialized per-example gradients.
    PerExample,
    /// DP-SGD(R): norms via materialization, aggregate via reweighting.
    Reweighted,
    /// DP-SGD(F): ghost norms + reweighting.
    Fast,
}

impl ClipStyle {
    /// The paper's name for the variant.
    #[must_use]
    pub fn paper_name(&self) -> &'static str {
        match self {
            Self::PerExample => "DP-SGD(B)",
            Self::Reweighted => "DP-SGD(R)",
            Self::Fast => "DP-SGD(F)",
        }
    }
}

/// Eager (non-lazy) DP-SGD optimizer: the shared [`DpStep`] front half
/// plus a dense noisy update of every table. With [`ClipStyle::Fast`]
/// and a single noise thread the whole step runs allocation-free at
/// steady state (pinned by `tests/alloc_steady_state_eager.rs`); the
/// (B) and (R) styles still materialize per-example state.
#[derive(Debug, Clone)]
pub struct EagerDpSgd<N> {
    core: DpStep<N>,
    style: ClipStyle,
}

impl<N: RowNoise> EagerDpSgd<N> {
    /// Creates an eager DP-SGD optimizer.
    #[must_use]
    pub fn new(cfg: DpConfig, style: ClipStyle, noise: N) -> Self {
        Self {
            core: DpStep::new(cfg, noise, 0),
            style,
        }
    }

    /// The hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        self.core.config()
    }
}

/// The DP-SGD(B)/(R) clipped aggregate and clipped fraction: both
/// materialize per-example gradients for the norms; (B) then sums the
/// clipped per-example gradients, (R) hands the clip weights to the
/// clipped backward instead. The reference side of
/// `b_r_f_produce_mathematically_identical_models`.
fn materialized_aggregate(
    style: ClipStyle,
    model: &Dlrm,
    batch: &MiniBatch,
    c: f64,
) -> (DlrmGrads, f64) {
    let cache = model.forward(batch);
    let mut gl = Vec::new();
    Dlrm::logit_grads_into(&cache, &batch.labels, false, &mut gl);
    let mut per_ex = model.per_example_grads(&cache, batch, &gl);
    for g in &mut per_ex {
        g.coalesce();
    }
    let norms: Vec<f64> = per_ex.iter().map(DlrmGrads::norm_sq).collect();
    let w = clip_weights(&norms, c);
    let clipped = clipped_fraction(&norms, c);
    if style == ClipStyle::Reweighted {
        let mut grads = DlrmGrads::default();
        model.backward_clipped_with(
            &cache,
            batch,
            &gl,
            |_, out| *out = w,
            &mut grads,
            &mut DlrmScratch::default(),
        );
        return (grads, clipped);
    }
    let mut sum = DlrmGrads {
        bottom: MlpGrads::zeros_like(&model.bottom),
        top: MlpGrads::zeros_like(&model.top),
        tables: model
            .tables
            .iter()
            .map(|t| SparseGrad::new(t.dim()))
            .collect(),
    };
    for (g, &wi) in per_ex.iter().zip(w.iter()) {
        sum.bottom.axpy(wi, &g.bottom);
        sum.top.axpy(wi, &g.top);
        for (acc, gt) in sum.tables.iter_mut().zip(g.tables.iter()) {
            for (idx, vals) in gt.iter() {
                let entry = acc.push_zeros(idx);
                for (e, &v) in entry.iter_mut().zip(vals.iter()) {
                    *e = wi * v;
                }
            }
        }
    }
    (sum, clipped)
}

impl<N: RowNoise> Optimizer for EagerDpSgd<N> {
    fn name(&self) -> &'static str {
        self.style.paper_name()
    }

    fn step(
        &mut self,
        model: &mut Dlrm,
        batch: &MiniBatch,
        _next: Option<&MiniBatch>,
    ) -> StepStats {
        self.core.begin_step();
        let clipped = if self.style == ClipStyle::Fast || batch.is_empty() {
            self.core.clipped_aggregate(model, batch)
        } else {
            let c = self.core.config().max_grad_norm;
            let (grads, clipped) = materialized_aggregate(self.style, model, batch, c);
            self.core.counters.rows_gathered += batch.total_lookups() as u64;
            self.core.scratch.grads = grads;
            clipped
        };
        self.core.scale_and_coalesce();
        self.core.dense_update(model);
        // Table stage: every row of every table receives fresh noise.
        lazydp_obs::span!(step_table_noise);
        let threads = self.core.config().threads;
        let TableStage {
            grads,
            noise,
            counters,
            noise_buf,
            iter,
            noise_std,
            lr,
        } = self.core.table_stage();
        for (t, (table, g)) in model.tables.iter_mut().zip(grads.iter()).enumerate() {
            let t = t as u32;
            if threads > 1 {
                // The paper's tuned multi-threaded baseline (§6): the
                // chunk-addressed parallel sweep, identical to the
                // sequential kernel.
                par_dense_noisy_update(t, table, g, noise, iter, noise_std, lr, threads, counters);
            } else {
                dense_noisy_update_with(
                    t, table, g, noise, iter, noise_std, lr, counters, noise_buf,
                );
            }
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
    fn b_r_f_produce_mathematically_identical_models() {
        // Paper §2.5: "the output model trained with DP-SGD(R) is
        // mathematically identical to the original … DP-SGD" and
        // DP-SGD(F) likewise. With a counter-based noise source the
        // three variants must match to float tolerance.
        let (model0, ds) = setup();
        let cfg = DpConfig::new(0.9, 0.7, 0.05, 16);
        let mut finals = Vec::new();
        for style in [
            ClipStyle::PerExample,
            ClipStyle::Reweighted,
            ClipStyle::Fast,
        ] {
            let mut model = model0.clone();
            let mut opt = EagerDpSgd::new(cfg, style, CounterNoise::new(77));
            for it in 0..4 {
                let batch = ds.batch_of(&(it * 16..(it + 1) * 16).collect::<Vec<_>>());
                opt.step(&mut model, &batch, None);
            }
            finals.push(model);
        }
        let d_br = max_table_diff(&finals[0], &finals[1]);
        let d_bf = max_table_diff(&finals[0], &finals[2]);
        assert!(d_br < 1e-4, "B vs R diverged: {d_br}");
        assert!(d_bf < 1e-4, "B vs F diverged: {d_bf}");
        // MLP weights too.
        for l in 0..finals[0].top.layers().len() {
            let d = finals[0].top.layers()[l]
                .weight
                .max_abs_diff(&finals[2].top.layers()[l].weight);
            assert!(d < 1e-4, "top layer {l} diverged: {d}");
        }
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
