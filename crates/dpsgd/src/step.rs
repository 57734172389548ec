//! The DP step every private optimizer shares.
//!
//! Eager DP-SGD(F), EANA, DP-AdaFEST and LazyDP run the *same* front
//! half each iteration — forward, fused ghost-norm clip, reweighted
//! backward straight into each table's distinct rows, `1/B` scaling,
//! MLP update plus MLP noise
//! (Algorithm 1 "omits the MLP layers because both apply the identical
//! protection") — and differ only in **which embedding rows receive
//! noise, and when**. [`DpStep`] is that front half, written once: it
//! owns the hyper-parameters, the noise source, the iteration counter,
//! the work counters and the one step-scoped scratch. An
//! optimizer embeds a `DpStep`, drives
//!
//! ```text
//! begin_step → clipped_aggregate → dense_update
//!            → (its own table stage, over `table_stage()`) → finish_step
//! ```
//!
//! and keeps only its table stage. After warm-up sizes the scratch, the
//! front half performs **zero heap allocations** (pinned per algorithm
//! by the `alloc_steady_state*` integration tests).

use crate::clip::{clip_weights_into, clipped_fraction};
use crate::config::DpConfig;
use crate::counters::KernelCounters;
use crate::optimizer::StepStats;
use lazydp_data::MiniBatch;
use lazydp_embedding::{EmbeddingStorage, SparseGrad};
use lazydp_exec::Executor;
use lazydp_model::{Dlrm, DlrmCache, DlrmGrads, DlrmScratch};
use lazydp_rng::RowNoise;

/// Dense-parameter noise namespaces of the two MLPs (one id per layer
/// from the base up; AdaFEST's selection draws start at 128).
const BOTTOM_PARAM_BASE: u32 = 0;
const TOP_PARAM_BASE: u32 = 64;

/// Step-scoped scratch: the forward cache, the gradient buffers and
/// every working vector a step needs, lazily sized on the first step.
/// The one scratch of all four DP optimizers; non-private SGD borrows its
/// forward/backward half.
#[derive(Debug, Clone, Default)]
pub(crate) struct StepScratch {
    pub(crate) cache: DlrmCache,
    pub(crate) model_scratch: DlrmScratch,
    pub(crate) grads: DlrmGrads,
    pub(crate) logit_g: Vec<f32>,
    norms: Vec<f64>,
}

/// The shared front half of a DP training step (see the module docs).
#[derive(Debug, Clone)]
pub struct DpStep<N> {
    cfg: DpConfig,
    noise: N,
    iter: u64,
    /// Cumulative logical-work counters (plain tallies: the front half
    /// and every table stage add the work they perform).
    pub counters: KernelCounters,
    pub(crate) scratch: StepScratch,
}

/// What a table stage works on once the front half is done: the
/// averaged, coalesced per-table gradients and the pieces of the step
/// core its noise kernels need, borrowed disjointly.
#[derive(Debug)]
pub struct TableStage<'a, N> {
    /// One coalesced sparse gradient per embedding table.
    pub grads: &'a mut [SparseGrad],
    /// The noise source.
    pub noise: &'a mut N,
    /// The work counters.
    pub counters: &'a mut KernelCounters,
    /// The current iteration (1-based).
    pub iter: u64,
    /// Per-coordinate noise std `σ·C/B`.
    pub noise_std: f32,
    /// Learning rate η.
    pub lr: f32,
}

impl<N: RowNoise> DpStep<N> {
    /// Creates the step core. `iter` is the number of steps already
    /// taken: 0 for a fresh run, the checkpointed iteration on resume.
    #[must_use]
    pub fn new(cfg: DpConfig, noise: N, iter: u64) -> Self {
        Self {
            cfg,
            noise,
            iter,
            counters: KernelCounters::new(),
            scratch: StepScratch::default(),
        }
    }

    /// The hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        &self.cfg
    }

    /// The noise source.
    #[must_use]
    pub fn noise(&self) -> &N {
        &self.noise
    }

    /// Current training iteration (1-based after the first step).
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// Opens a step: advances and returns the iteration.
    pub fn begin_step(&mut self) -> u64 {
        self.iter += 1;
        self.iter
    }

    /// Derives the clipped, summed gradient `Σ_i min(1, C/‖g_i‖)·g_i`
    /// into the scratch grads with the fused ghost-clipping backward —
    /// one gradient chain yields the ghost norms, the clip factors and
    /// the clipped aggregate — and returns the clipped fraction. Table
    /// entries are divided by B there, MLP gradients in
    /// [`dense_update`](Self::dense_update). Does not touch the noise
    /// source, so LazyDP may run it concurrently with its lookahead
    /// flush.
    pub fn clipped_aggregate<T: EmbeddingStorage>(
        &mut self,
        model: &Dlrm<T>,
        batch: &MiniBatch,
    ) -> f64 {
        let s = &mut self.scratch;
        if batch.is_empty() {
            // Poisson sampling may deal an empty batch; DP still adds
            // noise (the mechanism releases a noisy zero gradient).
            s.grads.reset_for(model);
            return 0.0;
        }
        {
            lazydp_obs::span!(step_forward);
            model.forward_with(batch, &mut s.cache, &mut s.model_scratch);
        }
        self.counters.rows_gathered += batch.total_lookups() as u64;
        self.counters.duplicates_removed += batch.duplicate_lookups() as u64;
        Dlrm::logit_grads_into(&s.cache, &batch.labels, false, &mut s.logit_g);
        let c = self.cfg.max_grad_norm;
        let norms = &mut s.norms;
        {
            lazydp_obs::span!(step_backward_clip);
            // The norms are copied out of the closure so the clipped
            // fraction can be reported without re-deriving them.
            model.backward_clipped_scaled_with(
                &s.cache,
                batch,
                &s.logit_g,
                |n, w| {
                    norms.clear();
                    norms.extend_from_slice(n);
                    clip_weights_into(n, c, w);
                },
                1.0 / self.cfg.nominal_batch as f32,
                &mut s.grads,
                &mut s.model_scratch,
            );
        }
        clipped_fraction(norms, c)
    }

    /// The MLP half of the update: the MLP gradients averaged over the
    /// nominal batch, then gradient plus dense noise on every bottom/top
    /// parameter, every iteration, for every algorithm. Each layer is one
    /// fused noise-and-apply sweep ([`Mlp::apply_noisy`]) on a
    /// `DpConfig::threads`-wide executor.
    ///
    /// [`Mlp::apply_noisy`]: lazydp_model::Mlp::apply_noisy
    pub fn dense_update<T: EmbeddingStorage>(&mut self, model: &mut Dlrm<T>) {
        let std = self.cfg.noise_std_per_coord();
        let lr = self.cfg.lr;
        let inv_b = 1.0 / self.cfg.nominal_batch as f32;
        let exec = Executor::new(self.cfg.threads);
        let grads = &mut self.scratch.grads;
        {
            lazydp_obs::span!(step_dense_update);
            for (mlp, g, base) in [
                (&mut model.bottom, &mut grads.bottom, BOTTOM_PARAM_BASE),
                (&mut model.top, &mut grads.top, TOP_PARAM_BASE),
            ] {
                g.scale(inv_b);
                mlp.apply_noisy(g, &self.noise, self.iter, base, std, lr, &exec);
            }
        }
        self.counters.gaussian_samples += (model.bottom.params() + model.top.params()) as u64;
    }

    /// Hands the table stage its inputs (see [`TableStage`]).
    pub fn table_stage(&mut self) -> TableStage<'_, N> {
        TableStage {
            grads: &mut self.scratch.grads.tables,
            noise: &mut self.noise,
            counters: &mut self.counters,
            iter: self.iter,
            noise_std: self.cfg.noise_std_per_coord(),
            lr: self.cfg.lr,
        }
    }

    /// Closes a step: counts it (in the work counters and in the
    /// `trainer.steps` registry counter) and reports its diagnostics.
    pub fn finish_step(&mut self, batch: &MiniBatch, clipped_fraction: f64) -> StepStats {
        self.counters.steps += 1;
        lazydp_obs::metrics().trainer.steps.incr();
        StepStats {
            realized_batch: batch.batch_size(),
            clipped_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    #[test]
    fn dense_update_is_bitwise_the_same_at_any_width() {
        // The bottom MLP's first layer has 13 × 1 301 = 16 913 weights:
        // two chunks of the fused noise-and-apply sweep, and an odd
        // count, so its bias seek starts mid-pair.
        let cfg = DlrmConfig {
            bottom_layers: vec![1301, 8],
            ..DlrmConfig::tiny(2, 40, 8)
        };
        let model0 = Dlrm::new(cfg, &mut Xoshiro256PlusPlus::seed_from(3));
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 40, 32));
        let batch = ds.batch_of(&(0..16).collect::<Vec<_>>());
        let run = |threads: usize| {
            let mut model = model0.clone();
            let cfg = DpConfig::new(0.9, 0.8, 0.05, 16).with_threads(threads);
            let mut step = DpStep::new(cfg, CounterNoise::new(4), 0);
            step.begin_step();
            step.clipped_aggregate(&model, &batch);
            step.dense_update(&mut model);
            let layers = model.bottom.layers().iter().chain(model.top.layers());
            layers
                .flat_map(|l| l.weight.as_slice().iter().chain(&l.bias))
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let base = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), base, "threads {threads}");
        }
    }
}
