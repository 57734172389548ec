//! The `make_private` user interface (paper Fig. 9).
//!
//! The paper packages LazyDP as a wrapper that transforms a (model,
//! optimizer, data_loader) triple into LazyDP-enabled instances.
//! [`PrivateTrainer`] is the Rust equivalent: it owns the model, an
//! [`AccountedOptimizer`] (a [`LazyDpOptimizer`] for the Fig. 9 call),
//! a [`LookaheadLoader`] (the Fig. 9(b) "LazyDP data loader" with its
//! input queue), and an [`RdpAccountant`] that tracks the (ε, δ) budget
//! as training proceeds.

use crate::accounted::AccountedOptimizer;
use crate::optimizer::{LazyDpConfig, LazyDpOptimizer};
use lazydp_data::{BatchSource, LookaheadLoader};
use lazydp_dpsgd::{KernelCounters, StepStats};
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_model::Dlrm;
use lazydp_privacy::RdpAccountant;
use lazydp_rng::RowNoise;

/// A private training session. Two constructors:
/// [`make_private`](Self::make_private) is the paper's Fig. 9 call
/// (LazyDP over the synchronous lookahead loader);
/// [`make_private_optimizer`](Self::make_private_optimizer) composes
/// the pieces explicitly — any [`AccountedOptimizer`] (`O`: LazyDP,
/// DP-AdaFEST, eager DP-SGD) over a [`LookaheadLoader`] of any
/// [`BatchSource`] (`L = LookaheadLoader<S>`), and any embedding backend
/// (`T`: e.g. disk-backed tables via
/// `model.try_map_tables(|_, t| StoredTable::from_dense(&t, &storage))`).
/// Every combination gets the same loop and per-step accounting of the
/// mechanism the optimizer reports, and all of them train the
/// bitwise-same model given the same algorithm, batch stream and noise
/// seed — the backend changes where embedding rows live, never their
/// values.
#[derive(Debug)]
pub struct PrivateTrainer<L, O, T: EmbeddingStorage = EmbeddingTable> {
    model: Dlrm<T>,
    optimizer: O,
    loader: L,
    accountant: RdpAccountant,
    sampling_rate: f64,
    finalized: bool,
}

impl<S, N, T> PrivateTrainer<LookaheadLoader<S>, LazyDpOptimizer<N>, T>
where
    S: BatchSource,
    N: RowNoise,
    T: EmbeddingStorage,
{
    /// Wraps a model, batch source, and noise source into a LazyDP
    /// training session (the Fig. 9(a) `LazyDP.make_private` call) with
    /// the synchronous one-batch-lookahead loader.
    ///
    /// `sampling_rate` is the Poisson inclusion probability `q` used for
    /// privacy accounting (`batch / dataset_len`; see
    /// `PoissonLoader::sampling_rate`).
    ///
    /// The executor width for the DP noise kernels rides in on
    /// `cfg.dp.threads` (default: the machine's available parallelism,
    /// or the `LAZYDP_THREADS` override) — set it explicitly with
    /// [`LazyDpConfig::with_threads`]. The GEMMs underneath
    /// forward/backward follow the *process-global* width
    /// (`lazydp_exec::set_global_threads` / `LAZYDP_THREADS`) instead.
    /// Any combination trains the bitwise-same model.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_rate ∉ (0, 1]`.
    #[must_use]
    pub fn make_private(
        model: Dlrm<T>,
        cfg: LazyDpConfig,
        source: S,
        noise: N,
        sampling_rate: f64,
    ) -> Self {
        let optimizer = LazyDpOptimizer::new(cfg, &model, noise);
        Self::make_private_optimizer(
            model,
            optimizer,
            LookaheadLoader::new(source),
            sampling_rate,
        )
    }
}

impl<S, O, T> PrivateTrainer<LookaheadLoader<S>, O, T>
where
    S: BatchSource,
    O: AccountedOptimizer<T>,
    T: EmbeddingStorage,
{
    /// Wraps an arbitrary [`AccountedOptimizer`] — eager DP-SGD,
    /// AdaFEST, LazyDP — into a training session with per-step privacy
    /// accounting of whatever mechanism the optimizer reports.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_rate ∉ (0, 1]`.
    #[must_use]
    pub fn make_private_optimizer(
        model: Dlrm<T>,
        optimizer: O,
        loader: LookaheadLoader<S>,
        sampling_rate: f64,
    ) -> Self {
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "sampling rate must be in (0,1], got {sampling_rate}"
        );
        Self {
            model,
            optimizer,
            loader,
            accountant: RdpAccountant::new(),
            sampling_rate,
            finalized: false,
        }
    }

    /// Runs `n` training iterations, returning per-step diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if called after [`finish`](Self::finish)-style
    /// finalization via [`finalize`](Self::finalize).
    pub fn train_steps(&mut self, n: usize) -> Vec<StepStats> {
        assert!(!self.finalized, "trainer already finalized");
        let mechanism = self.optimizer.mechanism();
        let mut stats = Vec::with_capacity(n);
        for _ in 0..n {
            let (cur, next) = self.loader.advance();
            stats.push(self.optimizer.step(&mut self.model, cur, Some(next)));
            let _ = self.loader.finish_iteration();
            self.accountant
                .compose_mechanism(&mechanism, self.sampling_rate, 1);
            lazydp_obs::metrics().privacy.compositions.incr();
        }
        stats
    }

    /// The (ε, best-order) privacy guarantee spent so far at `delta`.
    /// The ε is mirrored into the `privacy.spent_epsilon` gauge — it is
    /// a public quantity (the privacy statement itself), so surfacing it
    /// leaks nothing per-example.
    #[must_use]
    pub fn epsilon(&self, delta: f64) -> (f64, u32) {
        let (eps, order) = self.accountant.epsilon(delta);
        lazydp_obs::metrics().privacy.spent_epsilon.set_f64(eps);
        (eps, order)
    }

    /// The model as currently trained (pending noise **not** yet
    /// flushed — for evaluation *inside* the training loop only; never
    /// release this state).
    #[must_use]
    pub fn model(&self) -> &Dlrm<T> {
        &self.model
    }

    /// The optimizer's work counters.
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.optimizer.counters()
    }

    /// Flushes all pending noise in place (threat model §3). Training
    /// may not continue afterwards.
    pub fn finalize(&mut self) {
        if !self.finalized {
            self.optimizer.finalize(&mut self.model);
            self.finalized = true;
        }
    }

    /// Finalizes and returns the releasable model.
    #[must_use]
    pub fn finish(mut self) -> Dlrm<T> {
        self.finalize();
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{FixedBatchLoader, PoissonLoader, SyntheticConfig, SyntheticDataset};
    use lazydp_dpsgd::{AdaFestConfig, AdaFestOptimizer};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn dataset(samples: usize) -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::small(2, 64, samples))
    }

    fn model() -> Dlrm {
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        Dlrm::new(DlrmConfig::tiny(2, 64, 8), &mut rng)
    }

    #[test]
    fn make_private_trains_and_accounts() {
        let ds = dataset(256);
        let loader = PoissonLoader::new(ds, 32, 5);
        let q = loader.sampling_rate();
        let cfg = LazyDpConfig::new(lazydp_dpsgd::DpConfig::new(0.5, 2.0, 0.05, 32), true);
        let mut trainer =
            PrivateTrainer::make_private(model(), cfg, loader, CounterNoise::new(3), q);
        let stats = trainer.train_steps(10);
        assert_eq!(stats.len(), 10);
        let (eps, order) = trainer.epsilon(1e-6);
        assert!(eps > 0.0 && eps.is_finite(), "ε = {eps} (order {order})");
        // More steps strictly increase the spent budget.
        let _ = trainer.train_steps(10);
        let (eps2, _) = trainer.epsilon(1e-6);
        assert!(eps2 > eps);
        let final_model = trainer.finish();
        assert!(final_model.tables[0]
            .as_slice()
            .iter()
            .all(|w| w.is_finite()));
    }

    #[test]
    fn trained_model_is_independent_of_the_threads_knob() {
        let run = |threads: usize| -> Dlrm {
            let ds = dataset(128);
            let loader = FixedBatchLoader::new(ds, 16);
            let cfg = LazyDpConfig::paper_default(16).with_threads(threads);
            let mut t = PrivateTrainer::make_private(
                model(),
                cfg,
                loader,
                CounterNoise::new(4),
                16.0 / 128.0,
            );
            let _ = t.train_steps(5);
            t.finish()
        };
        let base = run(1);
        for threads in [2usize, 8] {
            let m = run(threads);
            for (a, b) in base.tables.iter().zip(m.tables.iter()) {
                assert_eq!(
                    a.max_abs_diff(b),
                    0.0,
                    "threads {threads} changed the model"
                );
            }
        }
    }

    #[test]
    fn split_train_steps_match_one_call() {
        // The harness steps one iteration per call: the loader's
        // (current, next) window and the accountant must carry across
        // calls exactly as within one.
        let run = |chunks: &[usize]| -> (Vec<u32>, f64) {
            let loader = PoissonLoader::new(dataset(256), 32, 11);
            let q = loader.sampling_rate();
            let cfg = LazyDpConfig::paper_default(32).with_threads(2);
            let mut t = PrivateTrainer::make_private(model(), cfg, loader, CounterNoise::new(9), q);
            for &n in chunks {
                let _ = t.train_steps(n);
            }
            let eps = t.epsilon(1e-6).0;
            let m = t.finish();
            let layers = m.bottom.layers().iter().chain(m.top.layers());
            let bits = m
                .tables
                .iter()
                .flat_map(EmbeddingTable::as_slice)
                .chain(layers.flat_map(|l| l.weight.as_slice().iter().chain(&l.bias)))
                .map(|x| x.to_bits())
                .collect();
            (bits, eps)
        };
        let one_call = run(&[8]);
        assert_eq!(run(&[1; 8]), one_call, "eight calls of one step");
        assert_eq!(run(&[3, 5]), one_call, "three steps then five");
    }

    #[test]
    fn accounting_is_independent_of_ans() {
        // The privacy budget depends on (σ, q, T) only — LazyDP's lazy
        // timing and ANS change nothing (paper §5: "mathematically
        // equivalent, differentially private RecSys models").
        let run = |ans: bool| -> f64 {
            let ds = dataset(256);
            let loader = FixedBatchLoader::new(ds, 32);
            let cfg = LazyDpConfig::new(lazydp_dpsgd::DpConfig::paper_default(32), ans);
            let mut t = PrivateTrainer::make_private(
                model(),
                cfg,
                loader,
                CounterNoise::new(3),
                32.0 / 256.0,
            );
            let _ = t.train_steps(20);
            t.epsilon(1e-6).0
        };
        let with_ans = run(true);
        let without = run(false);
        assert_eq!(with_ans, without, "ε must not depend on ANS");
    }

    #[test]
    fn adafest_trainer_charges_the_composed_mechanism() {
        // Same σ, same steps: the AdaFEST session must report a
        // strictly larger ε than LazyDP, because its per-step release
        // includes the noisy partition-count selection.
        let ds = dataset(256);
        let dp = lazydp_dpsgd::DpConfig::new(1.1, 1.0, 0.05, 32);
        let q = 32.0 / 256.0;
        let mut lazy = PrivateTrainer::make_private(
            model(),
            LazyDpConfig::new(dp, true),
            FixedBatchLoader::new(ds.clone(), 32),
            CounterNoise::new(6),
            q,
        );
        let mut ada = PrivateTrainer::make_private_optimizer(
            model(),
            AdaFestOptimizer::new(AdaFestConfig::new(dp, 1.0, 8.0, 8), CounterNoise::new(6)),
            LookaheadLoader::new(FixedBatchLoader::new(ds, 32)),
            q,
        );
        let _ = lazy.train_steps(10);
        let _ = ada.train_steps(10);
        let (eps_lazy, _) = lazy.epsilon(1e-6);
        let (eps_ada, _) = ada.epsilon(1e-6);
        assert!(
            eps_ada > eps_lazy,
            "selection must cost extra: {eps_ada} vs {eps_lazy}"
        );
        // The AdaFEST run is sparse: far fewer table rows written than
        // the dense-equivalent 10 steps × total rows.
        let total_rows: u64 = ada.model().tables.iter().map(|t| t.rows() as u64).sum();
        assert!(ada.counters().table_rows_written < 10 * total_rows);
        let released = ada.finish();
        assert!(released.tables[0].as_slice().iter().all(|w| w.is_finite()));
    }

    #[test]
    fn finalize_is_required_once_and_blocks_training() {
        let ds = dataset(128);
        let loader = FixedBatchLoader::new(ds, 16);
        let cfg = LazyDpConfig::paper_default(16);
        let mut trainer =
            PrivateTrainer::make_private(model(), cfg, loader, CounterNoise::new(1), 16.0 / 128.0);
        let _ = trainer.train_steps(3);
        trainer.finalize();
        trainer.finalize(); // idempotent
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = trainer.train_steps(1);
        }));
        assert!(result.is_err(), "training after finalize must panic");
    }
}
