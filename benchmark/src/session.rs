//! Building a workload's training session out of the library's public
//! constructors, and the two views the harness takes of it:
//!
//! * [`Session`] — the user path, one `PrivateTrainer` per workload
//!   (for SGD one `Optimizer::step` loop): what the untraced run times.
//! * [`Parts`] — the same pieces held separately, so the traced run can
//!   drive the `train_steps` body itself and put a span around each call.
//!
//! Model init, dataset, Poisson draws and noise all derive from the
//! benchmark seed here; the library sees only the generated inputs.

use crate::spec::{Algo, Backend, Workload, DELTA, EXEC_WIDTH};
use lazydp::data::{LookaheadLoader, MiniBatch, PoissonLoader, SyntheticDataset};
use lazydp::dpsgd::{ClipStyle, DpConfig, EagerDpSgd, KernelCounters, Optimizer, SgdOptimizer};
use lazydp::embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp::fault::checksum::Fnv1a64;
use lazydp::lazy::{AccountedOptimizer, Checkpoint, LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::privacy::{Mechanism, RdpAccountant};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::prng::splitmix64_mix;
use lazydp::rng::Xoshiro256PlusPlus;
use lazydp::store::{StorageConfig, StoredTable};
use std::path::Path;

/// The input pipeline every workload uses: the synchronous lookahead
/// loader over honest Poisson sampling.
pub type Loader = LookaheadLoader<PoissonLoader>;

/// The noise source every DP workload uses.
pub type Noise = CounterNoise;

/// Independent sub-seeds of the one benchmark seed.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Model initialisation.
    pub model: u64,
    /// Dataset contents.
    pub data: u64,
    /// Poisson batch draws.
    pub poisson: u64,
    /// DP noise.
    pub noise: u64,
}

impl Seeds {
    /// Derives the four streams from `--seed`.
    #[must_use]
    pub fn derive(seed: u64) -> Self {
        let sub = |k: u64| splitmix64_mix(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Self {
            model: sub(1),
            data: sub(2),
            poisson: sub(3),
            noise: sub(4),
        }
    }
}

/// The paper-default DP parameters at the benchmark's executor width
/// (shards 1).
#[must_use]
pub fn dp_config(batch: usize) -> DpConfig {
    DpConfig::paper_default(batch).with_threads(EXEC_WIDTH)
}

/// The `table_stored` storage geometry: 64-row pages, half of each
/// table's pages cached, spill files under `spill`.
#[must_use]
pub fn storage_config(rows: u64, spill: &Path) -> StorageConfig {
    let page_rows = 64usize;
    let pages = (rows as usize).div_ceil(page_rows);
    StorageConfig::new()
        .with_page_rows(page_rows)
        .with_cache_pages((pages / 2).max(1))
        .with_spill_dir(spill)
}

/// An in-memory model initialised from `seed`.
#[must_use]
pub fn memory_model(cfg: &DlrmConfig, seed: u64) -> Dlrm {
    Dlrm::new(cfg.clone(), &mut Xoshiro256PlusPlus::seed_from(seed))
}

/// The same model built directly on `StoredTable`s — same RNG draw
/// order as [`memory_model`], so bitwise the same weights, without the
/// transient dense copy `from_dense` would put into peak RSS.
///
/// # Panics
///
/// Panics on a spill-file I/O error: the contract's workloads are ones
/// on which no operation fails.
#[must_use]
pub fn stored_model(cfg: &DlrmConfig, seed: u64, spill: &Path) -> Dlrm<StoredTable> {
    let mut rng = Xoshiro256PlusPlus::seed_from(seed);
    Dlrm::try_new_with(cfg.clone(), &mut rng, |rows, dim, rng| {
        StoredTable::init_uniform(rows, dim, rng, &storage_config(rows as u64, spill))
    })
    .expect("spill the stored model")
}

/// The workload's loader and its sampling rate `q`.
#[must_use]
pub fn loader(dataset: SyntheticDataset, batch: usize, seed: u64) -> (Loader, f64) {
    let poisson = PoissonLoader::new(dataset, batch, seed);
    let q = poisson.sampling_rate();
    (LookaheadLoader::new(poisson), q)
}

/// FNV-1a-64 over every released weight: MLP weights and biases in
/// layer order, then every table row in global row order, as
/// little-endian `f32` bytes. Backend-independent by construction.
#[must_use]
pub fn release_digest<T: EmbeddingStorage>(model: &Dlrm<T>) -> u64 {
    let mut h = Fnv1a64::new();
    let mut bytes: Vec<u8> = Vec::new();
    let mut absorb = |h: &mut Fnv1a64, values: &[f32]| {
        bytes.clear();
        bytes.extend(values.iter().flat_map(|v| v.to_le_bytes()));
        h.update(&bytes);
    };
    for layer in model.bottom.layers().iter().chain(model.top.layers()) {
        absorb(&mut h, layer.weight.as_slice());
        absorb(&mut h, &layer.bias);
    }
    for table in &model.tables {
        for r in 0..table.rows() as u64 {
            table.with_row(r, |row| absorb(&mut h, row));
        }
    }
    h.finish()
}

/// Largest absolute difference between two models' released weights.
#[must_use]
pub fn max_abs_diff<A: EmbeddingStorage, B: EmbeddingStorage>(a: &Dlrm<A>, b: &Dlrm<B>) -> f32 {
    let mut worst = 0.0f32;
    let mut fold = |x: &[f32], y: &[f32]| {
        for (p, q) in x.iter().zip(y) {
            worst = worst.max((p - q).abs());
        }
    };
    assert_eq!(a.config(), b.config(), "models of one shape");
    for (la, lb) in a
        .bottom
        .layers()
        .iter()
        .chain(a.top.layers())
        .zip(b.bottom.layers().iter().chain(b.top.layers()))
    {
        fold(la.weight.as_slice(), lb.weight.as_slice());
        fold(&la.bias, &lb.bias);
    }
    for (ta, tb) in a.tables.iter().zip(&b.tables) {
        assert_eq!(ta.rows(), tb.rows());
        for r in 0..ta.rows() as u64 {
            ta.with_row(r, |ra| tb.with_row(r, |rb| fold(ra, rb)));
        }
    }
    worst
}

/// Total embedding rows of a model.
#[must_use]
pub fn table_rows<T: EmbeddingStorage>(model: &Dlrm<T>) -> u64 {
    model.tables.iter().map(|t| t.rows() as u64).sum()
}

/// What the untraced run needs from a workload, whichever algorithm and
/// backend is behind it.
pub trait Session {
    /// One training step through the user-facing call; returns the
    /// realized batch size.
    fn step(&mut self) -> usize;
    /// Brings the model to its releasable state.
    fn finalize(&mut self);
    /// The spent ε at [`DELTA`], for the DP algorithms.
    fn epsilon(&self) -> Option<f64>;
    /// The optimizer's cumulative work counters.
    fn counters(&self) -> KernelCounters;
    /// Mean loss of the current model on `batch`.
    fn loss(&self, batch: &MiniBatch) -> f64;
    /// [`release_digest`] of the current model.
    fn digest(&self) -> u64;
}

impl<O, T> Session for PrivateTrainer<Loader, O, T>
where
    O: AccountedOptimizer<T>,
    T: EmbeddingStorage,
{
    fn step(&mut self) -> usize {
        self.train_steps(1)[0].realized_batch
    }

    fn finalize(&mut self) {
        PrivateTrainer::finalize(self);
    }

    fn epsilon(&self) -> Option<f64> {
        Some(PrivateTrainer::epsilon(self, DELTA).0)
    }

    fn counters(&self) -> KernelCounters {
        PrivateTrainer::counters(self)
    }

    fn loss(&self, batch: &MiniBatch) -> f64 {
        self.model().loss(batch)
    }

    fn digest(&self) -> u64 {
        release_digest(self.model())
    }
}

/// A training session held as its separate pieces.
#[derive(Debug)]
pub struct Parts<O, T: EmbeddingStorage> {
    /// The model.
    pub model: Dlrm<T>,
    /// The optimizer.
    pub opt: O,
    /// The input pipeline.
    pub loader: Loader,
    /// Sampling rate `q` of the loader.
    pub q: f64,
}

impl Session for Parts<SgdOptimizer, EmbeddingTable> {
    fn step(&mut self) -> usize {
        let (cur, next) = self.loader.advance();
        let stats = self.opt.step(&mut self.model, cur, Some(next));
        let _ = self.loader.finish_iteration();
        stats.realized_batch
    }

    fn finalize(&mut self) {
        self.opt.finalize(&mut self.model);
    }

    fn epsilon(&self) -> Option<f64> {
        None
    }

    fn counters(&self) -> KernelCounters {
        Optimizer::counters(&self.opt)
    }

    fn loss(&self, batch: &MiniBatch) -> f64 {
        self.model.loss(batch)
    }

    fn digest(&self) -> u64 {
        release_digest(&self.model)
    }
}

/// What the harness needs from an optimizer beyond [`Optimizer`]: the
/// mechanism to account (none for SGD), a checkpoint where the library
/// can take one, and the user-facing session around it.
pub trait BenchOptimizer<T: EmbeddingStorage + 'static>: Optimizer<T> + Sized + 'static {
    /// The per-step mechanism, `None` for non-private SGD.
    fn dp_mechanism(&self) -> Option<Mechanism> {
        None
    }

    /// `Checkpoint::capture` where the optimizer supports it.
    fn checkpoint(&self, _model: &Dlrm<T>) -> Option<Checkpoint> {
        None
    }

    /// The untraced [`Session`]: a `PrivateTrainer` around the parts
    /// for the DP algorithms, the bare loop for SGD.
    fn into_session(parts: Parts<Self, T>) -> Box<dyn Session>;
}

fn private_trainer<O, T>(parts: Parts<O, T>) -> Box<dyn Session>
where
    O: AccountedOptimizer<T> + 'static,
    T: EmbeddingStorage + 'static,
{
    let Parts {
        model,
        opt,
        loader,
        q,
    } = parts;
    Box::new(PrivateTrainer::make_private_optimizer(
        model, opt, loader, q,
    ))
}

impl<T: EmbeddingStorage + 'static> BenchOptimizer<T> for LazyDpOptimizer<Noise> {
    fn dp_mechanism(&self) -> Option<Mechanism> {
        Some(AccountedOptimizer::<T>::mechanism(self))
    }

    fn checkpoint(&self, model: &Dlrm<T>) -> Option<Checkpoint> {
        Some(Checkpoint::capture(model, self))
    }

    fn into_session(parts: Parts<Self, T>) -> Box<dyn Session> {
        private_trainer(parts)
    }
}

impl BenchOptimizer<EmbeddingTable> for EagerDpSgd<Noise> {
    fn dp_mechanism(&self) -> Option<Mechanism> {
        Some(self.mechanism())
    }

    fn into_session(parts: Parts<Self, EmbeddingTable>) -> Box<dyn Session> {
        private_trainer(parts)
    }
}

impl BenchOptimizer<EmbeddingTable> for SgdOptimizer {
    fn into_session(parts: Parts<Self, EmbeddingTable>) -> Box<dyn Session> {
        Box::new(parts)
    }
}

/// The harness's own accountant for check (3): composes `steps` steps
/// of a Gaussian mechanism at (σ, q) one at a time, as the trainer does.
#[must_use]
pub fn own_epsilon(sigma: f64, q: f64, steps: u64) -> f64 {
    let mut acc = RdpAccountant::new();
    for _ in 0..steps {
        acc.compose(sigma, q, 1);
    }
    acc.epsilon(DELTA).0
}

/// Visitor over the concrete `(optimizer, backend)` pair of a workload:
/// the four combinations have four different types, and both runs need
/// to be written once.
pub trait PartsVisitor {
    /// What the visit produces.
    type Out;
    /// Called with the workload's freshly built parts.
    fn visit<O: BenchOptimizer<T>, T: EmbeddingStorage + 'static>(
        self,
        parts: Parts<O, T>,
    ) -> Self::Out;
}

/// Builds the workload's model, optimizer and loader from `seed` and
/// hands them to `visitor`.
pub fn with_parts<V: PartsVisitor>(
    w: &Workload,
    smoke: bool,
    seed: u64,
    spill: &Path,
    visitor: V,
) -> V::Out {
    let seeds = Seeds::derive(seed);
    let cfg = w.model_config(smoke);
    let (loader, q) = loader(w.dataset(smoke, seeds.data), w.batch, seeds.poisson);
    let dp = dp_config(w.batch);
    let noise = CounterNoise::new(seeds.noise);
    match (w.algo, w.backend) {
        (Algo::LazyDp, Backend::Memory) => {
            let model = memory_model(&cfg, seeds.model);
            let opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, noise);
            visitor.visit(Parts {
                model,
                opt,
                loader,
                q,
            })
        }
        (Algo::LazyDp, Backend::Stored) => {
            let model = stored_model(&cfg, seeds.model, spill);
            let opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, noise);
            visitor.visit(Parts {
                model,
                opt,
                loader,
                q,
            })
        }
        (Algo::Eager, Backend::Memory) => {
            let model = memory_model(&cfg, seeds.model);
            let opt = EagerDpSgd::new(dp, ClipStyle::Fast, noise);
            visitor.visit(Parts {
                model,
                opt,
                loader,
                q,
            })
        }
        (Algo::Sgd, Backend::Memory) => {
            let model = memory_model(&cfg, seeds.model);
            let opt = SgdOptimizer::new(dp.lr);
            visitor.visit(Parts {
                model,
                opt,
                loader,
                q,
            })
        }
        (Algo::Eager | Algo::Sgd, Backend::Stored) => {
            unreachable!("eager DP-SGD and SGD are memory-only in the library")
        }
    }
}

struct IntoSession;

impl PartsVisitor for IntoSession {
    type Out = Box<dyn Session>;

    fn visit<O: BenchOptimizer<T>, T: EmbeddingStorage + 'static>(
        self,
        parts: Parts<O, T>,
    ) -> Self::Out {
        O::into_session(parts)
    }
}

/// Builds the workload's untraced [`Session`].
#[must_use]
pub fn build_session(w: &Workload, smoke: bool, seed: u64, spill: &Path) -> Box<dyn Session> {
    with_parts(w, smoke, seed, spill, IntoSession)
}
