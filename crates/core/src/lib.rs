//! LazyDP: lazy noise update + aggregated noise sampling for scalable
//! differentially private training of recommendation models.
//!
//! This crate is the paper's primary contribution (§5). Eager DP-SGD must
//! add Gaussian noise to *every* embedding row every iteration, turning
//! SGD's sparse update into a dense table-wide traversal (§4). LazyDP
//! restores sparsity with two co-designed ideas:
//!
//! 1. **Lazy noise update** (§5.2.1, Algorithm 1): noise for a row is
//!    deferred until the iteration *just before* the row is next
//!    gathered. A [`HistoryTable`] records, per row, the last iteration
//!    whose noise has been applied; `lazydp_data::LookaheadLoader` (the
//!    two-entry `InputQueue`) supplies one batch of lookahead to know
//!    which rows need flushing. Because a deferred update lands before
//!    the row is read, every value the training computation *observes* — and the
//!    final model after [`LazyDpOptimizer::finalize_model`] — is identical to
//!    eager DP-SGD (Fig. 7; proven exactly by this crate's tests using
//!    counter-based noise).
//! 2. **Aggregated noise sampling** (ANS, §5.2.2, Theorem 5.1): the `n`
//!    deferred draws `N(0, σ²C²)` are replaced by a single draw
//!    `N(0, n·σ²C²)`, eliminating the compute bottleneck of Box–Muller
//!    sampling. The substitution is distributional, so the privacy
//!    guarantee is untouched (same σ, q, T — see `lazydp-privacy`).
//!
//! Scaling machinery on top of the algorithm (see `ARCHITECTURE.md`):
//! the per-step [`LookaheadFlush`] runs beside the step's dense compute
//! through one `Executor::overlap` at every executor width (a worker
//! thread of its own only when the width is above 1), bitwise invisibly
//! in the trained model.
//!
//! The user-facing entry point mirrors the paper's Fig. 9 wrapper:
//!
//! ```
//! use lazydp_core::{LazyDpConfig, PrivateTrainer};
//! use lazydp_data::{FixedBatchLoader, SyntheticConfig, SyntheticDataset};
//! use lazydp_model::{Dlrm, DlrmConfig};
//! use lazydp_rng::counter::CounterNoise;
//! use lazydp_rng::Xoshiro256PlusPlus;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(1);
//! let model = Dlrm::new(DlrmConfig::tiny(2, 64, 8), &mut rng);
//! let ds = SyntheticDataset::new(SyntheticConfig::small(2, 64, 256));
//! let loader = FixedBatchLoader::new(ds, 32);
//! let cfg = LazyDpConfig::paper_default(32);
//! let mut trainer = PrivateTrainer::make_private(
//!     model, cfg, loader, CounterNoise::new(7), 32.0 / 256.0);
//! trainer.train_steps(4);
//! let (eps, _order) = trainer.epsilon(1e-6);
//! assert!(eps > 0.0);
//! let _final_model = trainer.finish(); // flushes all pending noise
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounted;
pub mod ans;
pub mod checkpoint;
pub mod history;
pub mod optimizer;
pub mod overhead;
pub mod plan;
pub mod recovery;
pub mod wrapper;

pub use accounted::AccountedOptimizer;
pub use ans::aggregated_std;
pub use checkpoint::Checkpoint;
pub use history::HistoryTable;
pub use optimizer::{LazyDpConfig, LazyDpOptimizer};
pub use overhead::{history_table_bytes, input_queue_bytes, OverheadReport};
pub use plan::{LookaheadFlush, NoisePlanEntry};
pub use recovery::{CheckpointError, CheckpointStore};
pub use wrapper::PrivateTrainer;
