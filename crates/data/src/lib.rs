//! Workload substrate: synthetic datasets, access traces, batch loaders,
//! and the LazyDP lookahead loader.
//!
//! The paper trains MLPerf DLRM on embedding traces "drawn from a uniform
//! distribution" (§6) and studies skewed traces built from the Kaggle DAC
//! dataset where 90% of accesses concentrate on 36% / 10% / 0.6% of
//! entries (Fig. 13(d)). Real Criteo data is not redistributable, so this
//! crate generates synthetic equivalents (see DESIGN.md, substitution 3):
//!
//! * [`trace`] — per-table row distributions (uniform / calibrated Zipf),
//!   including the skew-calibration solver and the expected-unique-rows
//!   analysis used by the performance model;
//! * [`dataset`] — a deterministic synthetic Criteo-style dataset with a
//!   planted logistic ground truth (so training measurably learns);
//! * [`batch`] — the [`MiniBatch`] container;
//! * [`loader`] — fixed-size and Poisson-sampling batch sources
//!   (Opacus-style `DPDataLoader`);
//! * [`queue`] — the [`LookaheadLoader`] that drives a batch source
//!   through the two-entry `InputQueue` of Algorithm 1 (lines 3–5),
//!   giving LazyDP one-batch lookahead.
//!
//! # Example: one-batch lookahead
//!
//! ```
//! use lazydp_data::{
//!     BatchSource, FixedBatchLoader, LookaheadLoader, SyntheticConfig, SyntheticDataset,
//! };
//!
//! let make = || {
//!     let ds = SyntheticDataset::new(SyntheticConfig::small(2, 64, 256));
//!     FixedBatchLoader::new(ds, 32)
//! };
//! let mut plain = make();
//! let (first, second) = (plain.next_batch(), plain.next_batch());
//! let mut look = LookaheadLoader::new(make());
//! // Each iteration sees its own batch and the next one, so the next
//! // batch's rows are known before the step runs — what LazyDP's lazy
//! // noise flush keys off.
//! let (cur, next) = look.advance();
//! assert_eq!((cur, next), (&first, &second));
//! assert_eq!(look.finish_iteration(), first);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod batch;
pub mod dataset;
pub mod loader;
pub mod queue;
pub mod trace;

pub use batch::MiniBatch;
pub use dataset::{SyntheticConfig, SyntheticDataset};
pub use loader::{BatchSource, FixedBatchLoader, PoissonLoader};
pub use queue::LookaheadLoader;
pub use trace::{AccessDistribution, SkewLevel};
