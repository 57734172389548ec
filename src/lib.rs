//! # LazyDP — facade crate
//!
//! This crate re-exports the whole LazyDP reproduction workspace behind a
//! single dependency. See `ARCHITECTURE.md` for the system tour,
//! `README.md` for build/run commands, and `DESIGN.md` for the
//! paper-to-crate mapping.
//!
//! Reproduction of: *LazyDP: Co-Designing Algorithm-Software for Scalable
//! Training of Differentially Private Recommendation Models* (ASPLOS 2024).
//!
//! # Example
//!
//! ```
//! use lazydp::data::{FixedBatchLoader, SyntheticConfig, SyntheticDataset};
//! use lazydp::lazy::{LazyDpConfig, PrivateTrainer};
//! use lazydp::model::{Dlrm, DlrmConfig};
//! use lazydp::rng::counter::CounterNoise;
//! use lazydp::rng::Xoshiro256PlusPlus;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(1);
//! let model = Dlrm::new(DlrmConfig::tiny(2, 64, 8), &mut rng);
//! let ds = SyntheticDataset::new(SyntheticConfig::small(2, 64, 128));
//! let loader = FixedBatchLoader::new(ds, 16);
//! let cfg = LazyDpConfig::paper_default(16);
//! let mut trainer = PrivateTrainer::make_private(
//!     model, cfg, loader, CounterNoise::new(7), 16.0 / 128.0);
//! trainer.train_steps(3);
//! let _released = trainer.finish();
//! ```

#![forbid(unsafe_code)]

pub use lazydp_core as lazy;
pub use lazydp_data as data;
pub use lazydp_dpsgd as dpsgd;
pub use lazydp_embedding as embedding;
pub use lazydp_exec as exec;
pub use lazydp_fault as fault;
pub use lazydp_model as model;
pub use lazydp_obs as obs;
pub use lazydp_privacy as privacy;
pub use lazydp_rng as rng;
pub use lazydp_store as store;
pub use lazydp_sysmodel as sysmodel;
pub use lazydp_tensor as tensor;
