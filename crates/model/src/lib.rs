//! DLRM: the deep learning recommendation model the paper trains.
//!
//! Architecture (paper Fig. 1): a bottom MLP embeds the dense features, a
//! set of embedding tables embeds the categorical features (each sample's
//! lookups sum-pooled by [`lazydp_embedding::bag`]), a pairwise
//! dot-product **feature interaction** combines them, and a top MLP
//! produces the click logit. That is the one shape the crate builds; the
//! configurations differ only in widths and table sizes. The MLPerf (v2.1) DLRM configuration used as
//! the paper's default — 26 Criteo embedding tables, 128-dim embeddings,
//! bottom MLP 13-512-256-128, top MLP 479-1024-1024-512-256-1 ("8 MLP
//! layers … total model size of 96 GB", §6) — is available as
//! [`DlrmConfig::mlperf`], along with the RMC1/2/3 variants of
//! Fig. 13(c) and arbitrarily scaled-down versions for functional runs.
//!
//! The crate supports the three gradient-derivation styles the paper
//! compares (§2.5):
//!
//! * per-batch gradients (plain SGD, [`Dlrm::backward_with`]),
//! * materialized **per-example** gradients ([`Dlrm::per_example_grads`],
//!   the DP-SGD(B) definition, which the tests hold the clipped backward
//!   to; no optimizer runs it),
//! * the **clipped backward** ([`Dlrm::backward_clipped_with`]): one
//!   gradient chain yields the per-example gradient L2 norms without
//!   materializing per-example weight gradients (*ghost norms*), a clip
//!   closure turns them into weights, and the clipped aggregate comes
//!   from the same chain's cached activation gradients. It is the one
//!   clipped composition, and DP-SGD(F) clips the ghost norms. It is
//!   pinned against
//!   `per_example_grads` and by end-to-end release digests, not against
//!   a second composition.
//!
//! Each pass has one body, taking caller-owned buffers (`_into` /
//! `_with`); [`Dlrm::forward`] and [`Dlrm::loss`] are allocating
//! conveniences over those bodies.
//!
//! # Example
//!
//! ```
//! use lazydp_data::{SyntheticConfig, SyntheticDataset};
//! use lazydp_model::{Dlrm, DlrmConfig};
//! use lazydp_rng::Xoshiro256PlusPlus;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(7);
//! let model = Dlrm::new(DlrmConfig::tiny(2, 64, 8), &mut rng);
//! let ds = SyntheticDataset::new(SyntheticConfig::small(2, 64, 32));
//! let batch = ds.batch_of(&[0, 1, 2, 3]);
//! let cache = model.forward(&batch);
//! assert_eq!(cache.logits().len(), 4); // one click logit per example
//! assert!(model.loss(&batch).is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
pub mod dlrm;
pub mod interaction;
pub mod metrics;
pub mod mlp;

pub use config::DlrmConfig;
pub use dlrm::{Dlrm, DlrmCache, DlrmGrads, DlrmScratch};
pub use metrics::{accuracy, auc, calibration, log_loss};
pub use mlp::{LayerGrad, Mlp, MlpCache, MlpGrads};
