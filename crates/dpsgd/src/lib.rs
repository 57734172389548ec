//! DP-SGD baseline optimizers: the algorithms LazyDP is compared against.
//!
//! The paper's §2.4–§2.5 and §7.4 compare LazyDP against SGD, eager
//! DP-SGD and EANA on the same DLRM model (DP-AdaFEST, from the related
//! work, is a fourth baseline); all are implemented here
//! **functionally** (real clipping, real Box–Muller noise, real updates)
//! with instrumentation counters that the calibrated performance model
//! cross-validates against.
//! The private ones embed one shared step front half, [`DpStep`] (ghost
//! clip, MLP update + MLP noise), and add only their table-noise stage:
//!
//! | Paper name | Type | Gradient derivation | Noise target |
//! |---|---|---|---|
//! | SGD | [`SgdOptimizer`] | per-batch | none |
//! | DP-SGD(F) | [`EagerDpSgd`] | ghost norms + reweighted pass (Denison et al.) | every row of every table |
//! | EANA | [`EanaOptimizer`] | ghost norms + reweighted pass | **accessed rows only** (weaker, data-dependent privacy, §7.4; no ε: `lazydp_core` gives it no `AccountedOptimizer` impl) |
//! | DP-AdaFEST | [`AdaFestOptimizer`] | ghost norms + reweighted pass | rows of **privately selected partitions** only (Ghazi et al.; composed select-then-noise mechanism) |
//!
//! The paper's DP-SGD(B) (materialized per-example gradients) and (R)
//! (a norm pass, then a reweighted pass) release the same model as (F)
//! and are priced by `lazydp_sysmodel` for Fig. 3; the tests check (F)'s
//! fused clipping against the (B) definition,
//! `lazydp_model::Dlrm::per_example_grads`. LazyDP itself lives in
//! `lazydp-core`: the same [`DpStep`] front half, the same [`Optimizer`]
//! trait, and a deferred (lookahead-flushed) table stage.
//!
//! # Example: one eager DP-SGD(F) step
//!
//! ```
//! use lazydp_data::{SyntheticConfig, SyntheticDataset};
//! use lazydp_dpsgd::{ClipStyle, DpConfig, EagerDpSgd, Optimizer};
//! use lazydp_model::{Dlrm, DlrmConfig};
//! use lazydp_rng::counter::CounterNoise;
//! use lazydp_rng::Xoshiro256PlusPlus;
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(3);
//! let mut model = Dlrm::new(DlrmConfig::tiny(2, 64, 8), &mut rng);
//! let ds = SyntheticDataset::new(SyntheticConfig::small(2, 64, 32));
//! let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
//!
//! let cfg = DpConfig::paper_default(8); // σ=1.1, C=1.0, η=0.05
//! let mut opt = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(1));
//! let stats = opt.step(&mut model, &batch, None);
//! assert_eq!(stats.realized_batch, 8);
//! // Eager DP-SGD noised *every* row of every table — the §4 bottleneck.
//! assert!(opt.counters().gaussian_samples >= 2 * 64 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod adafest;
pub mod clip;
pub mod config;
pub mod counters;
pub mod eager;
pub mod eana;
pub mod noise_update;
pub mod optimizer;
pub mod sgd;
pub mod step;

pub use adafest::{AdaFestConfig, AdaFestOptimizer};
pub use clip::clip_weights_into;
pub use config::DpConfig;
pub use counters::KernelCounters;
pub use eager::{ClipStyle, EagerDpSgd};
pub use eana::EanaOptimizer;
pub use optimizer::{Optimizer, StepStats};
pub use sgd::SgdOptimizer;
pub use step::{DpStep, TableStage};
