//! Deterministic random-number substrate for the LazyDP reproduction.
//!
//! The LazyDP paper (ASPLOS 2024) identifies Gaussian **noise sampling** as
//! one of the two fundamental bottlenecks of DP-SGD training for
//! recommendation models: PyTorch's `torch.normal()` is a Box–Muller
//! implementation that executes ~101 AVX compute instructions per loaded
//! vector (paper §4.3, Fig. 6). This crate provides:
//!
//! * [`SplitMix64`] and [`Xoshiro256PlusPlus`]: small, fast, well-tested
//!   deterministic PRNGs (the latter is the workhorse stream generator).
//! * [`counter`]: *counter-based* (stateless) streams, so that the noise
//!   destined for `(table, row, iteration)` is a pure function of the seed.
//!   This is what lets the test suite prove that LazyDP's deferred noise
//!   updates reconstruct exactly the embedding values that eager DP-SGD
//!   would have produced (paper Fig. 7).
//! * [`gaussian`]: Box–Muller sampling (the paper's noise-sampling kernel),
//!   including the instruction-count constants used by the calibrated
//!   performance model in `lazydp-sysmodel`.
//! * [`subsample`]: Poisson subsampling and fixed-size sampling used by the
//!   DP data loader (Opacus-style Poisson sampler, paper Fig. 9).
//! * [`stats`]: a small statistical test kit (moments, normal CDF,
//!   Kolmogorov–Smirnov) used to validate aggregated noise sampling
//!   (paper Theorem 5.1) distributionally.
//!
//! # Example
//!
//! ```
//! use lazydp_rng::{Prng, Xoshiro256PlusPlus, gaussian};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(42);
//! let mut buf = vec![0.0f32; 1024];
//! gaussian::fill_standard_normal(&mut rng, &mut buf);
//! let mean: f32 = buf.iter().sum::<f32>() / buf.len() as f32;
//! assert!(mean.abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod counter;
pub mod gaussian;
pub mod prng;
pub mod stats;
pub mod subsample;

pub use counter::{CounterRng, CounterStream, RowNoise};
pub use gaussian::{fill_standard_normal, GaussianSampler};
pub use prng::{Prng, SplitMix64, Xoshiro256PlusPlus};
pub use subsample::{poisson_sample, sample_without_replacement};
