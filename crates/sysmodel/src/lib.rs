//! Calibrated roofline performance & energy model of the paper's
//! CPU-GPU training system.
//!
//! The paper's evaluation runs on an NVIDIA V100 (32 GB HBM2, 900 GB/s) +
//! Intel Xeon E5-2698v4 (256 GB DDR4, 68 GB/s) testbed (§6) with heavily
//! hand-optimized AVX kernels (§4.2: 8.2× over stock PyTorch, 81% of
//! peak AVX). That hardware is not available to this reproduction, so —
//! per the substitution policy in DESIGN.md — this crate prices each
//! algorithm's per-iteration work with a roofline model
//! (`time = max(flops/peak, bytes/bandwidth)`) parameterized by the
//! paper's published constants.
//!
//! **Why this is trustworthy:** the op counts priced here (Gaussian
//! samples, rows streamed/gathered, GEMM flops) are the *same formulas*
//! the functional optimizers in `lazydp-dpsgd`/`lazydp-core` execute and
//! count via `KernelCounters`; tests in
//! `lazydp_bench` assert both sides agree at small scale. The roofline
//! constants themselves are validated against the paper's quoted
//! micro-measurements (215 GFLOPS at N=101 = 81% of peak; 85.5% of
//! stream bandwidth; noise sampling + noisy update = 83.1% of model
//! update at 96 GB).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), lazydp_sysmodel::OomError> {
//! use lazydp_sysmodel::{estimate, Algorithm, SystemSpec, Workload};
//!
//! let spec = SystemSpec::paper_default();
//! let wl = Workload::mlperf_default(2048);
//! let sgd = estimate(Algorithm::Sgd, &wl, &spec)?;
//! let dpf = estimate(Algorithm::DpSgdF, &wl, &spec)?;
//! let speed_ratio = dpf.breakdown.total() / sgd.breakdown.total();
//! assert!(speed_ratio > 100.0, "DP-SGD(F) is two orders slower at 96 GB");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod breakdown;
pub mod kernels;
pub mod spec;
pub mod workload;

pub use algorithms::{estimate, Algorithm, IterationEstimate, OomError};
pub use breakdown::StageBreakdown;
pub use kernels::effective_avx_gflops;
pub use spec::{CpuSpec, GpuSpec, LinkSpec, PowerSpec, SystemSpec};
pub use workload::Workload;
