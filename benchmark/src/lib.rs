//! The repo's end-to-end benchmark harness. See `README.md` in this
//! directory for the workloads, the metrics and how to read a result.
//!
//! The harness measures the system from outside only: it times calls
//! into the `lazydp` facade's public functions and reads the public
//! `lazydp::obs::snapshot::capture_metrics()` / `KernelCounters` counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod json;
pub mod outcome;
pub mod probes;
pub mod results;
pub mod runner;
pub mod session;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod untraced;
pub mod verify;
