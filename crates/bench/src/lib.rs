//! Experiment harness: regenerates every table and figure of the LazyDP
//! paper's evaluation.
//!
//! Two kinds of tables are produced, and neither reads a clock — time
//! on the host is measured by `benchmark/` only:
//!
//! 1. **Priced** ([`experiments`]): each paper figure (Fig. 3, 5, 6,
//!    10–14) plus the §7.1/§7.2 in-text numbers, regenerated through
//!    the calibrated performance model of `lazydp_sysmodel` at the
//!    paper's true scale (96 GB+ models), with the paper's reported
//!    values printed alongside for comparison.
//!    Run them with `cargo run -p lazydp_bench --bin figures -- all`.
//! 2. **Counted** ([`ablation`], [`adafest`], [`faults`], [`leak`],
//!    [`utility`]): the *functional* optimizers run at small scale and
//!    their instrumented work counters are tabulated, so every table
//!    is a pure function of its seeds.
//!
//! The [`xval`] module ties the two together: it checks the functional
//! counters against the performance model's op-count formulas.
//!
//! # Example: run one registered experiment programmatically
//!
//! ```
//! use lazydp_bench::{experiment_ids, run_experiment};
//!
//! // The §7.2 metadata-overhead table (pure sysmodel arithmetic).
//! let table = run_experiment("e12").expect("registered experiment");
//! assert!(table.markdown().contains("HistoryTable"));
//! // Every listed id has a runner.
//! assert!(experiment_ids().iter().any(|(id, _)| *id == "xval"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adafest;
pub mod experiments;
pub mod faults;
pub mod leak;
pub mod table;
pub mod utility;
pub mod xval;

pub use experiments::{all_experiments, experiment_ids, full_report, run_experiment};
pub use table::Table;
