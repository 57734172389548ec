//! Experiment harness: regenerates every table and figure of the LazyDP
//! paper's evaluation.
//!
//! Two kinds of artifacts are produced:
//!
//! 1. **Model-scale experiments** ([`experiments`]): each paper figure
//!    (Fig. 3, 5, 6, 10–14) plus the §7.1/§7.2 in-text numbers,
//!    regenerated through the calibrated performance model of
//!    `lazydp-sysmodel` at the paper's true scale (96 GB+ models), with
//!    the paper's reported values printed alongside for comparison.
//!    Run them with `cargo run -p lazydp-bench --bin figures -- all`.
//! 2. **Real-hardware microbenchmarks** (`benches/`, Criterion): the
//!    same kernel-level claims demonstrated live on the host machine —
//!    Box–Muller sampling is compute-bound, dense noisy updates are
//!    memory-bound and scale with table size, LazyDP's lazy+ANS update
//!    does not.
//!
//! The [`xval`] module ties the two together: it runs the *functional*
//! optimizers at small scale and checks their instrumented work counters
//! against the performance model's op-count formulas.
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
//! assert!(experiment_ids().iter().any(|(id, _)| *id == "scaling"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adafest;
pub mod experiments;
pub mod faults;
pub mod kernels;
pub mod leak;
pub mod obs;
pub mod roofline;
pub mod scaling;
pub mod storage;
pub mod table;
pub mod utility;
pub mod xval;

pub use experiments::{all_experiments, experiment_ids, full_report, run_experiment};
pub use table::Table;
