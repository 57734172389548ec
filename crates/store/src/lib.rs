//! Out-of-core embedding storage engine: paged tables, a clock-eviction
//! page cache, and lazy-noise-aware prefetch.
//!
//! LazyDP's central observation is that delaying noise until a row is
//! actually accessed shrinks the per-step working set from the whole
//! table to the batch's rows — which means the cold majority of the
//! table never needs to be *resident* at all. This crate turns that
//! observation into capacity: train embedding tables larger than RAM,
//! bitwise identical to the in-memory path.
//!
//! Three layers:
//!
//! * [`PageFile`] — fixed-size row pages in a plain spill file, explicit
//!   positioned I/O (no mmap, no dependencies), deleted on drop;
//! * [`PageCache`] — a bounded hot set with clock (second-chance)
//!   eviction, dirty write-back, a dense page table for residency, and
//!   hit/miss/spill counters;
//! * [`StoredTable`] — the disk-backed table implementing
//!   `lazydp_embedding::EmbeddingStorage`, so `LazyDpOptimizer`, the
//!   lookahead pending-noise flush, `finalize_model`, and checkpointing
//!   run against it unchanged; its [`StoredReader`] serves a whole batch
//!   read (a bag forward, a gather, a checkpoint capture) under one lock.
//!
//! [`StorageConfig`] carries the knobs (page size, cache capacity in
//! pages, spill directory): it is passed to the [`StoredTable`]
//! constructors (`Dlrm::try_new_with(config, rng, |rows, dim, rng|
//! StoredTable::init_uniform(rows, dim, rng, &storage))` builds a model
//! bitwise `Dlrm::new`'s that writes no page until training dirties one;
//! `StoredTable::from_dense` spills a dense table) and to
//! `Checkpoint::restore_stored` in `lazydp-core`; the
//! `LAZYDP_STORE_PAGES` environment variable
//! ([`CACHE_PAGES_ENV`]) force-overrides the cache capacity so CI can
//! exercise the eviction paths under the whole test suite.
//!
//! # Fault model
//!
//! Every page carries a `lazydp_fault::checksum::page_sum64` trailer,
//! written on every write-back and verified on every fault-in (a
//! word-parallel checksum, not the FNV-1a of the checkpoint formats:
//! spill files are scratch that no later process reads, so the trailer
//! is not a persisted format and can be as fast as the I/O it guards);
//! device failures surface as typed [`StorageError`]s,
//! transient ones absorbed by bounded retry, persistent ones by
//! degrading the table to a bitwise-identical in-memory backend.
//! Deterministic fault injection (a `lazydp_fault` plan each spill file
//! captures when it is created: `LAZYDP_FAULTS`, or a
//! `lazydp_fault::scoped` one) drives all of these paths in tests and
//! CI; see
//! `ARCHITECTURE.md` § "Fault model & recovery contract".
//!
//! # Example: a table bigger than its cache
//!
//! ```
//! use lazydp_embedding::{EmbeddingStorage, EmbeddingTable, SparseGrad};
//! use lazydp_rng::Xoshiro256PlusPlus;
//! use lazydp_store::{StorageConfig, StoredTable};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from(1);
//! let dense = EmbeddingTable::init_uniform(256, 8, &mut rng);
//! // 4 rows per page, at most 2 pages resident: ~97% of the table
//! // lives only on disk at any moment.
//! let cfg = StorageConfig::new().with_page_rows(4).with_cache_pages(2);
//! let mut stored = StoredTable::from_dense(&dense, &cfg).expect("spill");
//!
//! // Same gathers, same sparse updates, bitwise.
//! assert_eq!(stored.gather(&[0, 255, 7]), dense.gather(&[0, 255, 7]));
//! let mut grad = SparseGrad::from_entries(8, vec![(200, vec![1.0; 8])]);
//! let _ = grad.coalesce();
//! let mut expect = dense.clone();
//! expect.sparse_update(&grad, 0.05);
//! stored.sparse_update(&grad, 0.05);
//! assert_eq!(stored.to_dense_table(), expect);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod cache;
pub mod config;
pub mod error;
pub mod pagefile;
pub mod stored;

pub use cache::PageCache;
pub use config::{StorageConfig, CACHE_PAGES_ENV};
pub use error::StorageError;
pub use pagefile::{sweep_stale_spill_files, PageFile};
pub use stored::{StoredReader, StoredTable};
