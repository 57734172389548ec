//! Embedding-layer substrate: tables, sum-pooled bags, sparse gradients.
//!
//! Embedding layers are the heart of the LazyDP paper. A table is an array
//! of `dim`-wide vectors indexed by a categorical feature; a training
//! iteration *gathers* a handful of rows (0.03% of MLPerf DLRM's table per
//! iteration, paper §1), pools them, and — under non-private SGD —
//! *sparsely* updates only the gathered rows (paper Fig. 4(a)). DP-SGD
//! instead turns that into a dense noisy update of every row
//! (Fig. 4(b)), which is the bottleneck LazyDP removes.
//!
//! This crate provides the functional pieces:
//!
//! * [`EmbeddingTable`] — the weight storage with sparse/dense update
//!   primitives,
//! * [`bag`] — the gather + sum-pooling forward/backward kernels and
//!   their CSR lookup batch, [`BagIndices`](bag::BagIndices),
//! * [`SparseGrad`] — per-row gradients, written coalesced by the bag
//!   backward over the batch's distinct rows,
//! * [`AccessTracker`] — per-row access statistics used to validate the
//!   skewed-workload generators against Fig. 13(d)'s definitions,
//! * [`ShardSpec`] — the row→partition hash DP-AdaFEST selects and
//!   noises by (its only user),
//! * [`EmbeddingStorage`] — the row-access trait the two table backends
//!   ([`EmbeddingTable`] in memory, `lazydp_store::StoredTable` out of
//!   core) share, so the whole training stack is generic over where
//!   rows live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod access;
pub mod bag;
pub mod shard;
pub mod sparse;
pub mod storage;
pub mod table;

pub use access::AccessTracker;
pub use shard::ShardSpec;
pub use sparse::SparseGrad;
pub use storage::{EmbeddingStorage, RowReader};
pub use table::EmbeddingTable;
