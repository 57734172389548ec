//! The row-access surface shared by every embedding-table backend.
//!
//! Training only ever touches an embedding table through a handful of
//! operations: gather a batch's rows, apply a coalesced sparse update,
//! and sweep the whole table (eager DP-SGD's noise, LazyDP's release, a
//! checkpoint restore). [`EmbeddingStorage`] captures exactly that
//! surface, so every optimizer, the DLRM forward/backward
//! (`lazydp-model`), and checkpointing are written once and run
//! unchanged against either backend:
//!
//! * [`EmbeddingTable`] — dense in-memory rows (the default),
//! * `lazydp_store::StoredTable` — the out-of-core paged backend, where
//!   only a bounded page cache is resident and the cold majority of the
//!   table lives on disk (or, never written, nowhere at all).
//!
//! The contract is *bitwise*: for the same logical row contents, every
//! backend must return identical bytes from its [`RowReader`], apply
//! identical arithmetic in [`sparse_update`], and hand
//! [`sweep_rows_mut`] every row once by its global index — backends
//! change where a row lives, never what happens to it. Row borrows are
//! scoped — to a [`reader`] that batch reads share, or to a closure —
//! rather than returned from the table, because a paged backend can
//! only pin a row while it holds its page in the cache.
//!
//! [`reader`]: EmbeddingStorage::reader
//! [`sparse_update`]: EmbeddingStorage::sparse_update
//! [`sweep_rows_mut`]: EmbeddingStorage::sweep_rows_mut

use crate::sparse::SparseGrad;
use crate::table::EmbeddingTable;
use lazydp_exec::Executor;
use lazydp_tensor::Matrix;

/// Reads rows of one table for as long as it lives: the batch read path
/// of [`EmbeddingStorage`] (the bag forward, [`gather`], checkpoint
/// capture). Opening one reader per batch, rather than one access per
/// row, lets a paged backend take its engine lock once for the batch.
///
/// [`gather`]: EmbeddingStorage::gather
pub trait RowReader {
    /// Row `r` (a `dim`-wide slice).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range for the table.
    fn row(&mut self, r: u64) -> &[f32];
}

/// The in-memory reader is the table itself: a plain slice index.
impl RowReader for &EmbeddingTable {
    fn row(&mut self, r: u64) -> &[f32] {
        EmbeddingTable::row(self, usize::try_from(r).expect("row fits usize"))
    }
}

/// Row-granular access to one embedding table, independent of where the
/// rows live (RAM or disk pages). See the module docs for the
/// bitwise contract between backends.
pub trait EmbeddingStorage: std::fmt::Debug + Send + Sync {
    /// The batch reader [`reader`](Self::reader) opens.
    type Reader<'a>: RowReader
    where
        Self: 'a;

    /// Number of rows (embedding vectors).
    fn rows(&self) -> usize;

    /// Embedding dimension.
    fn dim(&self) -> usize;

    /// Bytes of weight payload the table logically holds (`rows × dim ×
    /// 4`, regardless of how much of it is resident).
    fn bytes(&self) -> u64;

    /// Opens a reader over the rows. A paged backend holds its page
    /// cache for the reader's lifetime, so any other access to the same
    /// table — from this thread too — waits until the reader is dropped.
    fn reader(&self) -> Self::Reader<'_>;

    /// Runs `f` on row `r` (a `dim`-wide slice) through a one-row
    /// [`reader`](Self::reader).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    fn with_row<R>(&self, r: u64, f: impl FnOnce(&[f32]) -> R) -> R {
        f(self.reader().row(r))
    }

    /// Runs `f` on row `r` mutably; the backend persists whatever `f`
    /// writes.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    fn with_row_mut<R>(&mut self, r: u64, f: impl FnOnce(&mut [f32]) -> R) -> R;

    /// Writes the whole table in one pass: calls `f(first_row, rows)` on
    /// runs of whole rows, starting at row `first_row`, that together
    /// cover every row once, on `exec`, and persists what `f` writes.
    /// The grouping is the backend's (fixed-size chunks of one region in
    /// memory, a page walk on disk), so `f` must address its work by
    /// row, never by call.
    fn sweep_rows_mut(&mut self, exec: &Executor, f: impl Fn(u64, &mut [f32]) + Sync);

    /// Total number of `f32` parameters.
    fn elements(&self) -> usize {
        self.rows() * self.dim()
    }

    /// Gathers `indices` into a dense `indices.len() × dim` matrix, in
    /// input order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    fn gather(&self, indices: &[u64]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.dim());
        let mut rows = self.reader();
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(rows.row(idx));
        }
        out
    }

    /// Sparse SGD update (Fig. 4(a)): `row[idx] -= lr * grad_row` for
    /// every entry, coalesced or not, on every backend.
    ///
    /// # Panics
    ///
    /// Panics if the gradient dimension differs from the table's.
    fn sparse_update(&mut self, grad: &SparseGrad, lr: f32) {
        assert_eq!(grad.dim(), self.dim(), "sparse grad dim mismatch");
        for (idx, values) in grad.iter() {
            self.with_row_mut(idx, |row| {
                for (w, &g) in row.iter_mut().zip(values.iter()) {
                    *w -= lr * g;
                }
            });
        }
    }

    /// Hints that the given **sorted, deduplicated** rows are about to
    /// be accessed, letting a paged backend fault their pages in ahead
    /// of the access. A no-op for resident backends. Purely a
    /// performance hint: it never changes any row's value.
    fn prefetch_rows(&self, sorted_rows: &[u64]) {
        let _ = sorted_rows;
    }

    /// Materializes the table as a dense in-memory [`EmbeddingTable`]
    /// (bitwise copy of every row).
    fn to_dense_table(&self) -> EmbeddingTable {
        let mut out = EmbeddingTable::zeros(self.rows(), self.dim());
        let mut rows = self.reader();
        for r in 0..self.rows() {
            out.row_mut(r).copy_from_slice(rows.row(r as u64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn dense(rows: usize, dim: usize) -> EmbeddingTable {
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        EmbeddingTable::init_uniform(rows, dim, &mut rng)
    }

    /// Exercises a backend purely through the trait surface and checks
    /// it against the dense reference (shared with `lazydp_store`'s
    /// tests in spirit: any backend must pass this).
    fn check_backend<T: EmbeddingStorage>(mut backend: T, reference: &EmbeddingTable) {
        assert_eq!(backend.rows(), reference.rows());
        assert_eq!(backend.dim(), reference.dim());
        assert_eq!(backend.bytes(), reference.bytes());
        assert_eq!(backend.elements(), reference.elements());
        for r in 0..reference.rows() as u64 {
            backend.with_row(r, |row| assert_eq!(row, reference.row(r as usize)));
        }
        let idx = [0u64, 7, 3, 7];
        assert_eq!(backend.gather(&idx), reference.gather(&idx));
        // Mutate through the trait, then re-read.
        let mut grad = SparseGrad::from_entries(
            reference.dim(),
            vec![
                (2, vec![1.0; reference.dim()]),
                (9, vec![-0.5; reference.dim()]),
            ],
        );
        let _ = grad.coalesce();
        let mut want = reference.clone();
        want.sparse_update(&grad, 0.1);
        backend.sparse_update(&grad, 0.1);
        backend.with_row_mut(4, |row| row[0] = 42.0);
        want.row_mut(4)[0] = 42.0;
        // A sweep on two threads: every row exactly once, in whole
        // rows, addressed by its global index.
        let dim = reference.dim();
        backend.sweep_rows_mut(&Executor::new(2), |first, rows| {
            assert!(!rows.is_empty() && rows.len() % dim == 0);
            for (r, row) in (first..).zip(rows.chunks_mut(dim)) {
                row[dim - 1] += r as f32;
            }
        });
        for r in 0..want.rows() {
            want.row_mut(r)[dim - 1] += r as f32;
        }
        backend.prefetch_rows(&[2, 9]); // must be value-invisible
        assert_eq!(backend.to_dense_table(), want);
    }

    #[test]
    fn dense_table_satisfies_the_trait_contract() {
        // More rows than one sweep chunk holds, and not a multiple of it.
        let d = dense(2 * 512 + 37, 4);
        check_backend(d.clone(), &d);
    }
}
