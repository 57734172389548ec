//! The dense in-memory embedding table.

use crate::storage::EmbeddingStorage;
use lazydp_exec::Executor;
use lazydp_rng::Prng;

/// Rows per executor chunk of a whole-table sweep. Fixed, never derived
/// from the thread count, so a sweep's chunks are the same at any
/// executor width.
const SWEEP_CHUNK_ROWS: usize = 512;

/// An embedding table: `rows` vectors of `dim` `f32` weights.
///
/// The table is a *trainable* weight tensor (paper §1): SGD updates only
/// gathered rows, while DP-SGD must add noise to every row. Both access
/// styles are [`EmbeddingStorage`] methods —
/// `sparse_update` and `sweep_rows_mut` — shared with every other
/// backend; optimizers in `lazydp-dpsgd` and `lazydp-core` choose which
/// to invoke and account for their cost.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    rows: usize,
    dim: usize,
    weights: Vec<f32>,
}

impl EmbeddingTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `dim == 0`.
    #[must_use]
    pub fn zeros(rows: usize, dim: usize) -> Self {
        assert!(
            rows > 0 && dim > 0,
            "table must be non-empty ({rows}x{dim})"
        );
        Self {
            rows,
            dim,
            weights: vec![0.0; rows * dim],
        }
    }

    /// Creates a table initialized uniformly in `[-a, a]` with
    /// `a = 1/rows` scaled like the DLRM reference (`U(-1/√rows, 1/√rows)`).
    #[must_use]
    pub fn init_uniform<R: Prng>(rows: usize, dim: usize, rng: &mut R) -> Self {
        let mut t = Self::zeros(rows, dim);
        let a = 1.0 / (rows as f32).sqrt();
        for w in &mut t.weights {
            *w = (rng.next_f32() * 2.0 - 1.0) * a;
        }
        t
    }

    /// Number of rows (embedding vectors).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        &self.weights[r * self.dim..(r + 1) * self.dim]
    }

    /// Mutable row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        let d = self.dim;
        &mut self.weights[r * d..(r + 1) * d]
    }

    /// Flat weight view.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.weights
    }

    /// Maximum absolute element-wise difference to another table.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(
            (self.rows, self.dim),
            (other.rows, other.dim),
            "table shape mismatch"
        );
        lazydp_tensor::vecops::max_abs_diff(&self.weights, &other.weights)
    }
}

impl EmbeddingStorage for EmbeddingTable {
    type Reader<'a> = &'a EmbeddingTable;

    fn rows(&self) -> usize {
        EmbeddingTable::rows(self)
    }

    fn dim(&self) -> usize {
        EmbeddingTable::dim(self)
    }

    fn bytes(&self) -> u64 {
        (self.weights.len() * std::mem::size_of::<f32>()) as u64
    }

    fn reader(&self) -> &EmbeddingTable {
        self
    }

    fn with_row_mut<R>(&mut self, r: u64, f: impl FnOnce(&mut [f32]) -> R) -> R {
        f(self.row_mut(usize::try_from(r).expect("row fits usize")))
    }

    /// One `exec` region over the weights, in 512-row chunks.
    fn sweep_rows_mut(&mut self, exec: &Executor, f: impl Fn(u64, &mut [f32]) + Sync) {
        exec.par_for(&mut self.weights, SWEEP_CHUNK_ROWS * self.dim, |c, rows| {
            f((c * SWEEP_CHUNK_ROWS) as u64, rows);
        });
    }

    fn to_dense_table(&self) -> EmbeddingTable {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseGrad;
    use lazydp_rng::Xoshiro256PlusPlus;

    #[test]
    fn init_uniform_bounds_and_determinism() {
        let mut r1 = Xoshiro256PlusPlus::seed_from(1);
        let mut r2 = Xoshiro256PlusPlus::seed_from(1);
        let a = EmbeddingTable::init_uniform(100, 8, &mut r1);
        let b = EmbeddingTable::init_uniform(100, 8, &mut r2);
        assert_eq!(a, b);
        let bound = 1.0 / (100f32).sqrt();
        assert!(a.as_slice().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn gather_returns_rows_in_order() {
        let mut t = EmbeddingTable::zeros(4, 2);
        for r in 0..4 {
            let rf = r as f32;
            t.row_mut(r).copy_from_slice(&[rf, rf * 10.0]);
        }
        let g = t.gather(&[3, 1, 3]);
        assert_eq!(g.row(0), &[3.0, 30.0]);
        assert_eq!(g.row(1), &[1.0, 10.0]);
        assert_eq!(g.row(2), &[3.0, 30.0]);
    }

    #[test]
    fn sparse_update_touches_only_listed_rows() {
        let mut t = EmbeddingTable::zeros(5, 2);
        let grad = SparseGrad::from_entries(2, vec![(1, vec![1.0, 2.0]), (3, vec![-1.0, 0.5])]);
        t.sparse_update(&grad, 0.1);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[-0.1, -0.2]);
        assert_eq!(t.row(2), &[0.0, 0.0]);
        assert!((t.row(3)[0] - 0.1).abs() < 1e-7);
        assert!((t.row(3)[1] + 0.05).abs() < 1e-7);
        assert_eq!(t.row(4), &[0.0, 0.0]);
    }

    #[test]
    fn duplicate_indices_accumulate_in_sparse_update() {
        // An un-coalesced gradient may list the same row twice; both
        // contributions must land (matching dense scatter-add semantics).
        let mut t = EmbeddingTable::zeros(2, 1);
        let grad = SparseGrad::from_entries(1, vec![(0, vec![1.0]), (0, vec![2.0])]);
        t.sparse_update(&grad, 1.0);
        assert_eq!(t.row(0), &[-3.0]);
    }

    #[test]
    fn bytes_and_elements() {
        let t = EmbeddingTable::zeros(10, 16);
        assert_eq!(t.elements(), 160);
        assert_eq!(t.bytes(), 640);
    }

    #[test]
    #[should_panic(expected = "row 9 out of")]
    fn gather_rejects_out_of_range() {
        let t = EmbeddingTable::zeros(4, 2);
        let _ = t.gather(&[9]);
    }
}
