//! Embedding-bag forward/backward: gather + sum pooling.
//!
//! A DLRM embedding layer gathers `pooling` rows per sample and sums
//! them into a single vector (paper §2.1: "multiple embedding vectors can
//! be gathered from the embedding table, all of which are pooled into a
//! single vector using a reduction operation"; MLPerf DLRM's reduction
//! is the sum, the only one implemented here).
//!
//! The kernels are free functions over a table and a [`BagIndices`]: a
//! bag holds no state, and the table is passed explicitly so the
//! optimizers own the weights.

use crate::sparse::SparseGrad;
use crate::storage::{EmbeddingStorage, RowReader};
use lazydp_tensor::Matrix;

/// Batched lookup structure for one table: CSR-style offsets into a flat
/// index list. Sample `i` gathers `indices[offsets[i]..offsets[i+1]]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BagIndices {
    offsets: Vec<u32>,
    indices: Vec<u64>,
}

impl BagIndices {
    /// Builds from per-sample index lists.
    #[must_use]
    pub fn from_samples(samples: &[Vec<u64>]) -> Self {
        let mut offsets = Vec::with_capacity(samples.len() + 1);
        let mut indices = Vec::new();
        offsets.push(0u32);
        for s in samples {
            indices.extend_from_slice(s);
            offsets.push(indices.len() as u32);
        }
        Self { offsets, indices }
    }

    /// Builds from a flat index list in which every sample has exactly
    /// `pooling` lookups: sample `i` gathers
    /// `indices[i·pooling..(i + 1)·pooling]`.
    ///
    /// # Panics
    ///
    /// Panics if `pooling == 0` or `indices.len()` is not a multiple of
    /// it.
    #[must_use]
    pub fn from_fixed_pooling(indices: Vec<u64>, pooling: usize) -> Self {
        assert!(pooling > 0, "pooling must be positive");
        assert_eq!(indices.len() % pooling, 0, "a partial sample");
        let offsets = (0..=indices.len())
            .step_by(pooling)
            .map(|o| o as u32)
            .collect();
        Self { offsets, indices }
    }

    /// Number of samples.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of lookups across the batch.
    #[must_use]
    pub fn total_lookups(&self) -> usize {
        self.indices.len()
    }

    /// The flat index list.
    #[must_use]
    pub fn flat_indices(&self) -> &[u64] {
        &self.indices
    }

    /// Index list of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[u64] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.indices[lo..hi]
    }
}

/// Forward: the pooled output, one row per sample (`B × dim`), into a
/// caller-owned matrix (reshaped, zeroed, and refilled; no allocation at
/// steady state). Samples with an empty index list produce a zero vector.
///
/// Generic over the table backend (any [`EmbeddingStorage`]): the
/// accumulation arithmetic is identical whether the rows come from memory
/// or disk pages. The whole batch reads through one
/// [`reader`](EmbeddingStorage::reader), so a paged table takes its
/// engine lock once per forward, not once per lookup.
///
/// # Panics
///
/// Panics if any index is out of range for `table`.
pub fn forward_into<T: EmbeddingStorage>(table: &T, batch: &BagIndices, out: &mut Matrix) {
    out.reset_zeroed(batch.batch_size(), table.dim());
    let mut rows = table.reader();
    for i in 0..batch.batch_size() {
        let row = out.row_mut(i);
        for &idx in batch.sample(i) {
            for (o, &w) in row.iter_mut().zip(rows.row(idx)) {
                *o += w;
            }
        }
    }
}

/// Backward: the per-row sparse gradient from the pooled-output gradient
/// (`B × dim`), into a caller-owned sparse gradient (reset and refilled,
/// keeping its allocations). The result is **un-coalesced** (one entry
/// per lookup) so callers can decide when to pay for coalescing —
/// mirroring the paper's separation of "gradient coalescing" as its own
/// stage (Fig. 11).
///
/// # Panics
///
/// Panics if `grad_out` has the wrong shape.
pub fn backward_into(grad_out: &Matrix, batch: &BagIndices, dim: usize, grad: &mut SparseGrad) {
    assert_eq!(
        grad_out.shape(),
        (batch.batch_size(), dim),
        "grad_out shape mismatch"
    );
    grad.reset(dim);
    for i in 0..batch.batch_size() {
        let g = grad_out.row(i);
        for &idx in batch.sample(i) {
            grad.push_zeros(idx).copy_from_slice(g);
        }
    }
}

/// Weighted backward: like [`backward_into`] but multiplies example
/// `i`'s contribution by `w[i]` — the sparse half of the clipped-aggregate
/// backward, fed the *unscaled* gradient chain so the clip factor applies
/// exactly once, at the gradient-entry write (`entry = w_i · δ_i`).
///
/// # Panics
///
/// Panics if `grad_out` has the wrong shape or
/// `w.len() != batch.batch_size()`.
pub fn backward_weighted_into(
    grad_out: &Matrix,
    batch: &BagIndices,
    w: &[f32],
    dim: usize,
    grad: &mut SparseGrad,
) {
    assert_eq!(
        grad_out.shape(),
        (batch.batch_size(), dim),
        "grad_out shape mismatch"
    );
    assert_eq!(w.len(), batch.batch_size(), "one weight per example");
    grad.reset(dim);
    for (i, &wi) in w.iter().enumerate() {
        let g = grad_out.row(i);
        for &idx in batch.sample(i) {
            let entry = grad.push_zeros(idx);
            for (e, &gv) in entry.iter_mut().zip(g.iter()) {
                *e = wi * gv;
            }
        }
    }
}

/// Per-example squared gradient norm of one bag's weights, without
/// materializing per-example gradients — the embedding half of the
/// DP-SGD(F) *ghost norm* trick (paper §2.5, Denison et al.).
///
/// Example `i`'s gradient w.r.t. row `r` is `c_{i,r} · δ_i` where
/// `c_{i,r}` is the number of times `r` occurs in the sample's lookups,
/// so `‖g_i‖² = (Σ_r c_{i,r}²) · ‖δ_i‖²`. Duplicate counts come from
/// sorting the sample's lookups into `idx_scratch` and measuring runs —
/// no hash map and no allocation at steady state (the `Σ c²` terms are
/// exact small integers, so summation order cannot change the value).
///
/// # Panics
///
/// Panics if `grad_out` has the wrong number of rows.
pub fn per_example_norm_sq_into(
    grad_out: &Matrix,
    batch: &BagIndices,
    out: &mut Vec<f64>,
    idx_scratch: &mut Vec<u64>,
) {
    assert_eq!(
        grad_out.rows(),
        batch.batch_size(),
        "grad_out rows mismatch"
    );
    out.clear();
    for i in 0..batch.batch_size() {
        idx_scratch.clear();
        idx_scratch.extend_from_slice(batch.sample(i));
        idx_scratch.sort_unstable();
        let mut c_sq = 0.0f64;
        let mut run = 0u64;
        let mut prev = 0u64;
        for &idx in idx_scratch.iter() {
            if run > 0 && idx == prev {
                run += 1;
            } else {
                c_sq += (run * run) as f64;
                prev = idx;
                run = 1;
            }
        }
        c_sq += (run * run) as f64;
        let delta_sq = lazydp_tensor::vecops::norm_sq(grad_out.row(i));
        out.push(c_sq * delta_sq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::EmbeddingTable;

    fn table_with_rows(rows: &[&[f32]]) -> EmbeddingTable {
        let dim = rows[0].len();
        let mut t = EmbeddingTable::zeros(rows.len(), dim);
        for (r, vals) in rows.iter().enumerate() {
            t.row_mut(r).copy_from_slice(vals);
        }
        t
    }

    #[test]
    fn forward_sum_and_mean() {
        let t = table_with_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[4.0, 4.0]]);
        let batch = BagIndices::from_samples(&[vec![0, 1], vec![2], vec![]]);
        let mut sum = Matrix::default();
        forward_into(&t, &batch, &mut sum);
        assert_eq!(sum.row(0), &[1.0, 2.0]);
        assert_eq!(sum.row(1), &[4.0, 4.0]);
        assert_eq!(sum.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn backward_scatter_matches_forward_structure() {
        let batch = BagIndices::from_samples(&[vec![0, 1], vec![1, 1]]);
        let grad_out = Matrix::from_vec(2, 2, vec![1.0, 2.0, 10.0, 20.0]);
        let mut g = SparseGrad::default();
        backward_into(&grad_out, &batch, 2, &mut g);
        assert_eq!(g.len(), 4, "one entry per lookup before coalescing");
        g.coalesce();
        let dense = g.to_dense_map();
        assert_eq!(dense[&0], vec![1.0, 2.0]);
        // Row 1 gets sample 0's grad once and sample 1's grad twice.
        assert_eq!(dense[&1], vec![21.0, 42.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn forward_backward_finite_difference() {
        // dL/dW check with L = sum(output): each gathered row's grad is 1.
        let mut t = table_with_rows(&[&[0.5, -0.5], &[1.5, 2.5]]);
        let batch = BagIndices::from_samples(&[vec![0, 1, 1]]);
        let grad_out = Matrix::from_vec(1, 2, vec![1.0; 2]);
        let mut g = SparseGrad::default();
        backward_into(&grad_out, &batch, 2, &mut g);
        g.coalesce();
        let mut out = Matrix::default();
        let mut loss = |t: &EmbeddingTable| -> f32 {
            forward_into(t, &batch, &mut out);
            out.as_slice().iter().sum()
        };
        let eps = 1e-3f32;
        for (idx, gvals) in g.iter() {
            for d in 0..2 {
                let orig = t.row(idx as usize)[d];
                t.row_mut(idx as usize)[d] = orig + eps;
                let up = loss(&t);
                t.row_mut(idx as usize)[d] = orig - eps;
                let down = loss(&t);
                t.row_mut(idx as usize)[d] = orig;
                let fd = (up - down) / (2.0 * eps);
                assert!(
                    (gvals[d] - fd).abs() < 1e-2,
                    "row {idx} dim {d}: {} vs {fd}",
                    gvals[d]
                );
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn ghost_norm_matches_explicit_per_example_norm() {
        let batch = BagIndices::from_samples(&[vec![0, 1], vec![2, 2, 3]]);
        let grad_out = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.5]);
        let mut ghost = Vec::new();
        per_example_norm_sq_into(&grad_out, &batch, &mut ghost, &mut Vec::new());
        // Explicit: materialize each example's sparse grad and take its norm.
        for i in 0..2 {
            let single = BagIndices::from_samples(&[batch.sample(i).to_vec()]);
            let g_i = Matrix::from_vec(1, 2, grad_out.row(i).to_vec());
            let mut sg = SparseGrad::default();
            backward_into(&g_i, &single, 2, &mut sg);
            sg.coalesce();
            let explicit = sg.norm_sq();
            assert!(
                (ghost[i] - explicit).abs() < 1e-9,
                "example {i}: ghost {} explicit {explicit}",
                ghost[i]
            );
        }
    }

    #[test]
    fn bag_indices_accessors() {
        let batch = BagIndices::from_samples(&[vec![5, 5, 2], vec![9]]);
        assert_eq!(batch.batch_size(), 2);
        assert_eq!(batch.total_lookups(), 4);
        assert_eq!(batch.sample(0), &[5, 5, 2]);
        assert_eq!(batch.sample(1), &[9]);
        assert_eq!(batch.flat_indices(), &[5, 5, 2, 9]);
    }

    #[test]
    fn fixed_pooling_matches_per_sample_lists() {
        let fixed = BagIndices::from_fixed_pooling(vec![5, 5, 2, 9, 1, 0], 2);
        let lists = BagIndices::from_samples(&[vec![5, 5], vec![2, 9], vec![1, 0]]);
        assert_eq!(fixed, lists);
        assert_eq!(
            BagIndices::from_fixed_pooling(Vec::new(), 3),
            BagIndices::from_samples(&[])
        );
    }
}
