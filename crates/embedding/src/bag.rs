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
///
/// It is also the only code that knows the batch's duplicates: both
/// constructors deduplicate the lookups once, where the batch is built.
/// The backward writes into each lookup's slot, the ghost norm reads
/// `Σ c²`, and LazyDP flushes the distinct rows; none sorts again.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BagIndices {
    offsets: Vec<u32>,
    indices: Vec<u64>,
    /// The distinct rows of `indices`, ascending.
    unique: Vec<u64>,
    /// Per lookup: `unique[slots[k]] == indices[k]`.
    slots: Vec<u32>,
    /// Per lookup: whether it is the first, in entry order, of its slot.
    first: Vec<bool>,
    /// Per sample: [`count_sq`](Self::count_sq).
    count_sq: Vec<u64>,
}

impl BagIndices {
    /// Builds from per-sample index lists.
    ///
    /// # Panics
    ///
    /// Panics if a row does not fit in the `64 − k` bits above a lookup
    /// index, `k` being the bit length of the lookup count.
    #[must_use]
    pub fn from_samples(samples: &[Vec<u64>]) -> Self {
        let mut offsets = Vec::with_capacity(samples.len() + 1);
        let mut indices = Vec::new();
        offsets.push(0u32);
        for s in samples {
            indices.extend_from_slice(s);
            offsets.push(indices.len() as u32);
        }
        Self::with_duplicates(offsets, indices)
    }

    /// Builds from a flat index list in which every sample has exactly
    /// `pooling` lookups: sample `i` gathers
    /// `indices[i·pooling..(i + 1)·pooling]`.
    ///
    /// # Panics
    ///
    /// Panics if `pooling == 0`, `indices.len()` is not a multiple of
    /// it, or a row does not fit in the bits above a lookup index.
    #[must_use]
    pub fn from_fixed_pooling(indices: Vec<u64>, pooling: usize) -> Self {
        assert!(pooling > 0, "pooling must be positive");
        assert_eq!(indices.len() % pooling, 0, "a partial sample");
        let offsets = (0..=indices.len())
            .step_by(pooling)
            .map(|o| o as u32)
            .collect();
        Self::with_duplicates(offsets, indices)
    }

    /// The one dedup of a batch: sorted `(row, lookup)` pairs run slot
    /// by slot, each slot's first lookup first; then each sample's rows
    /// are counted (`Σ_c (2c − 1) = c²`, exact integers).
    ///
    /// Each pair sorts as one packed key `row << k_bits | lookup`, where
    /// `k_bits` is the bit length of the lookup count: every lookup index
    /// fits below the row, so the keys sort exactly as the pairs do.
    ///
    /// # Panics
    ///
    /// Panics if a row does not fit in the `64 − k_bits` bits above the
    /// lookup index.
    fn with_duplicates(offsets: Vec<u32>, indices: Vec<u64>) -> Self {
        let k_bits = u64::BITS - (indices.len() as u64).leading_zeros();
        let max_row = indices.iter().copied().max().unwrap_or(0);
        assert!(
            max_row.leading_zeros() >= k_bits,
            "row {max_row} does not fit above a {k_bits}-bit lookup index"
        );
        let k_mask = (1u64 << k_bits) - 1;
        let mut order: Vec<u64> = (indices.iter())
            .zip(0u64..)
            .map(|(&row, k)| row << k_bits | k)
            .collect();
        order.sort_unstable();
        let mut unique = Vec::new();
        let mut slots = vec![0u32; indices.len()];
        let mut first = vec![false; indices.len()];
        for &key in &order {
            let (row, k) = (key >> k_bits, (key & k_mask) as usize);
            if unique.last() != Some(&row) {
                unique.push(row);
                first[k] = true;
            }
            slots[k] = (unique.len() - 1) as u32;
        }
        let mut counts = vec![0u64; unique.len()];
        let mut count_sq = Vec::with_capacity(offsets.len().saturating_sub(1));
        for w in offsets.windows(2) {
            let sample = &slots[w[0] as usize..w[1] as usize];
            count_sq.push(sample.iter().fold(0, |c_sq, &s| {
                counts[s as usize] += 1;
                c_sq + 2 * counts[s as usize] - 1
            }));
            sample.iter().for_each(|&s| counts[s as usize] = 0);
        }
        Self {
            offsets,
            indices,
            unique,
            slots,
            first,
            count_sq,
        }
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

    /// The batch's distinct rows, ascending.
    #[must_use]
    pub fn unique_rows(&self) -> &[u64] {
        &self.unique
    }

    /// Per lookup, the position of its row in [`unique_rows`](Self::unique_rows).
    #[must_use]
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// `Σ_r c²_{i,r}` of sample `i`, `c_{i,r}` being how often row `r`
    /// occurs among its lookups. Panics if `i >= batch_size()`.
    #[must_use]
    pub fn count_sq(&self, i: usize) -> u64 {
        self.count_sq[i]
    }

    /// Index list of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= batch_size()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[u64] {
        &self.indices[self.range(i)]
    }

    /// Sample `i`'s lookups as positions in the flat list.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
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

/// Backward: the sparse gradient from the pooled-output gradient
/// (`B × dim`), into a caller-owned sparse gradient (reset and refilled,
/// keeping its allocations), coalesced: one entry per
/// [`unique_rows`](BagIndices::unique_rows) row.
///
/// # Panics
///
/// Panics if `grad_out` has the wrong shape.
pub fn backward_into(grad_out: &Matrix, batch: &BagIndices, dim: usize, grad: &mut SparseGrad) {
    scatter_into(grad_out, batch, |_| 1.0, 1.0, dim, grad);
}

/// Weighted backward: like [`backward_into`] but each lookup of example
/// `i` contributes `(w[i] · δ_i) · scale` — the sparse half of the
/// clipped-aggregate backward, fed the *unscaled* gradient chain; `scale`
/// is a DP step's `1/B`, applied before a row's entries are summed.
///
/// # Panics
///
/// Panics if `grad_out` has the wrong shape or
/// `w.len() != batch.batch_size()`.
pub fn backward_weighted_into(
    grad_out: &Matrix,
    batch: &BagIndices,
    w: &[f32],
    scale: f32,
    dim: usize,
    grad: &mut SparseGrad,
) {
    assert_eq!(w.len(), batch.batch_size(), "one weight per example");
    scatter_into(grad_out, batch, |i| w[i], scale, dim, grad);
}

/// The one backward body: lookup `k` of sample `i` writes
/// `(w(i) · δ_i) · scale` into its slot's row, a copy on the slot's first
/// touch and an add after that, in entry order. That is the operation
/// sequence of scaling one entry per lookup and then summing each row's
/// entries in entry order, so the bits are the same (`−0.0` included:
/// the first entry is copied, never added to a zero).
fn scatter_into(
    grad_out: &Matrix,
    batch: &BagIndices,
    w: impl Fn(usize) -> f32,
    scale: f32,
    dim: usize,
    grad: &mut SparseGrad,
) {
    assert_eq!(
        grad_out.shape(),
        (batch.batch_size(), dim),
        "grad_out shape mismatch"
    );
    grad.reset(dim);
    for &row in &batch.unique {
        let _ = grad.push_zeros(row);
    }
    for i in 0..batch.batch_size() {
        let (wi, g) = (w(i), grad_out.row(i));
        let k = batch.range(i);
        for (&s, &first) in batch.slots[k.clone()].iter().zip(&batch.first[k]) {
            let row = grad.entry_mut(s as usize);
            if first {
                for (e, &gv) in row.iter_mut().zip(g) {
                    *e = wi * gv * scale;
                }
            } else {
                for (e, &gv) in row.iter_mut().zip(g) {
                    *e += wi * gv * scale;
                }
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
/// so `‖g_i‖² = (Σ_r c_{i,r}²) · ‖δ_i‖²`. `Σ c²` is the batch's
/// [`count_sq`](BagIndices::count_sq), an exact integer.
///
/// # Panics
///
/// Panics if `grad_out` has the wrong number of rows.
pub fn per_example_norm_sq_into(grad_out: &Matrix, batch: &BagIndices, out: &mut Vec<f64>) {
    assert_eq!(
        grad_out.rows(),
        batch.batch_size(),
        "grad_out rows mismatch"
    );
    out.clear();
    out.extend(
        batch
            .count_sq
            .iter()
            .enumerate()
            .map(|(i, &c_sq)| c_sq as f64 * lazydp_tensor::vecops::norm_sq(grad_out.row(i))),
    );
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
        assert_eq!(g.indices(), &[0, 1], "one entry per distinct row");
        let dense = g.to_dense_map();
        assert_eq!(dense[&0], vec![1.0, 2.0]);
        // Row 1 gets sample 0's grad once and sample 1's grad twice.
        assert_eq!(dense[&1], vec![21.0, 42.0]);
    }

    /// The slot backward's oracle: one entry per lookup, `w_i · δ_i`,
    /// scaled, then summed per row by [`SparseGrad::coalesce`].
    fn per_lookup_oracle(
        grad_out: &Matrix,
        batch: &BagIndices,
        w: &[f32],
        scale: f32,
    ) -> SparseGrad {
        let mut g = SparseGrad::new(grad_out.cols());
        for (i, &wi) in w.iter().enumerate() {
            for &idx in batch.sample(i) {
                for (e, &gv) in g.push_zeros(idx).iter_mut().zip(grad_out.row(i)) {
                    *e = wi * gv;
                }
            }
        }
        g.scale(scale);
        g.coalesce();
        g
    }

    #[test]
    fn slot_backward_is_bitwise_the_per_lookup_sum() {
        // Row 5 repeats within sample 0 and across samples 0 and 3,
        // row 1 across samples 0 and 1; sample 2 is empty; row 9's only
        // entry starts with −0.0, which a sum that starts from +0.0
        // would lose.
        let batch = BagIndices::from_samples(&[vec![5, 1, 5], vec![9, 1], vec![], vec![5, 7]]);
        let grad_out = Matrix::from_vec(
            4,
            3,
            vec![
                0.1, 0.7, -0.3, -0.0, 0.2, 1e-3, 9.0, 9.0, 9.0, 0.3, -0.6, 0.25,
            ],
        );
        let bits = |g: &SparseGrad| -> Vec<(u64, Vec<u32>)> {
            g.iter()
                .map(|(r, v)| (r, v.iter().map(|x| x.to_bits()).collect()))
                .collect()
        };
        let w = [0.5f32, 0.3, 1.0, 0.9];
        let mut got = SparseGrad::default();
        for scale in [1.0f32, 1.0 / 7.0] {
            backward_weighted_into(&grad_out, &batch, &w, scale, 3, &mut got);
            let want = per_lookup_oracle(&grad_out, &batch, &w, scale);
            assert_eq!(bits(&got), bits(&want), "weighted, scale {scale}");
        }
        backward_into(&grad_out, &batch, 3, &mut got);
        let want = per_lookup_oracle(&grad_out, &batch, &[1.0; 4], 1.0);
        assert_eq!(bits(&got), bits(&want), "unweighted");
        assert_eq!(got.indices(), &[1, 5, 7, 9]);
        assert_eq!(
            got.find(9).expect("row 9")[0].to_bits(),
            (-0.0f32).to_bits()
        );
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
        per_example_norm_sq_into(&grad_out, &batch, &mut ghost);
        // Explicit: materialize each example's sparse grad and take its norm.
        for i in 0..2 {
            let single = BagIndices::from_samples(&[batch.sample(i).to_vec()]);
            let g_i = Matrix::from_vec(1, 2, grad_out.row(i).to_vec());
            let mut sg = SparseGrad::default();
            backward_into(&g_i, &single, 2, &mut sg);
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

    #[test]
    fn packed_sort_key_holds_rows_up_to_its_limit() {
        // Four lookups take a 3-bit index, leaving 61 bits for the row.
        let top = u64::MAX >> 3;
        let batch = BagIndices::from_samples(&[vec![top, 0], vec![top - 1, top]]);
        assert_eq!(batch.unique_rows(), &[0, top - 1, top]);
        assert_eq!(batch.slots(), &[2, 0, 1, 2]);
        assert_eq!(batch.count_sq(0), 2);
    }

    #[test]
    #[should_panic(expected = "does not fit above a 3-bit lookup index")]
    fn packed_sort_key_rejects_a_row_over_its_limit() {
        let _ = BagIndices::from_samples(&[vec![1u64 << 61, 0], vec![2, 3]]);
    }
}
