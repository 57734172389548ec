//! Sparse per-row gradients.
//!
//! A mini-batch's embedding gradient only touches the gathered rows.
//! Removing the duplicated rows is what LazyDP reports as 61 % of its
//! overhead (paper Fig. 11), so a batch pays for it once, where it is
//! built ([`BagIndices`](crate::bag::BagIndices)); the bag backward then
//! writes straight into the distinct rows, and a step's gradient is
//! coalesced from the start. [`SparseGrad::coalesce`] stays as the
//! allocating reference that tests sum materialized per-example
//! gradients with.

use std::collections::BTreeMap;

/// A sparse gradient over an embedding table: a list of `(row, values)`
/// entries, each `values` being a `dim`-wide vector.
///
/// Entries may contain duplicate rows until [`coalesce`](Self::coalesce)
/// is called; the bag backward fills it coalesced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseGrad {
    dim: usize,
    indices: Vec<u64>,
    /// Row-major `indices.len() × dim` values.
    values: Vec<f32>,
}

impl SparseGrad {
    /// Creates an empty gradient for dimension `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from `(row, values)` entries.
    ///
    /// # Panics
    ///
    /// Panics if any entry's length differs from `dim`.
    #[must_use]
    pub fn from_entries(dim: usize, entries: Vec<(u64, Vec<f32>)>) -> Self {
        let mut g = Self::new(dim);
        for (idx, vals) in entries {
            g.push(idx, &vals);
        }
        g
    }

    /// Empties the gradient (and re-dims it), keeping both backing
    /// allocations — the scratch-reuse entry point: a cleared gradient
    /// refilled with at most as many entries as it ever held allocates
    /// nothing.
    pub fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.indices.clear();
        self.values.clear();
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim`.
    pub fn push(&mut self, index: u64, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "sparse entry dim mismatch");
        self.indices.push(index);
        self.values.extend_from_slice(values);
    }

    /// Appends a zero entry and returns a mutable slice to fill it.
    pub fn push_zeros(&mut self, index: u64) -> &mut [f32] {
        self.indices.push(index);
        let start = self.values.len();
        self.values.resize(start + self.dim, 0.0);
        &mut self.values[start..]
    }

    /// Accumulates `alpha * values` into the entry for `index`, creating
    /// it if absent. O(n) scan — use [`coalesce`](Self::coalesce) for
    /// bulk merging instead.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != dim`.
    pub fn accumulate(&mut self, index: u64, alpha: f32, values: &[f32]) {
        assert_eq!(values.len(), self.dim, "sparse entry dim mismatch");
        if let Some(pos) = self.indices.iter().position(|&i| i == index) {
            let row = &mut self.values[pos * self.dim..(pos + 1) * self.dim];
            for (r, &v) in row.iter_mut().zip(values.iter()) {
                *r += alpha * v;
            }
        } else {
            let row = self.push_zeros(index);
            for (r, &v) in row.iter_mut().zip(values.iter()) {
                *r = alpha * v;
            }
        }
    }

    /// The embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of entries (including duplicates before coalescing).
    #[must_use]
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the gradient has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The row indices (possibly with duplicates).
    #[must_use]
    pub fn indices(&self) -> &[u64] {
        &self.indices
    }

    /// Iterates over `(row, values)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f32])> {
        self.indices
            .iter()
            .copied()
            .zip(self.values.chunks_exact(self.dim.max(1)))
    }

    /// Values of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn entry(&self, i: usize) -> (u64, &[f32]) {
        (
            self.indices[i],
            &self.values[i * self.dim..(i + 1) * self.dim],
        )
    }

    /// Mutable values of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn entry_mut(&mut self, i: usize) -> &mut [f32] {
        let d = self.dim;
        &mut self.values[i * d..(i + 1) * d]
    }

    /// In-place scaling of every value.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Merges duplicate rows by summation and sorts entries by row index.
    /// Duplicate rows are summed in their entry order (a stable sort).
    ///
    /// Returns the number of duplicate entries that were merged away.
    pub fn coalesce(&mut self) -> usize {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| self.indices[i]);
        let mut out = Self::new(self.dim);
        for (idx, vals) in order.into_iter().map(|i| self.entry(i)) {
            match out.indices.last() {
                Some(&last) if last == idx => {
                    let acc = out.entry_mut(out.len() - 1);
                    acc.iter_mut().zip(vals).for_each(|(a, &v)| *a += v);
                }
                _ => out.push(idx, vals),
            }
        }
        let merged = self.len() - out.len();
        *self = out;
        merged
    }

    /// Sums the squared L2 norms of all entries (in `f64`, accumulated
    /// through the pinned [`vecops::norm_sq`](lazydp_tensor::vecops)
    /// primitive).
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        lazydp_tensor::vecops::norm_sq(&self.values)
    }

    /// Whether entries are sorted by strictly increasing row index —
    /// i.e. whether [`coalesce`](Self::coalesce) has run since the last
    /// mutation. The update kernels require this.
    #[must_use]
    pub fn is_coalesced(&self) -> bool {
        self.indices.windows(2).all(|w| w[0] < w[1])
    }

    /// Binary-searches a **coalesced** gradient for `index`.
    ///
    /// Returns `None` both for absent rows and (unreliably) on
    /// uncoalesced gradients — callers should check
    /// [`is_coalesced`](Self::is_coalesced) first.
    #[must_use]
    pub fn find(&self, index: u64) -> Option<&[f32]> {
        self.indices
            .binary_search(&index)
            .ok()
            .map(|i| &self.values[i * self.dim..(i + 1) * self.dim])
    }

    /// Converts to a dense map for test comparisons (a `BTreeMap` so
    /// downstream iteration is deterministic).
    #[must_use]
    pub fn to_dense_map(&self) -> BTreeMap<u64, Vec<f32>> {
        let mut m: BTreeMap<u64, Vec<f32>> = BTreeMap::new();
        for (idx, vals) in self.iter() {
            let e = m.entry(idx).or_insert_with(|| vec![0.0; self.dim]);
            for (a, &v) in e.iter_mut().zip(vals.iter()) {
                *a += v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iter_roundtrip() {
        let mut g = SparseGrad::new(2);
        g.push(5, &[1.0, 2.0]);
        g.push(3, &[3.0, 4.0]);
        let entries: Vec<_> = g.iter().map(|(i, v)| (i, v.to_vec())).collect();
        assert_eq!(entries, vec![(5, vec![1.0, 2.0]), (3, vec![3.0, 4.0])]);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn coalesce_merges_sorts_and_counts() {
        let mut g = SparseGrad::from_entries(
            2,
            vec![
                (7, vec![1.0, 1.0]),
                (2, vec![2.0, 2.0]),
                (7, vec![10.0, 10.0]),
                (2, vec![0.5, 0.5]),
                (1, vec![9.0, 9.0]),
            ],
        );
        let merged = g.coalesce();
        assert_eq!(merged, 2);
        assert_eq!(g.indices(), &[1, 2, 7]);
        assert_eq!(g.entry(0).1, &[9.0, 9.0]);
        assert_eq!(g.entry(1).1, &[2.5, 2.5]);
        assert_eq!(g.entry(2).1, &[11.0, 11.0]);
    }

    #[test]
    fn coalesce_preserves_total_mass() {
        let mut g = SparseGrad::from_entries(
            1,
            vec![
                (0, vec![1.0]),
                (1, vec![2.0]),
                (0, vec![3.0]),
                (1, vec![4.0]),
            ],
        );
        let sum_before: f32 = g.iter().map(|(_, v)| v[0]).sum();
        g.coalesce();
        let sum_after: f32 = g.iter().map(|(_, v)| v[0]).sum();
        assert_eq!(sum_before, sum_after);
    }

    #[test]
    fn accumulate_creates_or_adds() {
        let mut g = SparseGrad::new(2);
        g.accumulate(4, 1.0, &[1.0, 1.0]);
        g.accumulate(4, 2.0, &[1.0, 2.0]);
        g.accumulate(9, 1.0, &[5.0, 5.0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.to_dense_map()[&4], vec![3.0, 5.0]);
        assert_eq!(g.to_dense_map()[&9], vec![5.0, 5.0]);
    }

    #[test]
    fn scale_and_norm() {
        let mut g = SparseGrad::from_entries(2, vec![(0, vec![3.0, 4.0])]);
        assert!((g.norm_sq() - 25.0).abs() < 1e-9);
        g.scale(2.0);
        assert!((g.norm_sq() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn coalesce_on_empty_and_singleton() {
        let mut empty = SparseGrad::new(4);
        assert_eq!(empty.coalesce(), 0);
        let mut single = SparseGrad::from_entries(1, vec![(3, vec![1.0])]);
        assert_eq!(single.coalesce(), 0);
        assert_eq!(single.indices(), &[3]);
    }

    #[test]
    #[should_panic(expected = "sparse entry dim mismatch")]
    fn push_rejects_wrong_dim() {
        let mut g = SparseGrad::new(3);
        g.push(0, &[1.0]);
    }
}
