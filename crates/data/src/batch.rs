//! The mini-batch container shared by every optimizer.

use lazydp_embedding::bag::BagIndices;

/// One training mini-batch of a DLRM-style workload: dense features,
/// per-table sparse lookup indices, and click labels.
///
/// The sparse indices are stored per table in CSR form
/// ([`BagIndices`]), matching the layout the embedding bags consume. The
/// realized batch size may differ from the loader's nominal size under
/// Poisson sampling (paper Fig. 9(b): the DP data loader uses Poisson
/// sampling).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MiniBatch {
    /// Row-major `batch × num_dense` dense features.
    pub dense: Vec<f32>,
    /// Number of dense features per sample.
    pub num_dense: usize,
    /// Per-table lookup indices (`tables.len()` entries).
    pub sparse: Vec<BagIndices>,
    /// Click labels in `[0, 1]`, one per sample.
    pub labels: Vec<f32>,
}

impl MiniBatch {
    /// Number of samples in the batch.
    #[must_use]
    pub fn batch_size(&self) -> usize {
        self.labels.len()
    }

    /// Number of embedding tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.sparse.len()
    }

    /// Whether the batch has no samples (possible under Poisson
    /// sampling with small rates; optimizers skip such batches).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total embedding lookups across all tables.
    #[must_use]
    pub fn total_lookups(&self) -> usize {
        self.sparse.iter().map(BagIndices::total_lookups).sum()
    }

    /// Lookups whose row an earlier lookup of the same table already
    /// gathers: each table's lookups minus its distinct rows.
    #[must_use]
    pub fn duplicate_lookups(&self) -> usize {
        self.sparse
            .iter()
            .map(|s| s.total_lookups() - s.unique_rows().len())
            .sum()
    }

    /// The flat lookup indices of table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn table_indices(&self, t: usize) -> &[u64] {
        self.sparse[t].flat_indices()
    }

    /// Checks internal consistency (all tables agree on batch size, the
    /// dense buffer has the right length) — used by debug assertions in
    /// the training loops.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let b = self.batch_size();
        self.dense.len() == b * self.num_dense && self.sparse.iter().all(|s| s.batch_size() == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> MiniBatch {
        MiniBatch {
            dense: vec![0.0; 2 * 3],
            num_dense: 3,
            sparse: vec![
                BagIndices::from_samples(&[vec![1], vec![2]]),
                BagIndices::from_samples(&[vec![3, 4], vec![5]]),
            ],
            labels: vec![0.0, 1.0],
        }
    }

    #[test]
    fn accessors() {
        let b = sample_batch();
        assert_eq!(b.batch_size(), 2);
        assert_eq!(b.num_tables(), 2);
        assert_eq!(b.total_lookups(), 5);
        assert_eq!(b.table_indices(1), &[3, 4, 5]);
        assert!(b.is_consistent());
        assert!(!b.is_empty());
    }

    #[test]
    fn inconsistency_detected() {
        let mut b = sample_batch();
        b.labels.push(0.5);
        assert!(!b.is_consistent());
    }

    #[test]
    fn default_is_empty_and_consistent() {
        let b = MiniBatch::default();
        assert!(b.is_empty());
        assert!(b.is_consistent());
    }
}
