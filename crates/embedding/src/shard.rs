//! The row→partition hash of DP-AdaFEST.
//!
//! Sparsity-preserving DP training (Ghazi et al., PAPERS.md) selects and
//! noises embedding rows a *partition* at a time: the rows of a table
//! are split into `S` partitions, the per-partition gather counts of a
//! batch are privately thresholded, and only selected partitions are
//! written. [`ShardSpec`] is that split — an algorithmic unit of
//! `lazydp-dpsgd`'s AdaFEST optimizer (what gets selected and noised),
//! not a layout: the embedding weights are never re-laid-out, and
//! nothing else in the workspace partitions by it.
//!
//! The partition function is the modulo hash `shard(r) = r mod S`,
//! chosen for **skew robustness** — hot rows of a Zipf trace (low row
//! ids, the way `lazydp_data`'s `AccessDistribution` ranks them) spread
//! round-robin across partitions instead of piling into one range
//! partition.

/// The hash-partition function mapping global rows to `S` partitions
/// (one `usize`, `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A partition into `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self { shards }
    }

    /// Number of shards `S`.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning global row `row` (`row mod S`).
    #[must_use]
    pub fn shard_of(&self, row: u64) -> usize {
        usize::try_from(row % self.shards as u64).expect("shard index fits usize")
    }

    /// Counts, per shard, how many of the given rows it owns — the
    /// partition-count gather of DP-AdaFEST's private partition
    /// selection (one count per hash partition, fed to the Gaussian
    /// threshold test). `rows` need not be sorted or deduplicated; the
    /// caller decides whether duplicates count once (pass a deduped
    /// list) or per occurrence. `counts` is cleared and resized to
    /// `shards()`, so a warm caller re-uses its allocation.
    pub fn partition_counts_into(&self, rows: &[u64], counts: &mut Vec<u64>) {
        counts.clear();
        counts.resize(self.shards, 0);
        for &row in rows {
            counts[self.shard_of(row)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_has_exactly_one_shard_and_counts_add_up() {
        for shards in [1usize, 2, 3, 4, 8] {
            let spec = ShardSpec::new(shards);
            assert_eq!(spec.shards(), shards);
            let rows: Vec<u64> = (0..37).collect();
            let mut counts = Vec::new();
            spec.partition_counts_into(&rows, &mut counts);
            assert_eq!(counts.len(), shards);
            for (s, &c) in counts.iter().enumerate() {
                let owned = rows.iter().filter(|&&r| spec.shard_of(r) == s).count();
                assert_eq!(c, owned as u64, "{shards} shards, shard {s}");
            }
            assert_eq!(counts.iter().sum::<u64>(), rows.len() as u64);
        }
    }

    #[test]
    fn partition_counts_into_reuses_and_resets_the_buffer() {
        let spec = ShardSpec::new(3);
        let mut counts = vec![99u64; 7]; // stale, wrong-sized buffer
        spec.partition_counts_into(&[0, 3, 6, 1], &mut counts);
        assert_eq!(counts, vec![3, 1, 0]);
        // Empty row list ⇒ all-zero counts, still one slot per shard.
        spec.partition_counts_into(&[], &mut counts);
        assert_eq!(counts, vec![0, 0, 0]);
    }

    #[test]
    fn zipf_hot_rows_spread_across_shards() {
        // The module doc's skew-robustness property: the hottest rows of
        // a rank-ordered trace (ids 0..k) land in k distinct shards, not
        // one.
        let spec = ShardSpec::new(4);
        let hot: Vec<usize> = (0..4u64).map(|r| spec.shard_of(r)).collect();
        let distinct: std::collections::HashSet<_> = hot.iter().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = ShardSpec::new(0);
    }
}
