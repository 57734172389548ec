//! Hash-partitioned embedding shards.
//!
//! LazyDP's sparse path (gather → lazy flush → sparse update) touches
//! `O(batch)` rows per iteration, so once the per-row *noise sampling*
//! is parallel (PR 2), the next scaling lever is partitioning the sparse
//! *state* itself: split a table's rows across `S` independent shards so
//! that history bookkeeping, noise accumulation, and the sparse update
//! of each shard can proceed in parallel with no shared mutable state —
//! the same partitioning that sparsity-preserving DP embedding training
//! systems use to keep the DP machinery off the critical path.
//!
//! The partition function is the modulo hash `shard(r) = r mod S` with
//! local index `r div S`. Two properties make it the right choice here:
//!
//! 1. **Skew robustness** — hot rows of a Zipf trace (low row ids, the
//!    way `lazydp_data`'s `AccessDistribution` ranks them) spread
//!    round-robin across shards instead of piling into one range shard.
//! 2. **Order preservation** — for rows of one shard, global order and
//!    local order coincide (`r1 < r2 ∧ r1 ≡ r2 (mod S)` ⇒
//!    `r1/S < r2/S`), so partitioning a sorted, deduplicated index list
//!    yields sorted, deduplicated per-shard lists with no re-sort.
//!
//! Everything here is *addressing only*: [`ShardSpec`] says which shard
//! owns a row, the sharded structures that hold per-row state live with
//! their owners (`ShardedHistory` and the flush plan in `lazydp-core`,
//! DP-AdaFEST's partition counts in `lazydp-dpsgd`), and the embedding
//! weights themselves are never re-laid-out — training is bitwise
//! identical for any shard count (asserted by the workspace proptests).

/// The hash-partition function mapping global rows to `S` shards.
///
/// A `ShardSpec` is deliberately tiny (one `usize`) and `Copy`: it is
/// the *shared contract* between every sharded structure — a table's
/// `ShardedHistory` and the per-shard flush plans (in `lazydp-core`)
/// must all agree on it, or rows would migrate between shards
/// mid-training.
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

    /// The row's index within its shard (`row div S`).
    #[must_use]
    pub fn local_row(&self, row: u64) -> u64 {
        row / self.shards as u64
    }

    /// The `(shard, local_row)` pair of a global row — **the** one
    /// row→shard partition function of the workspace.
    ///
    /// Every structure that splits per-row state by shard —
    /// `ShardedHistory` in `lazydp-core` today; any future sharded
    /// layer (e.g. a shard-partitioned `lazydp_store` backend) — must
    /// route through this single helper rather than re-deriving the
    /// modulo arithmetic, so the partition can never drift between
    /// layers: a row's noise history and its flush plan are always
    /// owned by the same shard. (`lazydp_store`'s
    /// row→page mapping is orthogonal — pages slice *within* a table's
    /// row space, shards slice *across* it.)
    #[must_use]
    pub fn locate(&self, row: u64) -> (usize, u64) {
        (self.shard_of(row), self.local_row(row))
    }

    /// The global row for local index `local` of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    #[must_use]
    pub fn global_row(&self, shard: usize, local: u64) -> u64 {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        local * self.shards as u64 + shard as u64
    }

    /// Number of global rows `< total_rows` owned by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    #[must_use]
    pub fn rows_in_shard(&self, total_rows: usize, shard: usize) -> usize {
        assert!(shard < self.shards, "shard {shard} out of {}", self.shards);
        (total_rows + self.shards - 1 - shard) / self.shards
    }

    /// Splits a **sorted, deduplicated** global index list into one
    /// sorted, deduplicated *global*-index list per shard (property 2 of
    /// the module docs: no re-sort needed).
    #[must_use]
    pub fn partition_indices(&self, sorted: &[u64]) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); self.shards];
        for &row in sorted {
            out[self.shard_of(row)].push(row);
        }
        out
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
    fn spec_roundtrips_rows_and_counts_them() {
        for shards in [1usize, 2, 3, 4, 8] {
            let spec = ShardSpec::new(shards);
            let total = 37usize;
            let mut seen = 0usize;
            for s in 0..shards {
                for local in 0..spec.rows_in_shard(total, s) as u64 {
                    let g = spec.global_row(s, local);
                    assert!((g as usize) < total);
                    assert_eq!(spec.shard_of(g), s);
                    assert_eq!(spec.local_row(g), local);
                    seen += 1;
                }
            }
            assert_eq!(seen, total, "partition must cover every row once");
        }
    }

    #[test]
    fn partition_counts_match_partition_indices() {
        let spec = ShardSpec::new(4);
        let rows: Vec<u64> = vec![0, 1, 4, 5, 8, 9, 13, 21];
        let mut counts = Vec::new();
        spec.partition_counts_into(&rows, &mut counts);
        let parts = spec.partition_indices(&rows);
        assert_eq!(counts.len(), 4);
        for (c, p) in counts.iter().zip(parts.iter()) {
            assert_eq!(*c, p.len() as u64);
        }
        assert_eq!(counts.iter().sum::<u64>(), rows.len() as u64);
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
    fn partition_preserves_sorted_dedup_order() {
        let spec = ShardSpec::new(3);
        let parts = spec.partition_indices(&[0, 1, 2, 3, 6, 7, 9, 12]);
        assert_eq!(parts[0], vec![0, 3, 6, 9, 12]);
        assert_eq!(parts[1], vec![1, 7]);
        assert_eq!(parts[2], vec![2]);
        for p in &parts {
            assert!(p.windows(2).all(|w| w[0] < w[1]), "sorted per shard");
        }
    }

    #[test]
    fn locate_is_the_shard_of_local_row_pair() {
        for shards in [1usize, 3, 8] {
            let spec = ShardSpec::new(shards);
            for row in 0..64u64 {
                assert_eq!(spec.locate(row), (spec.shard_of(row), spec.local_row(row)));
            }
        }
    }

    #[test]
    fn zipf_hot_rows_spread_across_shards() {
        // Module-doc property 1: the hottest rows of a rank-ordered
        // trace (ids 0..k) land in k distinct shards, not one.
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
