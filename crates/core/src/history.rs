//! The `HistoryTable` of Algorithm 1 (lines 1–2, 13–16), monolithic and
//! sharded.
//!
//! Instead of counting pending noise updates per row (which would need a
//! write per row per iteration — re-densifying the very traffic LazyDP
//! removes), the paper stores the **last iteration whose noise has been
//! applied**: the pending count is then `current_iter − H[row]`, and
//! `H` is only written for the sparsely-accessed rows (§5.2.1).
//!
//! [`ShardedHistory`] hash-partitions one table's history across `S`
//! independent [`HistoryTable`] shards using the workspace's one
//! row→shard partition, [`ShardSpec`], so the serial phase-1 bookkeeping
//! of a [`NoisePlan`](crate::plan::NoisePlan) flush can run
//! shard-parallel: each shard's delays are per-row state, so any
//! partition of the rows yields the same delays — sharding changes who
//! walks a row, never what the row owes.

use lazydp_embedding::ShardSpec;

/// Per-row record of the last noise-updated iteration for one embedding
/// table. Entries are `u32` (4 bytes/row — the §7.2 "751 MB for the 96 GB
/// model" figure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryTable {
    last_iter: Vec<u32>,
}

impl HistoryTable {
    /// Creates a history for a table with `rows` rows, all at iteration
    /// 0 (i.e. "no noise applied yet": Algorithm 1 initializes to zeros).
    #[must_use]
    pub fn new(rows: usize) -> Self {
        Self {
            last_iter: vec![0; rows],
        }
    }

    /// Rebuilds a history from raw per-row last-flushed iterations
    /// (checkpoint restore).
    #[must_use]
    pub fn from_raw(last_iter: Vec<u32>) -> Self {
        Self { last_iter }
    }

    /// Number of tracked rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.last_iter.len()
    }

    /// Memory footprint in bytes (`rows × 4`).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.last_iter.len() * std::mem::size_of::<u32>()) as u64
    }

    /// The number of pending (delayed) noise updates for `row` at
    /// `current_iter`, *and* marks the row as flushed through
    /// `current_iter` (Algorithm 1 lines 14–15 fused).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, `current_iter` exceeds `u32`
    /// range, or time runs backwards for this row.
    pub fn take_delays(&mut self, row: u64, current_iter: u64) -> u64 {
        let h = &mut self.last_iter[usize::try_from(row).expect("row fits usize")];
        let cur = u32::try_from(current_iter).expect("iteration fits u32");
        assert!(
            *h <= cur,
            "history ahead of current iteration ({h} > {cur}) for row {row}"
        );
        let delays = u64::from(cur - *h);
        *h = cur;
        delays
    }

    /// Read-only view of a row's last flushed iteration.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn last_flushed(&self, row: u64) -> u32 {
        self.last_iter[usize::try_from(row).expect("row fits usize")]
    }

    /// Rows whose noise is still pending at `current_iter` (test/debug
    /// helper; the optimizer never scans the table during training).
    #[must_use]
    pub fn pending_rows(&self, current_iter: u64) -> Vec<u64> {
        let cur = u32::try_from(current_iter).expect("iteration fits u32");
        self.last_iter
            .iter()
            .enumerate()
            .filter(|(_, &h)| h < cur)
            .map(|(r, _)| r as u64)
            .collect()
    }
}

/// One table's noise history hash-partitioned into `S` independent
/// [`HistoryTable`] shards (row `r` → shard `r mod S`, local row
/// `r div S`).
///
/// The global view (checkpoints, debugging) and the per-shard view (the
/// shard-parallel flush) are both first-class:
/// [`take_delays`](Self::take_delays) and
/// [`last_flushed`](Self::last_flushed) address global rows, while
/// [`shards_mut`](Self::shards_mut) hands the flush one disjoint
/// `&mut HistoryTable` per shard. Checkpoints always serialize the
/// *global* row order ([`to_raw_global`](Self::to_raw_global)), so a
/// checkpoint taken at one shard count restores into any other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedHistory {
    spec: ShardSpec,
    rows: usize,
    shards: Vec<HistoryTable>,
}

impl ShardedHistory {
    /// Creates a history for `rows` rows split across `shards` shards,
    /// all at iteration 0.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(rows: usize, shards: usize) -> Self {
        let spec = ShardSpec::new(shards);
        Self {
            spec,
            rows,
            shards: (0..shards)
                .map(|s| HistoryTable::new(spec.rows_in_shard(rows, s)))
                .collect(),
        }
    }

    /// Rebuilds from per-row last-flushed iterations in **global** row
    /// order (checkpoint restore — the stored order is shard-count
    /// independent).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn from_raw_global(last_iter: &[u32], shards: usize) -> Self {
        let spec = ShardSpec::new(shards);
        let rows = last_iter.len();
        let mut raw: Vec<Vec<u32>> = (0..shards)
            .map(|s| Vec::with_capacity(spec.rows_in_shard(rows, s)))
            .collect();
        // Ascending global order lands in ascending local order per shard.
        for (r, &v) in last_iter.iter().enumerate() {
            raw[spec.shard_of(r as u64)].push(v);
        }
        Self {
            spec,
            rows,
            shards: raw.into_iter().map(HistoryTable::from_raw).collect(),
        }
    }

    /// The per-row last-flushed iterations in **global** row order
    /// (checkpoint capture).
    #[must_use]
    pub fn to_raw_global(&self) -> Vec<u32> {
        (0..self.rows as u64)
            .map(|r| self.last_flushed(r))
            .collect()
    }

    /// The partition function shared with the table shards.
    #[must_use]
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Total number of tracked (global) rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Memory footprint in bytes (`rows × 4` — identical to the
    /// monolithic table's: sharding adds no per-row overhead).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(HistoryTable::bytes).sum()
    }

    /// The shards (read-only).
    #[must_use]
    pub fn shards(&self) -> &[HistoryTable] {
        &self.shards
    }

    /// The shards, mutably — the shard-parallel flush borrows each
    /// shard's `HistoryTable` disjointly from here.
    pub fn shards_mut(&mut self) -> &mut [HistoryTable] {
        &mut self.shards
    }

    /// `(shard, local_row)` of a global row — routed through
    /// [`ShardSpec::locate`], the single shared partition function, so
    /// the history's row→shard mapping can never drift from the table
    /// shards' (or the storage engine's).
    fn locate(&self, row: u64) -> (usize, usize) {
        let (s, l) = self.spec.locate(row);
        (s, usize::try_from(l).expect("local row fits usize"))
    }

    /// Global-row [`HistoryTable::take_delays`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the monolithic version.
    pub fn take_delays(&mut self, row: u64, current_iter: u64) -> u64 {
        let (s, l) = self.locate(row);
        self.shards[s].take_delays(l as u64, current_iter)
    }

    /// Global-row [`HistoryTable::last_flushed`].
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn last_flushed(&self, row: u64) -> u32 {
        let (s, l) = self.locate(row);
        self.shards[s].last_flushed(l as u64)
    }

    /// Global rows with pending noise at `current_iter`, ascending
    /// (test/debug helper).
    #[must_use]
    pub fn pending_rows(&self, current_iter: u64) -> Vec<u64> {
        let mut rows: Vec<u64> = (0..self.shards.len())
            .flat_map(|s| {
                self.shards[s]
                    .pending_rows(current_iter)
                    .into_iter()
                    .map(move |l| self.spec.global_row(s, l))
            })
            .collect();
        rows.sort_unstable();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_count_iterations_since_last_flush() {
        let mut h = HistoryTable::new(4);
        // Never flushed: pending = current iteration (noise 1..=iter).
        assert_eq!(h.take_delays(2, 5), 5);
        // Immediately after, nothing pending.
        assert_eq!(h.take_delays(2, 5), 0);
        // Three more iterations pass.
        assert_eq!(h.take_delays(2, 8), 3);
        assert_eq!(h.last_flushed(2), 8);
    }

    #[test]
    fn rows_are_independent() {
        let mut h = HistoryTable::new(3);
        assert_eq!(h.take_delays(0, 4), 4);
        assert_eq!(h.take_delays(1, 4), 4);
        assert_eq!(h.take_delays(0, 6), 2);
        assert_eq!(h.take_delays(2, 6), 6);
    }

    #[test]
    fn pending_rows_scan() {
        let mut h = HistoryTable::new(4);
        let _ = h.take_delays(1, 3);
        let _ = h.take_delays(3, 3);
        assert_eq!(h.pending_rows(3), vec![0, 2]);
        assert!(h.pending_rows(0).is_empty());
    }

    #[test]
    fn bytes_matches_paper_formula() {
        // §7.2: HistoryTable = total rows × 4 bytes.
        let h = HistoryTable::new(1000);
        assert_eq!(h.bytes(), 4000);
    }

    #[test]
    #[should_panic(expected = "history ahead")]
    fn time_cannot_run_backwards() {
        let mut h = HistoryTable::new(2);
        let _ = h.take_delays(0, 5);
        let _ = h.take_delays(0, 4);
    }

    #[test]
    fn sharded_history_matches_monolithic_for_any_shard_count() {
        let rows = 23usize;
        let accesses: [(u64, u64); 6] = [(0, 3), (7, 3), (22, 5), (0, 9), (13, 9), (7, 12)];
        let mut mono = HistoryTable::new(rows);
        let mono_delays: Vec<u64> = accesses
            .iter()
            .map(|&(r, it)| mono.take_delays(r, it))
            .collect();
        for shards in [1usize, 2, 4, 8] {
            let mut sh = ShardedHistory::new(rows, shards);
            assert_eq!(sh.rows(), rows);
            assert_eq!(sh.num_shards(), shards);
            assert_eq!(sh.bytes(), mono.bytes());
            let delays: Vec<u64> = accesses
                .iter()
                .map(|&(r, it)| sh.take_delays(r, it))
                .collect();
            assert_eq!(delays, mono_delays, "{shards} shards");
            for r in 0..rows as u64 {
                assert_eq!(sh.last_flushed(r), mono.last_flushed(r));
            }
            assert_eq!(sh.pending_rows(12), mono.pending_rows(12));
        }
    }

    #[test]
    fn sharded_raw_roundtrip_is_shard_count_independent() {
        let raw: Vec<u32> = (0..17u32).map(|r| r.wrapping_mul(7) % 13).collect();
        for shards in [1usize, 3, 4, 8] {
            let sh = ShardedHistory::from_raw_global(&raw, shards);
            assert_eq!(sh.to_raw_global(), raw, "{shards} shards");
            // Re-partitioning through the global view changes nothing.
            let re = ShardedHistory::from_raw_global(&sh.to_raw_global(), 2);
            assert_eq!(re.to_raw_global(), raw);
        }
    }

    #[test]
    fn sharded_handles_more_shards_than_rows() {
        // Tiny tables may have empty shards; everything still works.
        let mut sh = ShardedHistory::new(3, 8);
        assert_eq!(sh.take_delays(2, 4), 4);
        assert_eq!(sh.pending_rows(4), vec![0, 1]);
    }
}
