//! The `HistoryTable` of Algorithm 1 (lines 1–2, 13–16).
//!
//! Instead of counting pending noise updates per row (which would need a
//! write per row per iteration — re-densifying the very traffic LazyDP
//! removes), the paper stores the **last iteration whose noise has been
//! applied**: the pending count is then `current_iter − H[row]`, and
//! `H` is only written for the sparsely-accessed rows (§5.2.1).

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

    /// The raw per-row last-flushed iterations, in row order (checkpoint
    /// capture; the inverse of [`from_raw`](Self::from_raw)).
    #[must_use]
    pub fn as_raw(&self) -> &[u32] {
        &self.last_iter
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
    /// `current_iter` (Algorithm 1 line 14). Panics if `row` is out of
    /// range, `current_iter` exceeds `u32` range, or time runs backwards
    /// for this row.
    #[must_use]
    pub fn delays(&self, row: u64, current_iter: u64) -> u64 {
        let h = self.last_iter[usize::try_from(row).expect("row fits usize")];
        let cur = u32::try_from(current_iter).expect("iteration fits u32");
        assert!(
            h <= cur,
            "history ahead of current iteration ({h} > {cur}) for row {row}"
        );
        u64::from(cur - h)
    }

    /// [`delays`](Self::delays), *and* marks the row as flushed through
    /// `current_iter` (Algorithm 1 lines 14–15 fused). Panics as
    /// `delays` does.
    pub fn take_delays(&mut self, row: u64, current_iter: u64) -> u64 {
        let delays = self.delays(row, current_iter);
        self.last_iter[row as usize] = current_iter as u32;
        delays
    }

    /// Marks every row as flushed through `current_iter`, in place (the
    /// release flush). Panics if `current_iter` exceeds `u32` range.
    pub fn mark_all_flushed(&mut self, current_iter: u64) {
        let cur = u32::try_from(current_iter).expect("iteration fits u32");
        self.last_iter.fill(cur);
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
        assert_eq!(h.take_delays(2, 8), 0);
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
        let pending: Vec<u64> = (0..4).map(|r| h.take_delays(r, 3)).collect();
        assert_eq!(pending, vec![3, 0, 3, 0]);
    }

    #[test]
    fn marking_all_flushed_clears_every_delay() {
        let mut h = HistoryTable::new(3);
        let _ = h.take_delays(1, 2);
        h.mark_all_flushed(5);
        assert_eq!(h.as_raw(), [5; 3]);
        assert_eq!(h.take_delays(0, 7), 2);
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
}
