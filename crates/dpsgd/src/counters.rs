//! Instrumentation counters for the functional kernels.
//!
//! Every optimizer counts the *logical work* its kernels perform —
//! Gaussian samples drawn, table rows read/written, bytes streamed. These
//! are the exact quantities the paper's characterization attributes the
//! bottlenecks to (§4.2–4.3), and `lazydp-sysmodel` prices the same
//! counts with its roofline model; unit tests assert both sides agree.

/// Logical work counters, accumulated across optimizer steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCounters {
    /// Gaussian samples drawn (the compute-bound kernel of §4.3).
    pub gaussian_samples: u64,
    /// Embedding rows written during model update (noise and/or grad).
    pub table_rows_written: u64,
    /// Embedding rows read during model update (read-modify-write).
    pub table_rows_read: u64,
    /// Embedding rows gathered in forward passes.
    pub rows_gathered: u64,
    /// Duplicate lookups removed by deduplicating each step's batch, once
    /// per batch: per table, lookups minus distinct rows (the dominant
    /// LazyDP overhead, Fig. 11).
    pub duplicates_removed: u64,
    /// HistoryTable entries read (LazyDP only).
    pub history_reads: u64,
    /// HistoryTable entries written (LazyDP only).
    pub history_writes: u64,
    /// Optimizer steps taken.
    pub steps: u64,
}

impl KernelCounters {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Difference `self − earlier` (for per-step deltas).
    ///
    /// # Panics
    ///
    /// Panics (in debug) if any counter of `earlier` exceeds `self`'s.
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            gaussian_samples: self.gaussian_samples - earlier.gaussian_samples,
            table_rows_written: self.table_rows_written - earlier.table_rows_written,
            table_rows_read: self.table_rows_read - earlier.table_rows_read,
            rows_gathered: self.rows_gathered - earlier.rows_gathered,
            duplicates_removed: self.duplicates_removed - earlier.duplicates_removed,
            history_reads: self.history_reads - earlier.history_reads,
            history_writes: self.history_writes - earlier.history_writes,
            steps: self.steps - earlier.steps,
        }
    }

    /// Accumulates another counter set into this one (LazyDP's overlap
    /// worker counts its lookahead flush privately while the main thread
    /// counts the clipped aggregate; the sum is what an inline flush
    /// would have counted).
    pub fn merge(&mut self, other: &Self) {
        self.gaussian_samples += other.gaussian_samples;
        self.table_rows_written += other.table_rows_written;
        self.table_rows_read += other.table_rows_read;
        self.rows_gathered += other.rows_gathered;
        self.duplicates_removed += other.duplicates_removed;
        self.history_reads += other.history_reads;
        self.history_writes += other.history_writes;
        self.steps += other.steps;
    }

    /// Bytes written to embedding tables, assuming `dim`-wide f32 rows.
    #[must_use]
    pub fn table_bytes_written(&self, dim: usize) -> u64 {
        self.table_rows_written * dim as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_and_bytes() {
        let a = KernelCounters {
            gaussian_samples: 100,
            table_rows_written: 10,
            ..Default::default()
        };
        let b = KernelCounters {
            gaussian_samples: 150,
            table_rows_written: 25,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.gaussian_samples, 50);
        assert_eq!(d.table_rows_written, 15);
        assert_eq!(d.table_bytes_written(128), 15 * 128 * 4);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = KernelCounters {
            gaussian_samples: 1,
            history_reads: 2,
            ..Default::default()
        };
        let b = KernelCounters {
            gaussian_samples: 10,
            history_writes: 5,
            steps: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.gaussian_samples, 11);
        assert_eq!(a.history_reads, 2);
        assert_eq!(a.history_writes, 5);
        assert_eq!(a.steps, 1);
    }
}
