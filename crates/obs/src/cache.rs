//! Per-instance cache counters that mirror into the global registry.
//!
//! The paged store wants two views of the same events: exact
//! *per-cache* counts (its unit tests pin eviction sequences down to
//! the individual fault) and fleet-wide totals in the
//! [`crate::metrics()`] registry (what `benchmark/` and the
//! exporters read). [`CacheCounters`] provides both from one record
//! call: the owned fields always increment — they are plain `u64`s
//! behind the cache's own `&mut`, free and deterministic — while the
//! registry mirror goes through the mode-gated atomics.
//!
//! Reading the per-instance values back ([`CacheCounters::obs_read`])
//! is a **read API** under lint rule **O1**: callable only from
//! `crates/bench`, `crates/obs`, and tests. The store itself only ever
//! records.

use crate::metrics::metrics;

/// Hit/miss/eviction counters of one page cache. Write-mostly: hot
/// paths call the `record_*` methods; only tests and bench read back.
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    write_backs: u64,
    bytes_spilled: u64,
    bytes_loaded: u64,
}

impl CacheCounters {
    /// Zeroed counters.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            hits: 0,
            misses: 0,
            evictions: 0,
            write_backs: 0,
            bytes_spilled: 0,
            bytes_loaded: 0,
        }
    }

    /// A fault served from a resident frame.
    #[inline]
    pub fn record_hit(&mut self) {
        self.hits += 1;
        metrics().store.hits.incr();
    }

    /// A fault that loaded `bytes_loaded` bytes from the spill file.
    #[inline]
    pub fn record_miss(&mut self, bytes_loaded: u64) {
        self.misses += 1;
        self.bytes_loaded += bytes_loaded;
        metrics().store.misses.incr();
        metrics().store.bytes_loaded.add(bytes_loaded);
    }

    /// A frame evicted to make room.
    #[inline]
    pub fn record_eviction(&mut self) {
        self.evictions += 1;
        metrics().store.evictions.incr();
    }

    /// A dirty frame written back (`bytes_spilled` bytes of spill
    /// traffic) — on eviction or flush.
    #[inline]
    pub fn record_write_back(&mut self, bytes_spilled: u64) {
        self.write_backs += 1;
        self.bytes_spilled += bytes_spilled;
        metrics().store.write_backs.incr();
        metrics().store.bytes_spilled.add(bytes_spilled);
    }

    /// The per-instance values. **Read API** — callable only from
    /// `crates/bench`, `crates/obs`, and tests (lint rule **O1**).
    #[must_use]
    pub fn obs_read(&self) -> CacheView {
        CacheView {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            write_backs: self.write_backs,
            bytes_spilled: self.bytes_spilled,
            bytes_loaded: self.bytes_loaded,
        }
    }
}

/// A captured copy of one cache's counters (see
/// [`CacheCounters::obs_read`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheView {
    /// Faults served from a resident frame.
    pub hits: u64,
    /// Faults that had to load the page from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Evicted frames that were dirty and had to be written back.
    pub write_backs: u64,
    /// Bytes written back to the spill file (the "spill traffic").
    pub bytes_spilled: u64,
    /// Bytes loaded from the spill file.
    pub bytes_loaded: u64,
}

impl CacheView {
    /// Fraction of faults served from memory (0 accesses counts as
    /// 0.0).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn per_instance_counts_are_exact_even_when_obs_is_off() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Off);
        let mut c = CacheCounters::new();
        c.record_hit();
        c.record_miss(64);
        c.record_miss(64);
        c.record_eviction();
        c.record_write_back(64);
        let v = c.obs_read();
        crate::set_mode(ObsMode::Counters);
        assert_eq!((v.hits, v.misses, v.evictions, v.write_backs), (1, 2, 1, 1));
        assert_eq!((v.bytes_loaded, v.bytes_spilled), (128, 64));
        assert!((v.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn registry_mirror_moves_with_the_instance() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let before = crate::snapshot::capture_metrics();
        let mut c = CacheCounters::new();
        c.record_hit();
        c.record_miss(32);
        let after = crate::snapshot::capture_metrics();
        let d = after.delta_since(&before);
        assert_eq!(d.counter("store.hits"), 1);
        assert_eq!(d.counter("store.misses"), 1);
        assert_eq!(d.counter("store.bytes_loaded"), 32);
    }

    #[test]
    fn empty_view_hit_rate_is_zero() {
        assert_eq!(CacheView::default().hit_rate(), 0.0);
    }
}
