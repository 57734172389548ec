//! Storage-engine configuration.

use std::path::{Path, PathBuf};

/// Environment variable forcing the page-cache capacity (in pages) for
/// every [`StoredTable`](crate::StoredTable) created afterwards. CI sets
/// `LAZYDP_STORE_PAGES=4` in one matrix leg so the eviction and
/// write-back paths are exercised by the whole test suite, not just the
/// storage-specific tests.
pub const CACHE_PAGES_ENV: &str = "LAZYDP_STORE_PAGES";

/// Configuration of the out-of-core embedding storage engine: page
/// geometry, cache budget, and where spill files live.
///
/// Passed directly to the [`StoredTable`](crate::StoredTable)
/// constructors and to `Checkpoint::restore_stored`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Rows per page. A page is the unit of disk I/O and cache
    /// residency; `page_rows × dim × 4` bytes each.
    pub page_rows: usize,
    /// Page-cache capacity in pages (the hot set kept in memory).
    /// Overridden at construction time by [`CACHE_PAGES_ENV`] when set.
    pub cache_pages: usize,
    /// Directory spill files are created in. `None` (the default) uses
    /// the OS temp dir; files are uniquely named and deleted when the
    /// table is dropped either way.
    pub spill_dir: Option<PathBuf>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            page_rows: 64,
            cache_pages: 256,
            spill_dir: None,
        }
    }
}

impl StorageConfig {
    /// The default configuration (64-row pages, 256-page cache, OS temp
    /// dir spill).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the rows-per-page geometry.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows == 0`.
    #[must_use]
    pub fn with_page_rows(mut self, page_rows: usize) -> Self {
        assert!(page_rows > 0, "pages must hold at least one row");
        self.page_rows = page_rows;
        self
    }

    /// Sets the cache capacity in pages.
    ///
    /// # Panics
    ///
    /// Panics if `cache_pages == 0`.
    #[must_use]
    pub fn with_cache_pages(mut self, cache_pages: usize) -> Self {
        assert!(cache_pages > 0, "cache must hold at least one page");
        self.cache_pages = cache_pages;
        self
    }

    /// Sets the spill directory.
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.spill_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// The cache capacity actually used at construction time: the
    /// [`CACHE_PAGES_ENV`] override when set (and parsable, ≥ 1), else
    /// [`cache_pages`](Self::cache_pages).
    #[must_use]
    pub fn effective_cache_pages(&self) -> usize {
        std::env::var(CACHE_PAGES_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(self.cache_pages)
    }

    /// The spill directory actually used at construction time.
    #[must_use]
    pub fn effective_spill_dir(&self) -> PathBuf {
        self.spill_dir.clone().unwrap_or_else(std::env::temp_dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = StorageConfig::new()
            .with_page_rows(8)
            .with_cache_pages(2)
            .with_spill_dir("/tmp/somewhere");
        assert_eq!(cfg.page_rows, 8);
        assert_eq!(cfg.cache_pages, 2);
        assert_eq!(cfg.spill_dir.as_deref(), Some(Path::new("/tmp/somewhere")));
        assert_eq!(cfg.effective_spill_dir(), PathBuf::from("/tmp/somewhere"));
    }

    #[test]
    fn default_spill_is_the_os_temp_dir() {
        let cfg = StorageConfig::default();
        assert_eq!(cfg.effective_spill_dir(), std::env::temp_dir());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn rejects_zero_page_rows() {
        let _ = StorageConfig::new().with_page_rows(0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn rejects_zero_cache_pages() {
        let _ = StorageConfig::new().with_cache_pages(0);
    }
}
