//! The disk-backed embedding table.

use crate::cache::PageCache;
use crate::config::StorageConfig;
use crate::error::StorageError;
use crate::pagefile::PageFile;
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable, RowReader, SparseGrad};
use lazydp_exec::Executor;
use lazydp_rng::Prng;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Rows per executor chunk of a whole-table sweep, rounded up to whole
/// pages.
const SWEEP_CHUNK_ROWS: usize = 512;

/// The paged engine state: the spill file and the page cache that fronts
/// it. One lock guards both — every access is a (cache op, possible file
/// op) pair that must be atomic.
#[derive(Debug)]
struct Engine {
    file: PageFile,
    cache: PageCache,
}

/// Where the rows actually live right now.
///
/// A table starts [`Backend::Paged`]. If the spill device fails
/// persistently — bounded retries exhausted on an I/O error — the table
/// *degrades*: every page is drained into memory (resident cache frames
/// are authoritative over the file's copies) and the backend becomes
/// [`Backend::Resident`], a plain page-major `Vec<f32>`. Row values are
/// bitwise unaffected; only the capacity benefit is lost. Corruption
/// (checksum mismatch) is **not** degradable — the bytes are wrong, and
/// training on them would silently poison the model, so it panics with a
/// typed message instead.
// One Backend lives per table (behind its engine mutex) — boxing the
// paged variant would buy nothing and cost an indirection on every
// row access.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend {
    Paged(Engine),
    /// Page-major rows (`pages * page_rows * dim` elements, tail page
    /// zero-padded) — indexable with the same [`StoredTable::locate`]
    /// arithmetic as the paged path.
    Resident(Vec<f32>),
}

/// An out-of-core embedding table: rows live in fixed-size checksummed
/// pages in a spill file; a bounded [`PageCache`] keeps the hot set
/// resident with clock eviction and dirty write-back.
///
/// `StoredTable` implements [`EmbeddingStorage`], so every optimizer and
/// checkpointing run against it unchanged, and (the tentpole invariant,
/// proven by the workspace proptests, the stored release pins of
/// `tests/equivalence.rs` and `examples/out_of_core.rs`) release a model
/// **bitwise identical** to the in-memory backend for any page size and
/// any cache capacity, including a pathological 1-page cache.
///
/// # Determinism contract
///
/// Row *values* are exact regardless of cache behaviour: every read and
/// write goes through the same coherent cache, and eviction only moves
/// bytes, never transforms them. Eviction *order* (and therefore the
/// hit/miss/spill counters) is deterministic for a fixed access
/// schedule — sequential training produces identical counters run to
/// run. On a multi-width executor the lookahead flush in `lazydp-core`
/// calls [`prefetch_rows`](EmbeddingStorage::prefetch_rows) from
/// whichever thread claims the table (the overlap worker, or the main
/// thread once its gradient is done), concurrently with the forward's
/// reads of other tables. Which thread prefetches a table, and whether
/// it does so before or after that table's forward, follows timing, so
/// the counters may shift between runs; values never do.
///
/// # Fault model
///
/// Transient spill-device errors are absorbed by bounded retry
/// ([`lazydp_fault::with_retry`]); a persistently failing device
/// promotes the table to an in-memory resident backend, bitwise
/// identical (`fault.degradations` counts these). A page whose checksum
/// does not match at fault-in is *unrecoverable*: the engine panics with
/// a message naming the checksum mismatch rather than training on torn
/// bytes. Deterministic fault injection for all of this is driven by
/// the fault plan the table's spill file captures at construction
/// (`LAZYDP_FAULTS`, or a `lazydp_fault::scoped` plan).
///
/// # Concurrency
///
/// The engine sits behind a [`Mutex`], making shared-reference access
/// safe from any thread. Lock scope is one operation:
///
/// * a [`StoredReader`] holds the lock for a whole batch read — one
///   table's bag forward, [`gather`](EmbeddingStorage::gather),
///   [`to_dense_table`](EmbeddingStorage::to_dense_table), checkpoint
///   capture;
/// * [`sparse_update`](EmbeddingStorage::sparse_update) takes it once;
/// * `prefetch_rows` takes it once per page, so a forward of the same
///   table waits for at most one page load;
/// * `with_row` and `with_row_mut` take it once per row.
///
/// The lock is not reentrant: a thread that holds a reader and touches
/// the same table through any other access deadlocks.
#[derive(Debug)]
pub struct StoredTable {
    rows: usize,
    dim: usize,
    page_rows: usize,
    pages: usize,
    engine: Mutex<Backend>,
}

impl StoredTable {
    /// Creates a zero-initialized stored table (sparse spill file: zero
    /// pages cost no disk until written).
    ///
    /// # Errors
    ///
    /// Propagates spill-file creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `dim == 0`.
    pub fn zeros(rows: usize, dim: usize, cfg: &StorageConfig) -> Result<Self, StorageError> {
        assert!(
            rows > 0 && dim > 0,
            "table must be non-empty ({rows}x{dim})"
        );
        let page_rows = cfg.page_rows;
        let pages = rows.div_ceil(page_rows);
        let page_elems = page_rows * dim;
        let file = PageFile::create(&cfg.effective_spill_dir(), pages, page_elems)?;
        let cache = PageCache::new(cfg.effective_cache_pages(), page_elems);
        Ok(Self {
            rows,
            dim,
            page_rows,
            pages,
            engine: Mutex::new(Backend::Paged(Engine { file, cache })),
        })
    }

    /// Creates a table initialized uniformly in `±1/√rows`, bitwise
    /// [`EmbeddingTable::init_uniform`] from the same RNG: one seed,
    /// `rng`'s next `u64`, and row `r` is
    /// [`uniform_row`](lazydp_embedding::uniform_row)`(seed, rows, r)`.
    /// Nothing is written: [`zeros`](Self::zeros), except that a page
    /// nothing has written yet reads as its rows' initial values (see
    /// [`PageFile::set_row_fill`]), computed when it is faulted in.
    /// Construction is O(1) in the table size, memory and disk track the
    /// pages training has dirtied, and row values do not depend on the
    /// page size or the cache capacity.
    ///
    /// # Errors
    ///
    /// Propagates spill-file creation errors.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `dim == 0`.
    pub fn init_uniform<R: Prng>(
        rows: usize,
        dim: usize,
        rng: &mut R,
        cfg: &StorageConfig,
    ) -> Result<Self, StorageError> {
        let out = Self::zeros(rows, dim, cfg)?;
        paged(&mut out.lock())
            .file
            .set_row_fill(rng.next_u64(), rows, dim);
        Ok(out)
    }

    /// Spills a dense in-memory table to disk: a bitwise copy of every
    /// row, written page-sequentially and bypassing the cache (a last
    /// page's padding stays zero). Transient write faults are retried.
    ///
    /// # Errors
    ///
    /// Propagates spill-file I/O errors once retries are exhausted.
    pub fn from_dense(table: &EmbeddingTable, cfg: &StorageConfig) -> Result<Self, StorageError> {
        let out = Self::zeros(table.rows(), table.dim(), cfg)?;
        {
            let mut guard = out.lock();
            let engine = paged(&mut guard);
            let mut buf = vec![0.0f32; out.page_elems()];
            for (page, rows) in table.as_slice().chunks(out.page_elems()).enumerate() {
                let (data, padding) = buf.split_at_mut(rows.len());
                data.copy_from_slice(rows);
                padding.fill(0.0);
                lazydp_fault::with_retry(|| engine.file.write_page(page, &buf))?;
            }
        }
        Ok(out)
    }

    fn lock(&self) -> MutexGuard<'_, Backend> {
        // Explicit poison recovery, not a second panic: the engine's
        // structural invariants (cache map ↔ frames, file bookkeeping)
        // hold at every point user code can unwind — closures run only
        // after frame bookkeeping is complete — so the state behind a
        // poisoned lock is coherent. What *can* be torn is the row a
        // panicking closure was mid-writing; the crash-recovery
        // protocol discards exactly that by resuming from the last-good
        // checkpoint, and cascading the poison into every later access
        // would turn one injected kill into a process-wide outage.
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(page, first element within the page)` of a row.
    fn locate(&self, r: u64) -> (usize, usize) {
        let r = usize::try_from(r).expect("row fits usize");
        assert!(r < self.rows, "row {r} out of {}", self.rows);
        (r / self.page_rows, (r % self.page_rows) * self.dim)
    }

    /// Elements per page.
    fn page_elems(&self) -> usize {
        self.page_rows * self.dim
    }

    /// Makes `page` accessible: on the paged backend, faults it into the
    /// cache (retrying transient device errors) and returns its frame
    /// slot; if retries exhaust on an I/O error, degrades the table to
    /// the resident backend. `None` means the backend is (now)
    /// resident. The lock is held by the caller throughout, so the page
    /// cannot be evicted between this and the caller's access.
    ///
    /// # Panics
    ///
    /// Panics on unrecoverable corruption (checksum mismatch), or when
    /// the device died *and* draining the surviving pages failed too.
    fn ensure_page(&self, backend: &mut Backend, page: usize) -> Option<usize> {
        let Backend::Paged(engine) = &mut *backend else {
            return None;
        };
        let res = {
            let eng = &mut *engine;
            lazydp_fault::with_retry(|| eng.cache.touch(page, &mut eng.file))
        };
        match res {
            Ok(slot) => Some(slot),
            Err(e) if e.retryable() => {
                // The spill device is gone for good. Graceful
                // degradation: pull every row into memory (bitwise) and
                // stop using the device.
                match self.drain_to_resident(engine) {
                    Ok(data) => *backend = Backend::Resident(data),
                    Err(drain_err) => panic!(
                        "spill device failed persistently ({e}) and draining \
                         the table to memory failed too: {drain_err}"
                    ),
                }
                None
            }
            Err(corrupt) => panic!("unrecoverable storage corruption: {corrupt}"),
        }
    }

    /// The elements of `page`, made accessible by
    /// [`ensure_page`](Self::ensure_page) — residency is resolved once
    /// per access, the slot it yields indexes the frame directly.
    fn page<'a>(&self, backend: &'a mut Backend, page: usize) -> &'a [f32] {
        let slot = self.ensure_page(backend, page);
        match (backend, slot) {
            (Backend::Paged(engine), Some(slot)) => engine.cache.frame(slot),
            (Backend::Resident(data), _) => &data[page * self.page_elems()..][..self.page_elems()],
            (Backend::Paged(_), None) => unreachable!("a paged backend yields a slot"),
        }
    }

    /// Like [`page`](Self::page), mutably; a cached frame becomes dirty.
    fn page_mut<'a>(&self, backend: &'a mut Backend, page: usize) -> &'a mut [f32] {
        let slot = self.ensure_page(backend, page);
        match (backend, slot) {
            (Backend::Paged(engine), Some(slot)) => engine.cache.frame_mut(slot),
            (Backend::Resident(data), _) => {
                &mut data[page * self.page_elems()..][..self.page_elems()]
            }
            (Backend::Paged(_), None) => unreachable!("a paged backend yields a slot"),
        }
    }

    /// Reads the whole table into a page-major buffer: file pages for
    /// everything not resident (a page never written is its fill, read
    /// from no device), then the resident cache frames on top (they are
    /// authoritative — at least as new as the file's copy, and a dirty
    /// frame may be the *only* copy after a failed write-back).
    fn drain_to_resident(&self, engine: &mut Engine) -> Result<Vec<f32>, StorageError> {
        let page_elems = self.page_elems();
        let mut data = vec![0.0f32; self.pages * page_elems];
        let resident: BTreeSet<usize> = engine.cache.resident_pages().map(|(p, _)| p).collect();
        let mut buf = vec![0.0f32; page_elems];
        for page in 0..self.pages {
            if resident.contains(&page) {
                continue;
            }
            if !engine.file.read_unwritten(page, &mut buf) {
                lazydp_fault::with_retry(|| engine.file.read_page(page, &mut buf))?;
            }
            data[page * page_elems..(page + 1) * page_elems].copy_from_slice(&buf);
        }
        for (page, frame) in engine.cache.resident_pages() {
            data[page * page_elems..(page + 1) * page_elems].copy_from_slice(frame);
        }
        lazydp_obs::metrics().fault.degradations.incr();
        Ok(data)
    }

    /// Rows per page.
    #[must_use]
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Total pages backing the table.
    #[must_use]
    pub fn total_pages(&self) -> usize {
        self.pages
    }

    /// Page-cache capacity in pages. After degradation everything is
    /// resident, reported as the full page count.
    #[must_use]
    pub fn cache_pages(&self) -> usize {
        match &*self.lock() {
            Backend::Paged(engine) => engine.cache.capacity(),
            Backend::Resident(_) => self.pages,
        }
    }

    /// True when the spill device failed persistently and the table fell
    /// back to the in-memory resident backend.
    #[must_use]
    pub fn degraded(&self) -> bool {
        matches!(&*self.lock(), Backend::Resident(_))
    }

    /// Bytes of weights resident in memory right now (paged: up to
    /// capacity × page bytes; degraded: the whole table).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        match &*self.lock() {
            Backend::Paged(engine) => engine.cache.resident() as u64 * engine.file.page_bytes(),
            Backend::Resident(data) => (data.len() * 4) as u64,
        }
    }

    /// The cache counters so far (test-only: production readers go
    /// through the `lazydp_obs` registry snapshot — rule O1).
    #[cfg(test)]
    #[must_use]
    pub fn stats(&self) -> lazydp_obs::CacheView {
        match &*self.lock() {
            Backend::Paged(engine) => engine.cache.stats(),
            Backend::Resident(_) => lazydp_obs::CacheView::default(),
        }
    }

    /// Writes every dirty cached page back to the spill file (pages stay
    /// resident). Useful for bounding the data at risk; not required for
    /// correctness — reads are always served through the cache. A no-op
    /// on a degraded table.
    ///
    /// # Errors
    ///
    /// Propagates write I/O errors once retries are exhausted.
    pub fn sync(&self) -> Result<(), StorageError> {
        let mut guard = self.lock();
        match &mut *guard {
            Backend::Paged(engine) => {
                let eng = &mut *engine;
                lazydp_fault::with_retry(|| eng.cache.flush(&mut eng.file))
            }
            Backend::Resident(_) => Ok(()),
        }
    }

    /// Re-reads every page from the spill file, verifying each checksum
    /// trailer (dirty resident frames are flushed first so the scan sees
    /// current data). A no-op on a degraded table.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] for the first page whose trailer does
    /// not match; [`StorageError::Io`] on device failure.
    pub fn verify_pages(&self) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let Backend::Paged(engine) = &mut *guard else {
            return Ok(());
        };
        let eng = &mut *engine;
        lazydp_fault::with_retry(|| eng.cache.flush(&mut eng.file))?;
        let mut buf = vec![0.0f32; self.page_elems()];
        for page in 0..self.pages {
            lazydp_fault::with_retry(|| eng.file.read_page(page, &mut buf))?;
        }
        Ok(())
    }
}

/// The paged engine of a freshly constructed table (constructors only —
/// nothing can have degraded it yet).
fn paged(guard: &mut Backend) -> &mut Engine {
    match guard {
        Backend::Paged(engine) => engine,
        Backend::Resident(_) => unreachable!("fresh table is paged"),
    }
}

/// A batch [`RowReader`] over a [`StoredTable`]: it holds the table's
/// engine lock from [`reader`](EmbeddingStorage::reader) until it is
/// dropped. Each read faults its page in and counts a hit or a miss
/// exactly as a lone [`with_row`](EmbeddingStorage::with_row) does; only
/// the lock is shared.
#[derive(Debug)]
pub struct StoredReader<'a> {
    table: &'a StoredTable,
    engine: MutexGuard<'a, Backend>,
}

impl RowReader for StoredReader<'_> {
    fn row(&mut self, r: u64) -> &[f32] {
        let (page, start) = self.table.locate(r);
        &self.table.page(&mut self.engine, page)[start..start + self.table.dim]
    }
}

impl EmbeddingStorage for StoredTable {
    type Reader<'a> = StoredReader<'a>;

    fn rows(&self) -> usize {
        self.rows
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn bytes(&self) -> u64 {
        (self.rows * self.dim * 4) as u64
    }

    /// Takes the engine lock for the reader's lifetime.
    fn reader(&self) -> StoredReader<'_> {
        StoredReader {
            table: self,
            engine: self.lock(),
        }
    }

    fn with_row_mut<R>(&mut self, r: u64, f: impl FnOnce(&mut [f32]) -> R) -> R {
        let (page, start) = self.locate(r);
        let mut guard = self.lock();
        f(&mut self.page_mut(&mut guard, page)[start..start + self.dim])
    }

    /// Walks the pages in order under one engine lock, in runs of as
    /// many pages as the cache holds: each page of a run is faulted in
    /// once (with every reference bit cleared first, so the run's own
    /// faults evict none of it unless one is retried — then the run goes
    /// page by page), then the run's frames are shared out to `exec` as
    /// one region of whole pages — their valid rows, never the last
    /// page's padding — of at least 512 rows per chunk,
    /// and a dirtied page is written back once, on eviction. A
    /// persistent device failure mid-walk degrades the table and the
    /// walk goes on over the resident rows.
    fn sweep_rows_mut(&mut self, exec: &Executor, f: impl Fn(u64, &mut [f32]) + Sync) {
        let page_elems = self.page_elems();
        let rows_of = |page: usize| {
            let first = page * self.page_rows;
            (first, self.page_rows.min(self.rows - first) * self.dim)
        };
        let mut guard = self.lock();
        let mut next = 0;
        while next < self.pages {
            let end = match &mut *guard {
                Backend::Paged(engine) => {
                    engine.cache.clear_references();
                    (next + engine.cache.capacity()).min(self.pages)
                }
                Backend::Resident(_) => self.pages,
            };
            for page in next..end {
                let _ = self.ensure_page(&mut guard, page);
            }
            let frames = match &mut *guard {
                Backend::Paged(engine) => engine.cache.frames_mut(next..end),
                Backend::Resident(data) => Some(
                    data[next * page_elems..end * page_elems]
                        .chunks_mut(page_elems)
                        .collect(),
                ),
            };
            if let Some(frames) = frames {
                let mut run: Vec<(u64, &mut [f32])> = (next..end)
                    .zip(frames)
                    .map(|(page, frame)| {
                        let (first, valid) = rows_of(page);
                        (first as u64, &mut frame[..valid])
                    })
                    .collect();
                let chunk_pages = SWEEP_CHUNK_ROWS.div_ceil(self.page_rows);
                exec.par_for(&mut run, chunk_pages, |_, pages| {
                    for (first, rows) in pages {
                        f(*first, rows);
                    }
                });
            } else {
                for page in next..end {
                    let (first, valid) = rows_of(page);
                    f(first as u64, &mut self.page_mut(&mut guard, page)[..valid]);
                }
            }
            next = end;
        }
    }

    fn sparse_update(&mut self, grad: &SparseGrad, lr: f32) {
        assert_eq!(grad.dim(), self.dim, "sparse grad dim mismatch");
        let mut guard = self.lock();
        for (idx, values) in grad.iter() {
            let (page, start) = self.locate(idx);
            let data = self.page_mut(&mut guard, page);
            for (w, &g) in data[start..start + self.dim].iter_mut().zip(values.iter()) {
                *w -= lr * g;
            }
        }
    }

    /// Faults in the pages of the given **sorted** rows (each page once,
    /// ascending page order — sorted input means duplicates coalesce
    /// into consecutive hits the skip below removes for free).
    ///
    /// The lock is taken **per page**, not across the whole loop: on a
    /// multi-width executor this runs on the lookahead overlap worker
    /// (or on the main thread, for the tables it claims once its
    /// gradient is done) while the main thread's forward reads tables
    /// through a [`StoredReader`]. The worker claims tables from the
    /// last one down and the forward reads from the first one up, so
    /// they rarely meet on one table; when they do, the forward waits
    /// for at most one page load, not for the worker's whole burst.
    ///
    /// Prefetch is best-effort: a failing prefetch is swallowed (after
    /// its own retries) rather than degrading or panicking — the demand
    /// access that actually needs the row will retry, degrade, or report
    /// the corruption with the right context.
    fn prefetch_rows(&self, sorted_rows: &[u64]) {
        let mut last_page = usize::MAX;
        for &r in sorted_rows {
            let (page, _) = self.locate(r);
            if page == last_page {
                continue;
            }
            last_page = page;
            let mut guard = self.lock();
            match &mut *guard {
                Backend::Paged(engine) => {
                    let eng = &mut *engine;
                    let _ = lazydp_fault::with_retry(|| eng.cache.touch(page, &mut eng.file));
                }
                // Everything is already resident; nothing to warm.
                Backend::Resident(_) => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_fault::{FaultKind, FaultPlan, Site};
    use lazydp_rng::Xoshiro256PlusPlus;
    use lazydp_tensor::Matrix;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cfg(page_rows: usize, cache_pages: usize) -> StorageConfig {
        // Explicit cache size; the LAZYDP_STORE_PAGES CI override is
        // intentionally honored (identity must hold at ANY capacity).
        StorageConfig::new()
            .with_page_rows(page_rows)
            .with_cache_pages(cache_pages)
    }

    fn dense(rows: usize, dim: usize) -> EmbeddingTable {
        let mut rng = Xoshiro256PlusPlus::seed_from(3);
        EmbeddingTable::init_uniform(rows, dim, &mut rng)
    }

    #[test]
    fn from_dense_round_trips_bitwise_at_any_geometry() {
        let d = dense(37, 5);
        for (page_rows, cache_pages) in [(1usize, 1usize), (4, 2), (8, 100), (64, 1)] {
            let s = StoredTable::from_dense(&d, &cfg(page_rows, cache_pages)).expect("spill");
            assert_eq!(s.rows(), 37);
            assert_eq!(s.dim(), 5);
            assert_eq!(EmbeddingStorage::bytes(&s), d.bytes());
            assert_eq!(
                s.to_dense_table(),
                d,
                "pages {page_rows} cache {cache_pages}"
            );
            assert_eq!(s.to_dense_table().max_abs_diff(&d), 0.0);
        }
    }

    /// The first words of [`EmbeddingTable::init_uniform`]`(100, 8)` at
    /// seed 42: rows 0 and 99, two each.
    const INIT_KAT: [u32; 4] = [0x3d46_68ba, 0x3c60_42cd, 0x3d88_832a, 0xbcd6_63e7];

    #[test]
    fn init_uniform_matches_the_in_memory_table_bitwise() {
        use lazydp_model::{Dlrm, DlrmConfig};
        let mut r1 = Xoshiro256PlusPlus::seed_from(42);
        let mem = EmbeddingTable::init_uniform(100, 8, &mut r1);
        let words = [mem.row(0), mem.row(99)].map(|row| [row[0].to_bits(), row[1].to_bits()]);
        assert_eq!(words.concat(), INIT_KAT, "the known answer");
        // Never-written pages are filled from the same rows: pages of
        // one row, of a few (the last page partly padding), of whole
        // rows and of more than the table.
        for page_rows in [1usize, 7, 64, 128] {
            let mut r2 = Xoshiro256PlusPlus::seed_from(42);
            let stored =
                StoredTable::init_uniform(100, 8, &mut r2, &cfg(page_rows, 3)).expect("spill");
            assert_eq!(stored.to_dense_table(), mem, "{page_rows}-row pages");
            // Both RNGs drew the same number of values.
            assert_eq!(r1.clone().next_u64(), r2.next_u64());
        }
        // A whole model: bitwise `Dlrm::new`, at one frame, half the
        // pages and the whole table, and building it writes no page:
        // under a plan that fails every page write, it still builds.
        let config = DlrmConfig::tiny(3, 100, 8);
        let want = Dlrm::new(config.clone(), &mut Xoshiro256PlusPlus::seed_from(7));
        for cache_pages in [1usize, 5, 10] {
            let mut rng = Xoshiro256PlusPlus::seed_from(7);
            let no_writes = FaultPlan::new(0).rule(Site::PageWrite, 0, FaultKind::Persistent);
            let got = lazydp_fault::scoped(no_writes, || {
                Dlrm::try_new_with(config.clone(), &mut rng, |rows, dim, rng| {
                    StoredTable::init_uniform(rows, dim, rng, &cfg(10, cache_pages))
                })
            })
            .expect("building writes no page");
            let spilled: Vec<_> = got
                .tables
                .iter()
                .map(|t| (t.stats().write_backs, t.stats().bytes_spilled))
                .collect();
            assert_eq!(spilled, [(0, 0); 3], "building writes no page");
            assert_eq!((&got.bottom, &got.top), (&want.bottom, &want.top));
            for (t, (g, w)) in got.tables.iter().zip(&want.tables).enumerate() {
                assert_eq!(&g.to_dense_table(), w, "table {t}, {cache_pages} frame(s)");
            }
        }
    }

    #[test]
    fn transient_read_storm_is_value_neutral_single_threaded() {
        let d = dense(64, 4);
        let mut want = d.clone();
        let mut s = lazydp_fault::scoped(
            FaultPlan::new(7)
                .rate_rule(Site::PageRead, 0.10, FaultKind::Transient)
                .rate_rule(Site::PageWrite, 0.10, FaultKind::Transient),
            || StoredTable::from_dense(&d, &cfg(4, 3)).expect("spill"),
        );
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        for step in 0..200u64 {
            let row = rng.next_u64() % 64;
            let delta = (step as f32).sin();
            want.with_row_mut(row, |r| r[0] += delta);
            s.with_row_mut(row, |r| r[0] += delta);
            let probe: Vec<u64> = (0..8).map(|_| rng.next_u64() % 64).collect();
            let gs = EmbeddingStorage::gather(&s, &probe);
            let gw = EmbeddingStorage::gather(&want, &probe);
            assert_eq!(gs, gw, "step {step}: storm must not change a value");
        }
        assert_eq!(s.to_dense_table().max_abs_diff(&want), 0.0);
    }

    #[test]
    fn updates_survive_a_one_page_cache() {
        let d = dense(20, 3);
        let mut s = StoredTable::from_dense(&d, &cfg(2, 1)).expect("spill");
        let mut want = d.clone();
        let mut grad = SparseGrad::from_entries(
            3,
            vec![(0, vec![1.0; 3]), (9, vec![-2.0; 3]), (19, vec![0.5; 3])],
        );
        let _ = grad.coalesce();
        want.sparse_update(&grad, 0.1);
        s.sparse_update(&grad, 0.1);
        // Thrash the cache with reads of every row, then check.
        let all: Vec<u64> = (0..20).collect();
        let g = EmbeddingStorage::gather(&s, &all);
        for r in 0..20usize {
            assert_eq!(g.row(r), want.row(r), "row {r}");
        }
        // Counter asserts only hold when the cache is really smaller
        // than the table (the LAZYDP_STORE_PAGES CI override may widen
        // it — value identity above must hold either way).
        if s.cache_pages() < s.total_pages() {
            let stats = s.stats();
            assert!(stats.evictions > 0, "an undersized cache must evict");
            assert!(stats.write_backs > 0, "dirty pages must spill");
        }
    }

    #[test]
    fn a_sweep_hands_over_every_row_once_at_any_geometry() {
        let (rows, dim) = (1300, 3);
        let d = dense(rows, dim);
        let mut want = d.clone();
        for r in 0..rows {
            want.row_mut(r)[dim - 1] += r as f32;
        }
        // Pages of one row, of a few, of more than a sweep chunk (1 100
        // rows, a 200-row last page) and of more than the table, runs of
        // one page to the whole table; the padding of a partial last
        // page never shows.
        let geometries = [
            (1usize, 1usize),
            (4, 2),
            (64, 100),
            (64, 1),
            (1100, 1),
            (2048, 1),
        ];
        for ((page_rows, cache_pages), threads) in geometries
            .into_iter()
            .zip([1usize, 2, 3].into_iter().cycle())
        {
            let mut s = StoredTable::from_dense(&d, &cfg(page_rows, cache_pages)).expect("spill");
            // Pages 0 and 5 resident and referenced, the hand at page 0:
            // without the sweep's clearing, its first miss would evict
            // page 0, a hit of the same run.
            s.with_row(0, |_| ());
            s.with_row((5 * page_rows).min(rows - 1) as u64, |_| ());
            let warm = s.stats();
            s.sweep_rows_mut(&Executor::new(threads), |first, rows| {
                assert!(!rows.is_empty() && rows.len() <= page_rows * dim && rows.len() % dim == 0);
                for (r, row) in (first..).zip(rows.chunks_mut(dim)) {
                    row[dim - 1] += r as f32;
                }
            });
            let stats = s.stats();
            assert_eq!(
                stats.hits + stats.misses - warm.hits - warm.misses,
                s.total_pages() as u64,
                "one fault per page"
            );
            assert_eq!(
                s.to_dense_table(),
                want,
                "pages {page_rows} cache {cache_pages} threads {threads}"
            );
        }
    }

    #[test]
    fn gather_matches_dense_and_counts_hits() {
        let d = dense(32, 4);
        let s = StoredTable::from_dense(&d, &cfg(4, 8)).expect("spill");
        let idx = [3u64, 31, 0, 3, 17, 3];
        assert_eq!(EmbeddingStorage::gather(&s, &idx), d.gather(&idx));
        let stats = s.stats();
        if s.cache_pages() >= 2 {
            assert!(stats.hits >= 2, "repeated rows hit the cache");
        }
        assert_eq!(stats.hit_rate(), stats.hits as f64 / 6.0);
    }

    #[test]
    fn a_bag_forward_through_one_reader_matches_memory_and_per_row_reads() {
        use lazydp_embedding::bag::{self, BagIndices};
        // 25 samples of 4 lookups over 37 rows, repeats included.
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        let lookups: Vec<u64> = (0..100).map(|_| rng.next_below(LAZY_ROWS as u64)).collect();
        let batch = BagIndices::from_fixed_pooling(lookups, 4);
        // The old forward: one engine lock per lookup.
        let per_row = |table: &StoredTable| {
            let mut out = Matrix::zeros(batch.batch_size(), table.dim());
            for i in 0..batch.batch_size() {
                for &idx in batch.sample(i) {
                    table.with_row(idx, |trow| {
                        for (o, &w) in out.row_mut(i).iter_mut().zip(trow) {
                            *o += w;
                        }
                    });
                }
            }
            out
        };
        let build = |spilled: bool| {
            if spilled {
                StoredTable::from_dense(&dense(LAZY_ROWS, LAZY_DIM), &cfg(4, 1)).expect("spill")
            } else {
                lazy(4, 1)
            }
        };
        for spilled in [false, true] {
            let mut want = Matrix::default();
            bag::forward_into(&build(spilled).to_dense_table(), &batch, &mut want);
            let (through_reader, through_rows) = (build(spilled), build(spilled));
            let mut got = Matrix::default();
            bag::forward_into(&through_reader, &batch, &mut got);
            assert_eq!(got, want, "spilled {spilled}: values");
            assert_eq!(
                per_row(&through_rows),
                want,
                "spilled {spilled}: per-row values"
            );
            assert_eq!(
                through_reader.stats(),
                through_rows.stats(),
                "spilled {spilled}: one lock per batch faults and counts like one per row"
            );
            // With one frame (unless LAZYDP_STORE_PAGES widens it), a
            // lookup misses exactly when its page differs from the one
            // before: one fault per lookup, no more.
            if through_reader.cache_pages() == 1 {
                let pages: Vec<u64> = batch.flat_indices().iter().map(|r| r / 4).collect();
                let misses = 1 + pages.windows(2).filter(|w| w[0] != w[1]).count() as u64;
                let stats = through_reader.stats();
                assert_eq!(
                    (stats.hits, stats.misses),
                    (pages.len() as u64 - misses, misses),
                    "spilled {spilled}: (hits, misses)"
                );
            }
        }
    }

    #[test]
    fn prefetch_is_value_invisible_and_warms_the_cache() {
        let d = dense(64, 2);
        let s = StoredTable::from_dense(&d, &cfg(8, 8)).expect("spill");
        s.prefetch_rows(&[0, 1, 9, 17, 33]);
        let misses_after_prefetch = s.stats().misses;
        // The prefetched rows span 4 pages; if they all fit, the gather
        // is served entirely from memory.
        let _ = EmbeddingStorage::gather(&s, &[0, 1, 9, 17, 33]);
        if s.cache_pages() >= 4 {
            assert_eq!(s.stats().misses, misses_after_prefetch);
        }
        assert_eq!(s.to_dense_table(), d);
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let dir = std::env::temp_dir().join("lazydp-store-test-spill");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let s = StoredTable::zeros(8, 2, &cfg(2, 1).with_spill_dir(&dir)).expect("spill");
        drop(s);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .collect();
        assert!(
            leftovers.is_empty(),
            "no stray spill files after drop: {leftovers:?}"
        );
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn zeros_reads_back_zero_everywhere() {
        let s = StoredTable::zeros(10, 4, &cfg(3, 2)).expect("spill");
        for r in 0..10u64 {
            s.with_row(r, |row| assert!(row.iter().all(|&w| w == 0.0)));
        }
        assert_eq!(s.total_pages(), 4);
        assert_eq!(s.page_rows(), 3);
    }

    #[test]
    fn sync_persists_dirty_pages() {
        let mut s = StoredTable::zeros(4, 2, &cfg(2, 2)).expect("spill");
        s.with_row_mut(3, |row| row.copy_from_slice(&[7.0, 8.0]));
        s.sync().expect("sync");
        assert!(s.stats().write_backs >= 1);
        s.with_row(3, |row| assert_eq!(row, &[7.0, 8.0]));
        s.verify_pages().expect("all checksums valid");
    }

    #[test]
    fn lock_poisoning_is_recovered_not_cascaded() {
        let s = StoredTable::zeros(4, 2, &cfg(2, 2)).expect("spill");
        // A user closure panicking while the engine lock is held poisons
        // the mutex; later accesses must recover, not panic again.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            s.with_row(0, |_| panic!("user closure exploded"))
        }));
        assert!(unwound.is_err());
        s.with_row(0, |row| assert_eq!(row, &[0.0, 0.0]));
    }

    #[test]
    fn transient_faults_are_absorbed_bitwise() {
        let d = dense(20, 3);
        let want = {
            // Reference run with no plan of its own.
            let s = StoredTable::from_dense(&d, &cfg(2, 1)).expect("spill");
            s.to_dense_table()
        };
        let s = lazydp_fault::scoped(
            FaultPlan::new(11)
                .rate_rule(Site::PageRead, 0.2, FaultKind::Transient)
                .rate_rule(Site::PageWrite, 0.2, FaultKind::Transient),
            || StoredTable::from_dense(&d, &cfg(2, 1)).expect("spill"),
        );
        let got = s.to_dense_table();
        assert_eq!(got, want, "retried I/O must be value-invisible");
        assert_eq!(got, d);
    }

    #[test]
    fn persistent_write_failure_degrades_bitwise() {
        let d = dense(20, 3);
        // from_dense writes pages 0..10 (write ordinals 0..9); fail every
        // write from ordinal 10 on — the first eviction write-back dies,
        // retries exhaust, and the table must fall back to memory.
        let mut s = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::PageWrite, 10, FaultKind::Persistent),
            || StoredTable::from_dense(&d, &cfg(2, 1)).expect("spill"),
        );
        let mut want = d.clone();
        let mut grad = SparseGrad::from_entries(
            3,
            vec![(0, vec![1.0; 3]), (9, vec![-2.0; 3]), (19, vec![0.5; 3])],
        );
        let _ = grad.coalesce();
        want.sparse_update(&grad, 0.1);
        s.sparse_update(&grad, 0.1);
        let got = s.to_dense_table();
        assert!(s.degraded(), "persistent write failure must degrade");
        assert_eq!(s.cache_pages(), s.total_pages());
        assert_eq!(got, want, "degradation must be bitwise-invisible");
        // The degraded table keeps working.
        s.sparse_update(&grad, 0.1);
        want.sparse_update(&grad, 0.1);
        assert_eq!(s.to_dense_table(), want);
        s.sync().expect("sync is a no-op when degraded");
    }

    /// Shape of the lazy-initialisation tests: every page size but 1
    /// leaves the last page partly padding.
    const LAZY_ROWS: usize = 37;
    const LAZY_DIM: usize = 5;

    fn lazy(page_rows: usize, cache_pages: usize) -> StoredTable {
        let mut rng = Xoshiro256PlusPlus::seed_from(0xC0FFEE);
        StoredTable::init_uniform(LAZY_ROWS, LAZY_DIM, &mut rng, &cfg(page_rows, cache_pages))
            .expect("spill")
    }

    /// The same initialisation read through one page that holds the
    /// whole table.
    fn lazy_reference() -> EmbeddingTable {
        lazy(64, 8).to_dense_table()
    }

    #[test]
    fn lazy_rows_do_not_depend_on_page_size_or_cache_capacity() {
        let want = lazy_reference();
        let bound = 1.0 / (LAZY_ROWS as f32).sqrt();
        assert!(want.as_slice().iter().all(|w| w.abs() <= bound));
        assert_ne!(want.row(0), want.row(1), "rows draw from their own stream");
        for page_rows in [1usize, 4, 64] {
            for cache_pages in [1usize, 8] {
                let s = lazy(page_rows, cache_pages);
                // Single rows first, out of order, before any scan.
                for r in [36u64, 0, 17, 4] {
                    s.with_row(r, |row| assert_eq!(row, want.row(r as usize), "row {r}"));
                }
                assert_eq!(
                    s.to_dense_table(),
                    want,
                    "pages {page_rows} cache {cache_pages}"
                );
            }
        }
        let mut rng = Xoshiro256PlusPlus::seed_from(0xC0FFEF);
        let reseeded = StoredTable::init_uniform(LAZY_ROWS, LAZY_DIM, &mut rng, &cfg(4, 2))
            .expect("spill")
            .to_dense_table();
        assert_ne!(reseeded, want, "the fill is keyed by the seed");
    }

    #[test]
    fn a_clean_lazy_page_is_dropped_unwritten_and_refaults_to_the_same_bits() {
        let want = lazy_reference();
        let s = lazy(4, 1);
        let all: Vec<u64> = (0..LAZY_ROWS as u64).collect();
        // Ten pages through one frame, twice over: every page is evicted
        // and faulted in again.
        for _ in 0..2 {
            assert_eq!(EmbeddingStorage::gather(&s, &all), want.gather(&all));
        }
        let stats = s.stats();
        assert_eq!(
            (stats.write_backs, stats.bytes_spilled),
            (0, 0),
            "reading the initial contents writes nothing"
        );
        if s.cache_pages() < s.total_pages() {
            assert!(stats.evictions > 0, "an undersized cache must evict");
        }
    }

    #[test]
    fn dirtied_lazy_pages_round_trip_and_verify_beside_unwritten_ones() {
        let mut want = lazy_reference();
        let mut s = lazy(4, 1);
        // Row 5 shares its page with three untouched rows; row 36 sits
        // on the padded last page; page 2 becomes all zeros.
        for r in [5u64, 36] {
            s.with_row_mut(r, |row| row[0] += 1.0);
            want.row_mut(r as usize)[0] += 1.0;
        }
        for r in 8..12u64 {
            s.with_row_mut(r, |row| row.fill(0.0));
            want.row_mut(r as usize).fill(0.0);
        }
        assert_eq!(s.to_dense_table(), want, "the scan evicts every dirty page");
        s.verify_pages()
            .expect("written and unwritten pages verify");
        assert_eq!(s.to_dense_table(), want, "verifying moved no value");
        if s.cache_pages() < s.total_pages() {
            assert!(s.stats().write_backs >= 3, "dirty pages must spill");
        }
    }

    #[test]
    fn persistent_write_failure_on_a_lazy_table_drains_the_fill() {
        let mut want = lazy_reference();
        // Write ordinal 0 lands one rewritten page beside never-written
        // ones; every later write fails.
        let mut s = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::PageWrite, 1, FaultKind::Persistent),
            || lazy(2, 1),
        );
        s.with_row_mut(36, |row| row[0] += 1.0);
        want.row_mut(36)[0] += 1.0;
        s.sync().expect("sync");
        let mut grad = SparseGrad::from_entries(
            LAZY_DIM,
            vec![
                (0, vec![1.0; LAZY_DIM]),
                (9, vec![-2.0; LAZY_DIM]),
                (19, vec![0.5; LAZY_DIM]),
            ],
        );
        let _ = grad.coalesce();
        want.sparse_update(&grad, 0.1);
        s.sparse_update(&grad, 0.1);
        let got = s.to_dense_table();
        assert!(s.degraded(), "persistent write failure must degrade");
        assert_eq!(got, want, "never-written pages drain as their fill");
    }

    #[test]
    fn a_lazy_table_is_resident_only_where_it_was_touched() {
        // 3.2 GB logical; the cache could hold every page touched below.
        let (rows, dim) = (50_000_000usize, 16usize);
        let seeded = &mut Xoshiro256PlusPlus::seed_from(3);
        let mut s = StoredTable::init_uniform(rows, dim, seeded, &cfg(64, 256)).expect("spill");
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let mut touched = BTreeSet::new();
        for _ in 0..10 {
            let mut grad = SparseGrad::new(dim);
            for _ in 0..8 {
                grad.push_zeros(rng.next_below(rows as u64)).fill(0.01);
            }
            let _ = grad.coalesce();
            s.sparse_update(&grad, 0.1);
            let next: Vec<u64> = (0..8).map(|_| rng.next_below(rows as u64)).collect();
            let _ = EmbeddingStorage::gather(&s, &next);
            touched.extend(grad.indices().iter().chain(&next).map(|&r| r / 64));
        }
        assert!(touched.len() <= 160, "≤ 16 rows per iteration");
        let page_bytes = (64 * dim * 4) as u64;
        assert!(s.resident_bytes() <= touched.len() as u64 * page_bytes);
        assert_eq!(EmbeddingStorage::bytes(&s), 3_200_000_000);
    }

    #[test]
    fn corrupt_pages_panic_rather_than_train() {
        let plan = FaultPlan::new(0).rule(Site::PageWrite, 2, FaultKind::Corrupt);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            // One page more than the cache holds (1 frame, or what
            // LAZYDP_STORE_PAGES forces). Write ordinals: zeros writes
            // none — page 0's third write-back (ordinal 2) is torn.
            let storage = cfg(2, 1);
            let pages = storage.effective_cache_pages() + 1;
            let mut s = lazydp_fault::scoped(plan, || {
                StoredTable::zeros(2 * pages, 2, &storage).expect("spill")
            });
            s.with_row_mut(0, |row| row.copy_from_slice(&[1.0, 2.0])); // page 0 dirty
            s.sync().expect("write ordinal 0: clean");
            s.with_row_mut(0, |row| row[0] += 1.0);
            s.sync().expect("write ordinal 1: clean");
            s.with_row_mut(0, |row| row[0] += 1.0);
            s.sync().expect("write ordinal 2: torn silently");
            for page in 1..pages {
                s.with_row(2 * page as u64, |_| ()); // evicts page 0 (clean now)
            }
            s.with_row(0, |_| ()); // fault torn page back in: must panic
        }));
        let payload = unwound.expect_err("torn page must not be trained on");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("checksum mismatch"), "payload: {msg}");
    }
}
