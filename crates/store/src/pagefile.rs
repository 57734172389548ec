//! Fixed-size row pages persisted to a plain file, with per-page
//! checksums and deterministic fault injection.
//!
//! A [`PageFile`] is the disk half of the storage engine: `pages` slots,
//! each holding `page_elems` little-endian `f32`s followed by an 8-byte
//! [`page_sum64`] trailer over those data bytes, accessed with explicit
//! positioned reads/writes (`read_exact_at`/`write_all_at` on Unix, a
//! seek-based fallback elsewhere). No mmap, no external dependencies —
//! the file is created sparse (zero pages cost no disk until written),
//! uniquely named, and deleted on drop, so `cargo test` leaves no stray
//! spill files behind.
//!
//! The trailer is verified on every fault-in: a torn or bit-rotted page
//! surfaces as [`StorageError::Corrupt`] instead of silently training on
//! garbage. A trailer of zero over all-zero data bytes is the
//! never-written sentinel (what a sparse slot reads back as), and what
//! such a page *holds* is decided here and nowhere else: zeros, or —
//! with [`PageFile::set_row_fill`] — a pure function of `(seed, row)`,
//! so a table's initial contents cost no I/O and no disk until a page
//! is dirtied. Every written page carries a non-zero trailer, explicit
//! zeros included. The trailer is not a persisted format: a
//! spill file is scratch owned by one process, never reopened (a crashed
//! run's leftovers are swept, not read), so the checksum function only
//! has to agree with itself within a build — which is what lets it be
//! the word-parallel [`page_sum64`] rather than the byte-serial FNV-1a
//! the checkpoint formats are pinned to.
//!
//! Every read and write consults the fault plan the file captured when
//! it was created ([`lazydp_fault::Faults`]) under this file's **own**
//! operation ordinals, so a fixed plan reproduces the identical failure
//! sequence on every run regardless of what other tables are doing.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use lazydp_embedding::uniform_row;
use lazydp_fault::checksum::page_sum64;
use lazydp_fault::{FaultKind, Faults, InjectedKill, Site};

use crate::error::StorageError;

/// Process-wide counter making spill-file names unique even when many
/// tables share one spill directory.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(0);

/// Spill files currently owned by a live [`PageFile`] in this process.
/// [`sweep_stale_spill_files`] removes lazydp spill files *not* in this
/// set — leftovers of an earlier crashed run.
static LIVE: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

fn live_lock() -> std::sync::MutexGuard<'static, BTreeSet<PathBuf>> {
    // The guarded value is only ever inserted into / removed from, so a
    // panicking holder cannot leave it torn.
    LIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes lazydp spill files in `dir` that no live [`PageFile`] of this
/// process owns — the debris an earlier crashed run left behind (the
/// normal path removes them on drop). Returns how many were removed.
///
/// Call this at recovery time, before training restarts, and only when
/// no *other* training process shares the spill directory (stale files
/// are recognised by name pattern, not by owner).
///
/// # Errors
///
/// Propagates the directory-listing error; per-file removal failures are
/// skipped (another sweeper may have won the race).
pub fn sweep_stale_spill_files(dir: &Path) -> io::Result<usize> {
    let live = live_lock().clone();
    let mut removed = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("lazydp-store-")
            && name.ends_with(".pages")
            && !live.contains(&path)
            && std::fs::remove_file(&path).is_ok()
        {
            removed += 1;
        }
    }
    Ok(removed)
}

/// The initial contents [`PageFile::set_row_fill`] installs: the
/// uniform initialisation of a `rows × dim` table keyed by `seed`.
#[derive(Debug)]
struct RowFill {
    seed: u64,
    rows: usize,
    dim: usize,
}

impl RowFill {
    fn fill_page(&self, page: usize, out: &mut [f32]) {
        let first = page * (out.len() / self.dim);
        for (r, row) in (first..).zip(out.chunks_exact_mut(self.dim)) {
            if r < self.rows {
                uniform_row(self.seed, self.rows, r as u64, row);
            } else {
                row.fill(0.0);
            }
        }
    }
}

/// A file of fixed-size, checksummed `f32` pages with positioned I/O.
#[derive(Debug)]
pub struct PageFile {
    file: File,
    path: PathBuf,
    page_elems: usize,
    pages: usize,
    /// What never-written pages hold; `None` is zeros.
    fill: Option<RowFill>,
    /// Pages a write was ever attempted on.
    written: Vec<bool>,
    /// Scratch byte buffer reused across reads/writes (one slot:
    /// data bytes plus the checksum trailer).
    scratch: Vec<u8>,
    /// The fault plan this file follows, and its own operation
    /// ordinals for the plan's decisions.
    faults: Faults,
    read_ops: u64,
    write_ops: u64,
}

impl PageFile {
    /// Creates a sparse, zero-filled page file in `dir`, following the
    /// fault plan [`Faults::current`] resolves here.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors (missing directory, permissions).
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0` or `page_elems == 0`.
    pub fn create(dir: &Path, pages: usize, page_elems: usize) -> Result<Self, StorageError> {
        assert!(pages > 0 && page_elems > 0, "empty page file");
        let name = format!(
            "lazydp-store-{}-{}.pages",
            std::process::id(),
            NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let create = || -> io::Result<File> {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)?;
            // A sparse zero file: unwritten slots read back as zero data
            // plus a zero trailer — the never-written sentinel.
            file.set_len((pages as u64) * slot_bytes(page_elems))?;
            Ok(file)
        };
        let file = create().map_err(|source| StorageError::Io {
            site: "create",
            page: None,
            source,
        })?;
        live_lock().insert(path.clone());
        Ok(Self {
            file,
            path,
            page_elems,
            pages,
            fill: None,
            written: vec![false; pages],
            scratch: vec![0u8; slot_bytes(page_elems) as usize],
            faults: Faults::current(),
            read_ops: 0,
            write_ops: 0,
        })
    }

    /// Makes never-written pages read as the uniform `±1/√rows`
    /// initialisation of a `rows × dim` table instead of zeros: row `r`
    /// is [`uniform_row`]`(seed, rows, r)`, so its value is the same for
    /// any page size, and rows past `rows` (the last page's padding)
    /// stay zero.
    ///
    /// # Panics
    ///
    /// Panics if pages do not hold whole `dim`-wide rows.
    pub fn set_row_fill(&mut self, seed: u64, rows: usize, dim: usize) {
        assert!(
            dim > 0 && self.page_elems.is_multiple_of(dim),
            "pages of {} elements do not hold whole {dim}-wide rows",
            self.page_elems
        );
        self.fill = Some(RowFill { seed, rows, dim });
    }

    /// Number of pages.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Elements per page.
    #[must_use]
    pub fn page_elems(&self) -> usize {
        self.page_elems
    }

    /// Data bytes per page (excluding the checksum trailer — the
    /// training-relevant payload the cache counters account in).
    #[must_use]
    pub fn page_bytes(&self) -> u64 {
        (self.page_elems * 4) as u64
    }

    /// The spill file's path (diagnostics; the file is deleted on drop).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn offset(&self, page: usize) -> u64 {
        assert!(page < self.pages, "page {page} out of {}", self.pages);
        (page as u64) * slot_bytes(self.page_elems)
    }

    /// Consults this file's fault plan for this operation; returns the
    /// injected I/O failure if one fires, panics on an injected kill.
    fn injection(
        &self,
        site: Site,
        ordinal: u64,
        page: usize,
    ) -> Result<Option<FaultKind>, StorageError> {
        match self.faults.decide(site, ordinal) {
            None => Ok(None),
            Some(FaultKind::Kill) => {
                std::panic::panic_any(InjectedKill { site, ordinal });
            }
            // Corrupt on a write is handled by the caller (flip a byte
            // after checksumming); anywhere else it degenerates to an
            // I/O failure.
            Some(FaultKind::Corrupt) if site == Site::PageWrite => Ok(Some(FaultKind::Corrupt)),
            Some(kind) => Err(StorageError::Io {
                site: site.name(),
                page: Some(page),
                source: lazydp_fault::injected_io_error(kind, site, ordinal),
            }),
        }
    }

    /// Reads page `page` into `out` (`page_elems` long), verifying its
    /// checksum trailer.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on device failure (retryable);
    /// [`StorageError::Corrupt`] when the trailer does not match the
    /// data just read (not retryable — the bytes on disk are wrong).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `out` has the wrong length,
    /// or when the fault plan fires an injected kill here.
    pub fn read_page(&mut self, page: usize, out: &mut [f32]) -> Result<(), StorageError> {
        assert_eq!(out.len(), self.page_elems, "page buffer length mismatch");
        let ord = self.read_ops;
        self.read_ops += 1;
        self.injection(Site::PageRead, ord, page)?;
        let off = self.offset(page);
        read_exact_at(&mut self.file, &mut self.scratch, off).map_err(|source| {
            StorageError::Io {
                site: Site::PageRead.name(),
                page: Some(page),
                source,
            }
        })?;
        let (data, trailer) = self.scratch.split_at(self.page_elems * 4);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        // Trailer 0 + all-zero data = a never-written sparse slot. The
        // zero scan is an OR-fold, not `any`: without the early exit it
        // vectorizes, where `any` tests the page one byte at a time.
        let written = stored != 0 || data.iter().fold(0u8, |acc, &b| acc | b) != 0;
        if written {
            let computed = page_sum64(data);
            if computed != stored {
                lazydp_obs::metrics().fault.checksum_failures.incr();
                return Err(StorageError::Corrupt {
                    page,
                    path: self.path.clone(),
                    stored,
                    computed,
                });
            }
        } else if let Some(fill) = &self.fill {
            fill.fill_page(page, out);
            return Ok(());
        }
        for (v, b) in out.iter_mut().zip(data.chunks_exact(4)) {
            *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        Ok(())
    }

    /// Fills `out` with what page `page` holds, read from no device, if
    /// no write was ever attempted on it; returns whether it did.
    pub fn read_unwritten(&self, page: usize, out: &mut [f32]) -> bool {
        match (self.written[page], &self.fill) {
            (true, _) => return false,
            (false, Some(fill)) => fill.fill_page(page, out),
            (false, None) => out.fill(0.0),
        }
        true
    }

    /// Writes `data` (`page_elems` long) as page `page`, appending its
    /// checksum trailer.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on device failure (retryable).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or `data` has the wrong length,
    /// or when the fault plan fires an injected kill here.
    pub fn write_page(&mut self, page: usize, data: &[f32]) -> Result<(), StorageError> {
        assert_eq!(data.len(), self.page_elems, "page buffer length mismatch");
        self.written[page] = true; // a failed write may still land

        let ord = self.write_ops;
        self.write_ops += 1;
        let injected = self.injection(Site::PageWrite, ord, page)?;
        let off = self.offset(page);
        let data_bytes = self.page_elems * 4;
        for (b, &v) in self.scratch[..data_bytes]
            .chunks_exact_mut(4)
            .zip(data.iter())
        {
            b.copy_from_slice(&v.to_le_bytes());
        }
        let sum = page_sum64(&self.scratch[..data_bytes]);
        self.scratch[data_bytes..].copy_from_slice(&sum.to_le_bytes());
        if injected == Some(FaultKind::Corrupt) {
            // A torn page: one data byte flips *after* the checksum was
            // computed, so the next fault-in must detect the mismatch.
            self.scratch[ord as usize % data_bytes] ^= 0x80;
        }
        write_all_at(&mut self.file, &self.scratch, off).map_err(|source| StorageError::Io {
            site: Site::PageWrite.name(),
            page: Some(page),
            source,
        })
    }
}

/// Bytes per on-disk slot: page data plus the 8-byte checksum trailer.
fn slot_bytes(page_elems: usize) -> u64 {
    (page_elems * 4 + 8) as u64
}

impl Drop for PageFile {
    fn drop(&mut self) {
        live_lock().remove(&self.path);
        // Best-effort cleanup: the spill file is scratch state, never a
        // durability surface (checkpoints are), so a failed unlink only
        // leaks temp-dir space.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(unix)]
fn read_exact_at(file: &mut File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_all_at(file: &mut File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &mut File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

#[cfg(not(unix))]
fn write_all_at(file: &mut File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_fault::FaultPlan;

    fn temp_dir() -> PathBuf {
        std::env::temp_dir()
    }

    #[test]
    fn pages_round_trip_and_start_zeroed() {
        let mut f = PageFile::create(&temp_dir(), 3, 4).expect("create");
        let mut buf = [1.0f32; 4];
        f.read_page(2, &mut buf).expect("read");
        assert_eq!(buf, [0.0; 4], "sparse pages read back as zeros");
        f.write_page(1, &[1.5, -2.0, 0.25, 1e-30]).expect("write");
        f.read_page(1, &mut buf).expect("read");
        assert_eq!(buf, [1.5, -2.0, 0.25, 1e-30], "bitwise round trip");
        f.read_page(0, &mut buf).expect("read");
        assert_eq!(buf, [0.0; 4], "neighbour pages untouched");
    }

    #[test]
    fn all_zero_written_pages_still_verify() {
        // An explicitly written zero page carries a real (nonzero)
        // checksum; it must read back fine alongside sparse zeros.
        let mut f = PageFile::create(&temp_dir(), 2, 4).expect("create");
        f.write_page(0, &[0.0; 4]).expect("write");
        let mut buf = [9.0f32; 4];
        f.read_page(0, &mut buf).expect("read written zeros");
        assert_eq!(buf, [0.0; 4]);
        f.read_page(1, &mut buf).expect("read sparse zeros");
        assert_eq!(buf, [0.0; 4]);
    }

    #[test]
    fn row_fill_covers_exactly_the_never_written_pages() {
        // 5 rows of 2 in 2-row pages: the last page is half padding.
        let filled = |page_elems: usize| {
            let mut f = PageFile::create(&temp_dir(), 6, page_elems).expect("create");
            f.set_row_fill(7, 5, 2);
            f
        };
        let mut f = filled(4);
        let mut init = [[0.0f32; 4]; 3];
        for (page, buf) in init.iter_mut().enumerate() {
            f.read_page(page, buf).expect("read");
        }
        let bound = 1.0 / 5f32.sqrt();
        assert!(init[0].iter().all(|w| *w != 0.0 && w.abs() <= bound));
        assert_ne!(init[0][..2], init[0][2..], "one stream per row");
        assert_eq!(init[2][2..], [0.0; 2], "padding past the last row is zero");
        // Addressed by row: 1-row pages hold the same values.
        let mut one_row = filled(2);
        let mut row = [0.0f32; 2];
        one_row.read_page(3, &mut row).expect("read");
        assert_eq!(row, init[1][2..]);
        // A written page — explicit zeros included — is never refilled.
        f.write_page(0, &[0.0; 4]).expect("write");
        f.write_page(1, &[1.5, -2.0, 0.25, 1e-30]).expect("write");
        let mut buf = [9.0f32; 4];
        f.read_page(0, &mut buf).expect("read");
        assert_eq!(buf, [0.0; 4], "written zeros carry a non-zero trailer");
        f.read_page(1, &mut buf).expect("read");
        assert_eq!(buf, [1.5, -2.0, 0.25, 1e-30]);
        f.read_page(2, &mut buf).expect("read");
        assert_eq!(buf, init[2], "unwritten neighbours keep their fill");
    }

    #[test]
    fn file_is_deleted_on_drop() {
        let f = PageFile::create(&temp_dir(), 1, 2).expect("create");
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists(), "spill file must be cleaned up");
    }

    #[test]
    fn names_are_unique_within_a_directory() {
        let a = PageFile::create(&temp_dir(), 1, 1).expect("a");
        let b = PageFile::create(&temp_dir(), 1, 1).expect("b");
        assert_ne!(a.path(), b.path());
    }

    #[test]
    #[should_panic(expected = "page 3 out of")]
    fn rejects_out_of_range_pages() {
        let mut f = PageFile::create(&temp_dir(), 3, 2).expect("create");
        let mut buf = [0.0f32; 2];
        let _ = f.read_page(3, &mut buf);
    }

    #[test]
    fn create_fails_in_a_missing_directory() {
        let missing = temp_dir().join("lazydp-definitely-missing-dir");
        assert!(PageFile::create(&missing, 1, 1).is_err());
    }

    #[test]
    fn torn_pages_are_detected_by_checksum() {
        let mut f = PageFile::create(&temp_dir(), 2, 4).expect("create");
        f.write_page(0, &[1.0, 2.0, 3.0, 4.0]).expect("write");
        // Tear the page behind the engine's back: flip one data byte.
        {
            use std::os::unix::fs::FileExt;
            let raw = OpenOptions::new()
                .write(true)
                .open(f.path())
                .expect("reopen");
            raw.write_all_at(&[0xFF], 2).expect("corrupt");
        }
        let mut buf = [0.0f32; 4];
        let err = f.read_page(0, &mut buf).expect_err("must detect");
        assert!(
            matches!(err, StorageError::Corrupt { page: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert!(!err.retryable());
    }

    #[test]
    fn a_corrupted_trailer_is_detected_too() {
        let mut f = PageFile::create(&temp_dir(), 1, 2).expect("create");
        f.write_page(0, &[5.0, 6.0]).expect("write");
        {
            use std::os::unix::fs::FileExt;
            let raw = OpenOptions::new()
                .write(true)
                .open(f.path())
                .expect("reopen");
            // Trailer starts after the 8 data bytes of a 2-elem page.
            raw.write_all_at(&[0xAA], 8).expect("corrupt trailer");
        }
        let mut buf = [0.0f32; 2];
        assert!(matches!(
            f.read_page(0, &mut buf),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn injected_transient_faults_fail_that_ordinal_only() {
        let mut f = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::PageRead, 1, FaultKind::Transient),
            || PageFile::create(&temp_dir(), 1, 2).expect("create"),
        );
        let mut buf = [0.0f32; 2];
        f.read_page(0, &mut buf).expect("ordinal 0 clean");
        let err = f.read_page(0, &mut buf).expect_err("ordinal 1 fails");
        assert!(err.retryable());
        f.read_page(0, &mut buf).expect("ordinal 2 clean again");
    }

    #[test]
    fn injected_write_corruption_is_caught_at_fault_in() {
        let mut f = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::PageWrite, 0, FaultKind::Corrupt),
            || PageFile::create(&temp_dir(), 1, 4).expect("create"),
        );
        f.write_page(0, &[1.0, 2.0, 3.0, 4.0])
            .expect("the write itself succeeds (torn silently)");
        let mut buf = [0.0f32; 4];
        assert!(
            matches!(f.read_page(0, &mut buf), Err(StorageError::Corrupt { .. })),
            "torn write must not be silently trained on"
        );
    }

    #[test]
    fn sweep_removes_only_stale_spill_files() {
        // A private directory so parallel tests' live files don't race
        // the assertion.
        let dir = temp_dir().join(format!("lazydp-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let live = PageFile::create(&dir, 1, 2).expect("live");
        let stale = dir.join("lazydp-store-999999-7.pages");
        std::fs::write(&stale, b"debris").expect("stale");
        let unrelated = dir.join("keep.txt");
        std::fs::write(&unrelated, b"keep").expect("unrelated");
        let removed = sweep_stale_spill_files(&dir).expect("sweep");
        assert_eq!(removed, 1);
        assert!(!stale.exists(), "stale spill file swept");
        assert!(live.path().exists(), "live spill file kept");
        assert!(unrelated.exists(), "unrelated file kept");
        drop(live);
        let _ = std::fs::remove_file(&unrelated);
        let _ = std::fs::remove_dir(&dir);
    }

    /// A plan that fails page read #0 of every file built under it.
    fn first_read_fails() -> FaultPlan {
        FaultPlan::new(0).rule(Site::PageRead, 0, FaultKind::Transient)
    }

    #[test]
    fn a_plan_scoped_on_one_thread_never_reaches_a_file_built_on_another() {
        let mut before = PageFile::create(&temp_dir(), 1, 2).expect("create");
        let mut elsewhere = lazydp_fault::scoped(first_read_fails(), || {
            std::thread::spawn(|| PageFile::create(&temp_dir(), 1, 2).expect("create"))
                .join()
                .expect("join")
        });
        // Both follow the process default, not the scope.
        let default_fails = Faults::current().decide(Site::PageRead, 0).is_some();
        for f in [&mut before, &mut elsewhere] {
            assert_eq!(f.read_page(0, &mut [0.0; 2]).is_err(), default_fails);
        }
    }

    #[test]
    fn a_file_built_in_a_scope_keeps_its_plan_on_any_thread() {
        let mut f = lazydp_fault::scoped(first_read_fails(), || {
            PageFile::create(&temp_dir(), 1, 2).expect("create")
        });
        let err = std::thread::spawn(move || f.read_page(0, &mut [0.0; 2]))
            .join()
            .expect("join")
            .expect_err("read #0 fails off-thread, after the scope");
        assert!(err.retryable());
    }
}
