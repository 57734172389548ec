//! Crash-consistent checkpoint placement and recovery.
//!
//! [`Checkpoint`] defines the *bytes*; this
//! module defines where they live so that a crash at **any** instant leaves
//! a resumable state on disk:
//!
//! 1. the serialized stream is written to a `*.tmp` file,
//! 2. `sync_all` forces it to the device,
//! 3. an atomic `rename` publishes it as `ckpt-<iteration>.bin`,
//! 4. the **manifest** (itself updated by the same tmp+sync+rename dance)
//!    appends a `<iteration> <len> <fnv64> <file>` record.
//!
//! A crash before the rename leaves only a `*.tmp` the sweep removes; a
//! crash between rename and manifest update leaves an unlisted
//! checkpoint file the sweep removes; a torn manifest write is impossible
//! (rename is atomic) and a torn checkpoint write is caught at resume by
//! the manifest's length + checksum record *and* the payload trailer
//! inside the stream. [`CheckpointStore::resume_latest`] walks the
//! manifest newest-first and returns the first entry that verifies —
//! the "last-good" fallback the kill-and-resume harness
//! (`tests/crash_recovery.rs`) exercises at every injected kill point.
//!
//! All file operations consult the deterministic fault plan the store
//! captured when it was opened (`lazydp_fault::Faults`) under this
//! store's own operation ordinals:
//! `ckpt.write`, `ckpt.sync`, `ckpt.rename` inject I/O failures
//! (absorbed by bounded retry) and `checkpoint` is the kill point
//! between writing and publishing.

use crate::checkpoint::Checkpoint;
use lazydp_fault::checksum::fnv1a64;
use lazydp_fault::{FaultKind, Faults, InjectedKill, Site};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Why a checkpoint-store operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// A file operation failed (retryable; retries already exhausted).
    Io {
        /// The failing operation (`ckpt.write`, `manifest.read`, …).
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A file exists but does not verify (bad length, bad checksum,
    /// unparseable payload or manifest).
    Corrupt {
        /// The corrupt file.
        path: PathBuf,
        /// What failed to verify.
        reason: String,
    },
    /// The manifest lists checkpoints but none of them verified.
    NoValidCheckpoint {
        /// How many manifest entries were tried.
        tried: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { op, path, source } => {
                write!(f, "checkpoint {op} failed on {}: {source}", path.display())
            }
            CheckpointError::Corrupt { path, reason } => {
                write!(f, "checkpoint {} is corrupt: {reason}", path.display())
            }
            CheckpointError::NoValidCheckpoint { tried } => {
                write!(f, "no valid checkpoint among {tried} manifest entries")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl lazydp_fault::Retryable for CheckpointError {
    fn retryable(&self) -> bool {
        matches!(self, CheckpointError::Io { .. })
    }
}

/// One manifest record: a published checkpoint and how to verify it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    iteration: u64,
    len: u64,
    checksum: u64,
    file: String,
}

const MANIFEST_NAME: &str = "manifest.txt";
const MANIFEST_HEADER: &str = "lazydp-manifest v1";

/// A directory of atomically-published checkpoints plus the versioned
/// manifest of known-good ones.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    entries: Vec<ManifestEntry>,
    /// The fault plan this store follows, and its own operation
    /// ordinals for the plan's decisions.
    faults: Faults,
    write_ops: u64,
    sync_ops: u64,
    rename_ops: u64,
    /// Saves attempted — the `checkpoint` kill-point ordinal.
    saves: u64,
}

/// Consults `faults` at a checkpoint I/O site: injected I/O failures
/// come back as errors (the caller retries), an injected kill panics
/// with the typed payload.
fn inject(faults: &Faults, site: Site, ordinal: u64, path: &Path) -> Result<(), CheckpointError> {
    match faults.decide(site, ordinal) {
        None => Ok(()),
        Some(FaultKind::Kill) => std::panic::panic_any(InjectedKill { site, ordinal }),
        Some(kind) => Err(CheckpointError::Io {
            op: site.name(),
            path: path.to_path_buf(),
            source: lazydp_fault::injected_io_error(kind, site, ordinal),
        }),
    }
}

fn io_err<'a>(op: &'static str, path: &'a Path) -> impl FnOnce(io::Error) -> CheckpointError + 'a {
    move |source| CheckpointError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory and loads its
    /// manifest. The store follows the fault plan
    /// [`Faults::current`] resolves here.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and manifest-read failures; a
    /// malformed manifest is [`CheckpointError::Corrupt`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err("mkdir", &dir))?;
        let manifest = dir.join(MANIFEST_NAME);
        let entries = if manifest.exists() {
            let text =
                std::fs::read_to_string(&manifest).map_err(io_err("manifest.read", &manifest))?;
            parse_manifest(&text).map_err(|reason| CheckpointError::Corrupt {
                path: manifest.clone(),
                reason,
            })?
        } else {
            Vec::new()
        };
        Ok(Self {
            dir,
            entries,
            faults: Faults::current(),
            write_ops: 0,
            sync_ops: 0,
            rename_ops: 0,
            saves: 0,
        })
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Published checkpoint iterations, oldest first.
    #[must_use]
    pub fn iterations(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.iteration).collect()
    }

    /// Atomically publishes `ck`: tmp file → `sync_all` → rename →
    /// manifest append (itself tmp+sync+rename). Transient device
    /// failures at any stage are absorbed by bounded retry. Returns the
    /// published path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures once retries are exhausted.
    ///
    /// # Panics
    ///
    /// Panics when the fault plan fires the `checkpoint` kill point —
    /// after the temp file is durable, before it is published — the
    /// window the recovery harness proves is survivable.
    pub fn save(&mut self, ck: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let save_ordinal = self.saves;
        self.saves += 1;
        let bytes = ck.to_bytes();
        let file = format!("ckpt-{:010}.bin", ck.iteration);
        let path = self.dir.join(&file);
        let tmp = self.dir.join(format!("{file}.tmp"));
        self.write_synced(&tmp, &bytes)?;
        // The crash window: the bytes are durable under the tmp name but
        // nothing references them. A kill here must resume from the
        // previous manifest entry, and the sweep must remove the tmp.
        self.faults.point(Site::MidCheckpoint, save_ordinal);
        self.rename(&tmp, &path)?;
        self.entries.push(ManifestEntry {
            iteration: ck.iteration,
            len: bytes.len() as u64,
            checksum: fnv1a64(&bytes),
            file,
        });
        if let Err(e) = self.write_manifest() {
            // The checkpoint file is published but unrecorded — undo the
            // in-memory append so our state matches the disk manifest
            // (the sweep will collect the orphan file).
            self.entries.pop();
            return Err(e);
        }
        Ok(path)
    }

    /// Loads the newest checkpoint that verifies, walking the manifest
    /// backwards past any entry whose file is missing, truncated, or
    /// corrupt — the last-good fallback.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoValidCheckpoint`] when the manifest has
    /// entries but none verified. An empty manifest is `Ok(None)` (a
    /// fresh start, not a failure).
    pub fn resume_latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        if self.entries.is_empty() {
            return Ok(None);
        }
        for entry in self.entries.iter().rev() {
            let path = self.dir.join(&entry.file);
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            if bytes.len() as u64 != entry.len || fnv1a64(&bytes) != entry.checksum {
                continue;
            }
            match Checkpoint::from_bytes(&bytes) {
                Ok(ck) => return Ok(Some(ck)),
                Err(_) => continue,
            }
        }
        Err(CheckpointError::NoValidCheckpoint {
            tried: self.entries.len(),
        })
    }

    /// Removes recovery debris from the checkpoint directory: `*.tmp`
    /// files (crashed mid-write) and `ckpt-*.bin` files the manifest
    /// does not list (crashed between rename and manifest update).
    /// Returns how many files were removed.
    ///
    /// # Errors
    ///
    /// Propagates the directory-listing error; per-file removal
    /// failures are skipped.
    pub fn sweep_stale(&self) -> Result<usize, CheckpointError> {
        let mut removed = 0usize;
        let listed: Vec<&str> = self.entries.iter().map(|e| e.file.as_str()).collect();
        let iter = std::fs::read_dir(&self.dir).map_err(io_err("readdir", &self.dir))?;
        for entry in iter {
            let entry = entry.map_err(io_err("readdir", &self.dir))?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let stale = name.ends_with(".tmp")
                || (name.starts_with("ckpt-")
                    && name.ends_with(".bin")
                    && !listed.contains(&name.as_str()));
            if stale && std::fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Writes `bytes` to `path` and forces them to the device, with
    /// fault injection at the `ckpt.write` / `ckpt.sync` sites and
    /// bounded retry around the whole attempt.
    fn write_synced(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        let faults = &self.faults;
        let write_ops = &mut self.write_ops;
        let sync_ops = &mut self.sync_ops;
        lazydp_fault::with_retry(|| {
            let ord = *write_ops;
            *write_ops += 1;
            inject(faults, Site::CkptWrite, ord, path)?;
            let mut f = File::create(path).map_err(io_err("ckpt.write", path))?;
            f.write_all(bytes).map_err(io_err("ckpt.write", path))?;
            let ord = *sync_ops;
            *sync_ops += 1;
            inject(faults, Site::CkptSync, ord, path)?;
            f.sync_all().map_err(io_err("ckpt.sync", path))
        })
    }

    /// Atomic rename with fault injection and bounded retry.
    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), CheckpointError> {
        let faults = &self.faults;
        let rename_ops = &mut self.rename_ops;
        lazydp_fault::with_retry(|| {
            let ord = *rename_ops;
            *rename_ops += 1;
            inject(faults, Site::CkptRename, ord, to)?;
            std::fs::rename(from, to).map_err(io_err("ckpt.rename", to))
        })
    }

    /// Rewrites the manifest through its own tmp+sync+rename.
    fn write_manifest(&mut self) -> Result<(), CheckpointError> {
        let mut text = String::from(MANIFEST_HEADER);
        text.push('\n');
        for e in &self.entries {
            text.push_str(&format!(
                "{} {} {:016x} {}\n",
                e.iteration, e.len, e.checksum, e.file
            ));
        }
        let manifest = self.dir.join(MANIFEST_NAME);
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        self.write_synced(&tmp, text.as_bytes())?;
        self.rename(&tmp, &manifest)
    }
}

/// Parses the manifest text; `Err` is a human-readable reason.
fn parse_manifest(text: &str) -> Result<Vec<ManifestEntry>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        other => return Err(format!("bad manifest header {other:?}")),
    }
    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [iteration, len, checksum, file] = fields.as_slice() else {
            return Err(format!("manifest line {} malformed: {line:?}", i + 2));
        };
        entries.push(ManifestEntry {
            iteration: iteration
                .parse()
                .map_err(|e| format!("manifest line {}: bad iteration: {e}", i + 2))?,
            len: len
                .parse()
                .map_err(|e| format!("manifest line {}: bad length: {e}", i + 2))?,
            checksum: u64::from_str_radix(checksum, 16)
                .map_err(|e| format!("manifest line {}: bad checksum: {e}", i + 2))?,
            file: (*file).to_string(),
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryTable;
    use crate::optimizer::{LazyDpConfig, LazyDpOptimizer};
    use lazydp_dpsgd::DpConfig;
    use lazydp_fault::FaultPlan;
    use lazydp_model::{Dlrm, DlrmConfig};
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny_checkpoint(iteration: u64) -> Checkpoint {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        let model = Dlrm::new(DlrmConfig::tiny(2, 16, 4), &mut rng);
        let cfg = LazyDpConfig::new(DpConfig::new(0.8, 1.0, 0.05, 8), false);
        let opt = LazyDpOptimizer::from_state(
            cfg,
            CounterNoise::new(2),
            model
                .tables
                .iter()
                .map(|t| HistoryTable::new(t.rows()))
                .collect(),
            iteration,
        );
        Checkpoint::capture(&model, &opt)
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lazydp-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn save_then_resume_round_trips() {
        let dir = fresh_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir).expect("open");
        assert!(store.resume_latest().expect("empty is ok").is_none());
        store.save(&tiny_checkpoint(3)).expect("save");
        store.save(&tiny_checkpoint(6)).expect("save");
        // A reopened store sees the manifest written by the first.
        let reopened = CheckpointStore::open(&dir).expect("reopen");
        assert_eq!(reopened.iterations(), vec![3, 6]);
        let ck = reopened.resume_latest().expect("resume").expect("some");
        assert_eq!(ck.iteration, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_entry() {
        let dir = fresh_dir("fallback");
        let mut store = CheckpointStore::open(&dir).expect("open");
        store.save(&tiny_checkpoint(3)).expect("save");
        let newest = store.save(&tiny_checkpoint(6)).expect("save");
        // Flip one byte of the newest published checkpoint.
        let mut bytes = std::fs::read(&newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).expect("rewrite");
        let ck = store.resume_latest().expect("resume").expect("some");
        assert_eq!(ck.iteration, 3, "must fall back past the corrupt entry");
        // Truncation is also caught (by the manifest length record).
        std::fs::write(&newest, &bytes[..mid]).expect("truncate");
        assert_eq!(
            store
                .resume_latest()
                .expect("resume")
                .expect("some")
                .iteration,
            3
        );
        // Remove both: entries exist but nothing verifies.
        std::fs::remove_file(&newest).expect("rm");
        std::fs::remove_file(dir.join("ckpt-0000000003.bin")).expect("rm");
        assert!(matches!(
            store.resume_latest(),
            Err(CheckpointError::NoValidCheckpoint { tried: 2 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_removes_tmp_and_unlisted_files_only() {
        let dir = fresh_dir("sweep");
        let mut store = CheckpointStore::open(&dir).expect("open");
        let kept = store.save(&tiny_checkpoint(5)).expect("save");
        std::fs::write(dir.join("ckpt-0000000099.bin.tmp"), b"torn").expect("tmp");
        std::fs::write(dir.join("ckpt-0000000042.bin"), b"orphan").expect("orphan");
        // Re-open so the sweep works from the on-disk manifest.
        let store = CheckpointStore::open(&dir).expect("reopen");
        assert_eq!(store.sweep_stale().expect("sweep"), 2);
        assert!(kept.exists(), "listed checkpoint survives the sweep");
        assert!(dir.join(MANIFEST_NAME).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_on_every_site_are_absorbed() {
        let dir = fresh_dir("transient");
        let mut store = lazydp_fault::scoped(
            FaultPlan::new(5)
                .rule(Site::CkptWrite, 0, FaultKind::Transient)
                .rule(Site::CkptSync, 1, FaultKind::Transient)
                .rule(Site::CkptRename, 0, FaultKind::Transient),
            || CheckpointStore::open(&dir).expect("open"),
        );
        store
            .save(&tiny_checkpoint(2))
            .expect("retries absorb all three");
        let ck = store.resume_latest().expect("resume").expect("some");
        assert_eq!(ck.iteration, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_before_publish_resumes_from_previous_checkpoint() {
        let dir = fresh_dir("kill");
        // Kill the second save in the window after the tmp file is
        // durable but before the rename publishes it.
        let mut store = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::MidCheckpoint, 1, FaultKind::Kill),
            || CheckpointStore::open(&dir).expect("open"),
        );
        store.save(&tiny_checkpoint(3)).expect("save");
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = store.save(&tiny_checkpoint(6));
        }));
        let kill = unwound
            .expect_err("must die at the kill point")
            .downcast_ref::<InjectedKill>()
            .copied()
            .expect("typed payload");
        assert_eq!(kill.site, Site::MidCheckpoint);
        // A fresh process: open, sweep the debris, resume.
        let store = CheckpointStore::open(&dir).expect("reopen");
        assert_eq!(store.sweep_stale().expect("sweep"), 1, "the torn tmp");
        let ck = store.resume_latest().expect("resume").expect("some");
        assert_eq!(ck.iteration, 3, "the last-good checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
