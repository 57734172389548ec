//! What the harness needs from the host: the refusals that keep a run
//! comparable, the environment fingerprint written into result files,
//! peak RSS, and a spill directory that cannot outlive the run.

use crate::json::Json;
use crate::spec::EXEC_WIDTH;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Refuses to measure on a host or in an environment that silently
/// changes what is measured.
///
/// # Errors
///
/// Names the `LAZYDP_*` variable that is set, or reports fewer than
/// [`EXEC_WIDTH`] CPUs.
pub fn refuse_unless_comparable() -> Result<(), String> {
    // LAZYDP_THREADS / _GEMM / _SIMD / _OBS / _STORE_PAGES / _FAULTS each
    // re-route a layer; a run under any of them is a different benchmark.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LAZYDP_"))
    {
        return Err(format!(
            "{} is set; unset every LAZYDP_* variable (they change what is measured)",
            k.to_string_lossy()
        ));
    }
    let cpus = nproc();
    if cpus < EXEC_WIDTH {
        return Err(format!(
            "{cpus} CPU available, the benchmark runs at executor width {EXEC_WIDTH}"
        ));
    }
    Ok(())
}

/// CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `benchmark/out`: everything the harness writes besides the result
/// file it was asked for lands here (git-ignored). The manifest
/// directory is baked in at build time, and the contract builds the
/// harness in the checkout it runs in.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process spill directory under [`out_dir`], removed on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates `out/spill-<pid>` after clearing the debris of dead runs:
    /// a killed run leaves its spill files behind, and a later run on a
    /// fuller disk would not be the same measurement.
    ///
    /// # Errors
    ///
    /// Propagates directory creation errors.
    pub fn create() -> std::io::Result<Self> {
        let out = out_dir();
        std::fs::create_dir_all(&out)?;
        for entry in std::fs::read_dir(&out)?.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(pid) = name.strip_prefix("spill-") else {
                continue;
            };
            // Only a directory whose owner is gone is stale; a live
            // sibling (another `run` in the same checkout) keeps its files.
            if !Path::new("/proc").join(pid).exists() {
                let _ = lazydp::store::sweep_stale_spill_files(&entry.path());
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let path = out.join(format!("spill-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A command's stdout, if it ran and succeeded.
fn stdout_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_dev, mount, fs) = (parts.next()?, parts.next()?, parts.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The environment fingerprint recorded in every result file.
#[must_use]
pub fn fingerprint(seed: u64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let repo_arg = repo.to_string_lossy().into_owned();
    // Absent in the contract's checkout, which is not a git repository.
    let commit = stdout_of("git", &["-C", &repo_arg, "rev-parse", "--short", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| stdout_of("git", &["-C", &repo_arg, "status", "--porcelain"]))
        .map(|status| !status.is_empty());
    let or_unknown = |s: Option<String>| Json::str(s.unwrap_or_else(|| "unknown".to_string()));
    // What the compiler was actually told, whatever the route
    // (RUSTFLAGS, .cargo/config.toml): the features this crate was
    // built with are the features the kernels were built with.
    let mut features = Vec::new();
    for (name, on) in [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        if on {
            features.push(Json::str(name));
        }
    }
    Json::obj()
        .with("nproc", Json::UInt(nproc() as u64))
        .with("cpu_model", Json::str(cpu_model))
        .with("rustc", or_unknown(stdout_of("rustc", &["--version"])))
        .with(
            "rustflags_env",
            std::env::var("RUSTFLAGS").map_or(Json::Null, Json::Str),
        )
        .with("target_features", Json::Arr(features))
        .with("optimized", Json::Bool(!cfg!(debug_assertions)))
        .with("git_commit", or_unknown(commit))
        .with("git_dirty", dirty.map_or(Json::Null, Json::Bool))
        .with("seed", Json::UInt(seed))
        .with("spill_fs", Json::str(fs_type_of(&out_dir())))
        .with("executor_width", Json::UInt(EXEC_WIDTH as u64))
}
