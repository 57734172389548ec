//! Source-tree walker: which files the contract applies to.
//!
//! Scanned, relative to the workspace root: `src/`, `examples/`, and
//! every `crates/*/{src,examples}/`. Skipped: `tests/` and `benches/`
//! directories (integration tests and benches are test code),
//! `target/`, and `vendor/` (third-party stubs are outside the
//! contract).

use std::path::{Path, PathBuf};

/// Collects the workspace-relative paths (forward slashes, sorted) of
/// every `.rs` file the linter scans under `root`.
///
/// # Errors
///
/// Returns a message on I/O failure. A missing `crates/`, `src/`, or
/// `examples/` directory is not an error (partial checkouts lint fine).
pub fn collect_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for top in ["src", "examples"] {
        walk_dir(&root.join(top), root, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("reading {}: {e}", crates.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            walk_dir(&member.join("src"), root, &mut out)?;
            walk_dir(&member.join("examples"), root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

const SKIP_DIRS: &[&str] = &["tests", "benches", "target", "vendor"];

fn walk_dir(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_dir(&path, root, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace_and_skips_vendor_and_tests() {
        // The lint crate lives at crates/lint inside the workspace.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = collect_files(&root).expect("walk");
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.contains("/tests/")));
        assert!(!files.iter().any(|f| f.contains("/benches/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "deterministic order");
    }
}
