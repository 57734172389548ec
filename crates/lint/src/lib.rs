//! `lazydp-lint` — workspace static analysis that machine-checks the
//! determinism & privacy contract of the LazyDP reproduction.
//!
//! The reproduction's value rests on two invariants that refactors can
//! silently break: **bitwise determinism** across threads/backends
//! (the LazyDP ≡ eager DP-SGD equivalence), and **DP hygiene** (model
//! state only ever leaves through the clip→noise release path). This
//! crate turns the prose contract in `ARCHITECTURE.md` into a CI gate:
//! a dependency-free, hand-rolled lexer (strings, char literals, nested
//! comments, and attributes are understood; no `syn`, so the check
//! builds offline) feeds a seven-rule engine, and every exemption lives
//! in `lint.toml` with a mandatory written justification.
//!
//! # Rules
//!
//! See [`rules::RULES`] (or run `lazydp-lint rules`): D1 (no
//! `HashMap`/`HashSet` in non-test code), D2 (no wall clock outside
//! `crates/obs`), D3 (no raw `thread::{spawn,scope}` outside
//! `lazydp_exec`), D4 (no float `.sum()`/`.fold(…)` outside
//! `lazydp_tensor`), D5 (`#![forbid(unsafe_code)]` in every crate root),
//! P1 (no debug-printing gradient-bearing values), P2 (no `rand::` or
//! entropy-seeded sampling outside `lazydp_rng`).
//!
//! # CLI
//!
//! ```text
//! cargo run -p lazydp-lint -- check [--json] [--root DIR] [--allowlist FILE]
//! cargo run -p lazydp-lint -- rules
//! ```
//!
//! # Stability contract (for tooling)
//!
//! **Exit codes** are stable: `0` = clean (possibly with stale-allowlist
//! warnings), `1` = at least one non-allowlisted violation, `2` = usage,
//! I/O, or `lint.toml` configuration error.
//!
//! **`--json` schema** (`schema_version` is bumped on any breaking
//! change; additions are non-breaking):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "root": "…",            // the scanned workspace root as given
//!   "files_scanned": 123,
//!   "rules": ["D1", "…"],   // the rule IDs this binary knows
//!   "clean": true,
//!   "violations":   [ {"rule", "path", "line", "column", "message", "snippet"} ],
//!   "allowed":      [ {…same fields…, "reason"} ],
//!   "stale_allows": [ {"rule", "path", "line"|null, "reason"} ]
//! }
//! ```
//!
//! Paths are workspace-relative with forward slashes; lines and columns
//! are 1-based. `violations` is sorted by `(path, line, column, rule)`.
//!
//! # Example
//!
//! ```
//! use lazydp_lint::rules::check_source;
//!
//! let bad = "use std::collections::HashMap;\n";
//! let v = check_source("crates/model/src/x.rs", bad);
//! assert_eq!(v[0].rule, "D1");
//! assert_eq!((v[0].line, v[0].col), (1, 23));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use report::Report;
use std::path::Path;

/// Runs the full check: walk `root`, lint every file, apply the
/// allowlist at `allowlist_path` (default `<root>/lint.toml`; a missing
/// default allowlist means "no exemptions").
///
/// # Errors
///
/// Returns a message (exit code 2 territory) on I/O failure or a
/// malformed allowlist.
pub fn run_check(root: &Path, allowlist_path: Option<&Path>) -> Result<Report, String> {
    let default_path = root.join("lint.toml");
    let entries = match allowlist_path {
        Some(p) => {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("reading allowlist {}: {e}", p.display()))?;
            allowlist::parse(&text)?
        }
        None if default_path.is_file() => {
            let text = std::fs::read_to_string(&default_path)
                .map_err(|e| format!("reading {}: {e}", default_path.display()))?;
            allowlist::parse(&text)?
        }
        None => Vec::new(),
    };

    let files = walk::collect_files(root)?;
    let mut violations = Vec::new();
    let mut allowed = Vec::new();
    let mut used = vec![false; entries.len()];
    for rel in &files {
        let source =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        for v in rules::check_source(rel, &source) {
            match entries.iter().position(|e| e.matches(&v)) {
                Some(i) => {
                    used[i] = true;
                    allowed.push((v, entries[i].reason.clone()));
                }
                None => violations.push(v),
            }
        }
    }
    let stale_allows = entries
        .into_iter()
        .zip(used)
        .filter_map(|(e, u)| (!u).then_some(e))
        .collect();
    Ok(Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        violations,
        allowed,
        stale_allows,
    })
}
