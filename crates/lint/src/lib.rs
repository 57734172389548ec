//! `lazydp-lint` — workspace static analysis for the parts of the
//! LazyDP determinism & privacy contract that types cannot see.
//!
//! The reproduction's value rests on two invariants that refactors can
//! silently break: **bitwise determinism** across threads/backends
//! (the LazyDP ≡ eager DP-SGD equivalence), and **DP hygiene** (model
//! state only ever leaves through the clip→noise release path). The
//! contract in `ARCHITECTURE.md` is machine-checked in two halves:
//!
//! - rules that ask which type or function code names (D1 `HashMap`/
//!   `HashSet`, D2 wall clock, D3 raw threads, O1 obs reads) are
//!   clippy's `disallowed-types`/`disallowed-methods`, configured in
//!   `crates/clippy.toml` and exempted by `#[expect]` at the site;
//! - the rest live here: a dependency-free, hand-rolled lexer (strings,
//!   char literals, nested comments, and attributes are understood; no
//!   `syn`, so the check builds offline) feeds four rules.
//!
//! # Rules
//!
//! See [`rules::RULES`] (or run `lazydp-lint rules`): D4 (no float
//! `.sum()`/`.fold(…)` outside `lazydp_tensor`), D5
//! (`#![forbid(unsafe_code)]` in every crate root), P1 (no
//! debug-printing gradient-bearing values), P2 (no `rand::` or
//! entropy-seeded sampling outside `lazydp_rng`). Test code is exempt.
//!
//! # Exemptions
//!
//! A whole-line comment on the line above the flagged code, with a
//! written reason of at least 10 characters:
//!
//! ```text
//! // lazydp-lint: allow(P1): <why this value carries no gradient>
//! ```
//!
//! A marker that suppresses nothing is itself a violation, as an
//! unfulfilled `#[expect]` is under clippy.
//!
//! # CLI
//!
//! ```text
//! cargo run -p lazydp-lint -- check [--root DIR]
//! cargo run -p lazydp-lint -- rules
//! ```
//!
//! Exit codes: `0` = clean, `1` = at least one violation, `2` = usage
//! or I/O error.
//!
//! # Example
//!
//! ```
//! use lazydp_lint::rules::check_source;
//!
//! let bad = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
//! let v = check_source("crates/model/src/x.rs", bad);
//! assert_eq!(v[0].rule, "D4");
//! assert_eq!((v[0].line, v[0].col), (1, 37));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod walk;

use rules::Violation;
use std::path::Path;

/// The result of one `check` run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every violation found. Non-empty ⇒ the check fails (exit code 1).
    pub violations: Vec<Violation>,
}

impl Report {
    /// Whether the check passed.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    {}\n",
                v.path, v.line, v.col, v.rule, v.message, v.snippet
            ));
        }
        s.push_str(&format!(
            "{} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        s.push_str(if self.clean() {
            "lazydp-lint: clean\n"
        } else {
            "lazydp-lint: FAILED — fix the violation or exempt it with a justified marker\n"
        });
        s
    }
}

/// Runs the full check: walk `root` and lint every file.
///
/// # Errors
///
/// Returns a message (exit code 2 territory) on I/O failure.
pub fn run_check(root: &Path) -> Result<Report, String> {
    let files = walk::collect_files(root)?;
    let mut violations = Vec::new();
    for rel in &files {
        let source =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        violations.extend(rules::check_source(rel, &source));
    }
    Ok(Report {
        files_scanned: files.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_report_has_file_line_and_rule() {
        let report = Report {
            files_scanned: 2,
            violations: vec![Violation {
                rule: "D4",
                path: "crates/x/src/a.rs".into(),
                line: 3,
                col: 7,
                snippet: "let s = xs.iter().sum::<f32>();".into(),
                message: "msg".into(),
            }],
        };
        let t = report.to_text();
        assert!(t.contains("crates/x/src/a.rs:3:7: [D4]"));
        assert!(t.contains("FAILED"));
    }
}
