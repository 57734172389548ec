//! CLI for `lazydp-lint`. See the library docs for the rules, the
//! exemption marker and the exit codes.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
lazydp-lint — machine-checks the determinism & privacy contract

USAGE:
    lazydp-lint check [--root DIR]
    lazydp-lint rules

`check` walks src/, examples/, and crates/*/{src,examples} under the
workspace root (default: the nearest ancestor of the current directory
containing crates/clippy.toml), reports violations as file:line:col
spans with rule IDs, and applies the justified exemption markers
(`// lazydp-lint: allow(<rule>): <reason>` on the line above).

EXIT CODES (stable): 0 clean, 1 violations, 2 usage/IO error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for r in lazydp_lint::rules::RULES {
                println!("{}  {}\n    invariant: {}", r.id, r.summary, r.invariant);
            }
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_err("--root needs a value"),
            },
            other => return usage_err(&format!("unknown argument `{other}`")),
        }
    }
    let root = match root.map_or_else(discover_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lazydp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match lazydp_lint::run_check(&root) {
        Ok(report) => {
            print!("{}", report.to_text());
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("lazydp-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("lazydp-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Finds the workspace root: the nearest ancestor of the current
/// directory containing `crates/clippy.toml`, the contract's other half.
fn discover_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("getting cwd: {e}"))?;
    let mut dir = cwd.as_path();
    loop {
        if dir.join("crates/clippy.toml").is_file() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(p) => dir = p,
            None => {
                return Err(format!(
                    "no crates/clippy.toml found in {} or any ancestor; pass --root",
                    cwd.display()
                ))
            }
        }
    }
}
