//! Fixture-based self-tests: one positive (flagged) and one negative
//! (clean) snippet per rule, the exemption marker, and the gate that
//! matters most — the linter must run clean on this very workspace.
//! The clippy-enforced rules (D1–D3, O1) check themselves in
//! `clippy_contract.rs`.

use lazydp_lint::rules::{check_source, Violation};
use std::path::Path;

/// Violations of `rule` in `source` when placed at `path`.
fn flags(path: &str, source: &str, rule: &str) -> Vec<Violation> {
    check_source(path, source)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

// ---------------------------------------------------------------- D4 --

#[test]
fn d4_flags_float_reduction_outside_tensor() {
    let src = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
    let v = flags("crates/model/src/x.rs", src, "D4");
    assert_eq!(v.len(), 1, "{v:?}");
    let fold = "fn f(xs: &[f32]) -> f32 { xs.iter().copied().fold(0.0f32, f32::max) }\n";
    assert_eq!(flags("crates/model/src/x.rs", fold, "D4").len(), 1);
}

#[test]
fn d4_permits_integer_reductions_and_tensor_internals() {
    let ints = "fn f(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }\n";
    assert!(flags("crates/model/src/x.rs", ints, "D4").is_empty());
    let float = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n";
    assert!(flags("crates/tensor/src/vecops.rs", float, "D4").is_empty());
}

// ---------------------------------------------------------------- D5 --

#[test]
fn d5_flags_crate_root_without_forbid_unsafe() {
    let src = "//! A crate.\npub fn f() {}\n";
    let v = flags("crates/model/src/lib.rs", src, "D5");
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn d5_satisfied_by_forbid_attr_and_skips_non_roots() {
    let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(flags("crates/model/src/lib.rs", good, "D5").is_empty());
    // Non-root modules carry no obligation.
    let module = "pub fn f() {}\n";
    assert!(flags("crates/model/src/x.rs", module, "D5").is_empty());
}

// ---------------------------------------------------------------- P1 --

#[test]
fn p1_flags_debug_printing_of_gradients() {
    let src = "fn f(grad: &SparseGrad) { println!(\"{:?}\", grad); }\n";
    let v = flags("crates/model/src/x.rs", src, "P1");
    assert_eq!(v.len(), 1, "{v:?}");
    let dbg = "fn f(per_example_norms: &[f32]) { dbg!(per_example_norms); }\n";
    assert_eq!(flags("crates/model/src/x.rs", dbg, "P1").len(), 1);
}

#[test]
fn p1_permits_benign_prints_and_test_prints() {
    let benign = "fn f(loss: f64) { println!(\"loss {loss}\"); }\n";
    assert!(flags("crates/model/src/x.rs", benign, "P1").is_empty());
    let test_only =
        "#[cfg(test)]\nmod tests {\n    fn f(grad: u32) { println!(\"{:?}\", grad); }\n}\n";
    assert!(flags("crates/model/src/x.rs", test_only, "P1").is_empty());
}

#[test]
fn p1_flags_gradient_derived_fault_ordinals() {
    // A fault-injection ordinal computed from a gradient-bearing value
    // makes the failure schedule data-dependent — flagged like a
    // gradient-printing format macro.
    let src = "fn f(grad_count: u64) { \
               lazydp_fault::point(lazydp_fault::Site::MidStep, grad_count); }\n";
    let v = flags("crates/core/src/x.rs", src, "P1");
    assert_eq!(v.len(), 1, "{v:?}");
    let decide = "fn f(norm_bucket: u64) -> bool { \
                  lazydp_fault::decide(lazydp_fault::Site::PageRead, norm_bucket).is_some() }\n";
    assert_eq!(flags("crates/store/src/x.rs", decide, "P1").len(), 1);
    // A call on an owner's handle under `use lazydp_fault::Site` names
    // no `lazydp_fault` in the statement; the `Site::` path anchors it.
    let handle = "use lazydp_fault::Site;\n\
                  fn f(&self, grad_count: u64) { \
                  self.faults.point(Site::MidStep, grad_count); }\n";
    assert_eq!(flags("crates/core/src/x.rs", handle, "P1").len(), 1);
}

#[test]
fn p1_permits_counter_keyed_fault_sites_and_tests() {
    // Operation-count ordinals are the sanctioned shape.
    let benign = "fn f(iter: u64) { \
                  lazydp_fault::point(lazydp_fault::Site::MidStep, iter); }\n";
    assert!(flags("crates/core/src/x.rs", benign, "P1").is_empty());
    // `point(…)` not anchored by lazydp_fault (another crate's method)
    // is not this rule's business.
    let foreign = "fn f(grad: u64) { geometry.point(grad); }\n";
    assert!(flags("crates/model/src/x.rs", foreign, "P1").is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n    fn f(grad_ord: u64) { \
                     lazydp_fault::point(lazydp_fault::Site::MidFlush, grad_ord); }\n}\n";
    assert!(flags("crates/core/src/x.rs", test_only, "P1").is_empty());
}

// ---------------------------------------------------------------- P2 --

#[test]
fn p2_flags_foreign_rng_outside_rng_crate() {
    let src = "fn f() { let x = rand::random::<u64>(); let _ = x; }\n";
    assert_eq!(flags("crates/model/src/x.rs", src, "P2").len(), 1);
    let entropy = "fn f() { let r = StdRng::from_entropy(); let _ = r; }\n";
    assert!(!flags("crates/model/src/x.rs", entropy, "P2").is_empty());
}

#[test]
fn p2_permits_rng_crate_internals() {
    let src = "fn f() { let x = rand::random::<u64>(); let _ = x; }\n";
    assert!(flags("crates/rng/src/compat.rs", src, "P2").is_empty());
}

// ---------------------------------------------------------- P1 (obs) --

#[test]
fn p1_flags_gradient_values_at_metric_call_sites() {
    let src = "fn f(grad_rows: u64) { lazydp_obs::metrics().trainer.steps.add(grad_rows); }\n";
    let v = flags("crates/core/src/x.rs", src, "P1");
    assert_eq!(v.len(), 1, "{v:?}");
    let hist =
        "fn f(norms: &[u64]) { lazydp_obs::metrics().trainer.pending_depth.record(norms[0]); }\n";
    assert_eq!(flags("crates/core/src/x.rs", hist, "P1").len(), 1);
}

#[test]
fn p1_permits_benign_metric_call_sites() {
    let benign = "fn f(rows: u64) { lazydp_obs::metrics().trainer.noise_plan_rows.add(rows); }\n";
    assert!(flags("crates/core/src/x.rs", benign, "P1").is_empty());
    // `.add`/`.set` with no lazydp_obs anchor in the statement is not a
    // metric site (e.g. a wrapping-add or a setter) and must not flag.
    let unrelated = "fn f(grad: u64) -> u64 { acc.add(grad) }\n";
    assert!(flags("crates/core/src/x.rs", unrelated, "P1").is_empty());
}

#[test]
fn p1_flags_gradient_bearing_span_names() {
    let src = "fn f() { lazydp_obs::span!(\"step.grad_dump\"); }\n";
    assert_eq!(flags("crates/core/src/x.rs", src, "P1").len(), 1);
    let benign = "fn f() { lazydp_obs::span!(\"step.forward\"); }\n";
    assert!(flags("crates/core/src/x.rs", benign, "P1").is_empty());
}

// ------------------------------------------------------------ markers --

const PRINTS_GRAD: &str = "fn f(grad: u32) {\n    println!(\"{:?}\", grad);\n}\n";

/// `PRINTS_GRAD` with `marker` on the line above its `println!`.
fn with_marker(marker: &str) -> String {
    PRINTS_GRAD.replacen("    println!", &format!("    {marker}\n    println!"), 1)
}

#[test]
fn marker_suppresses_its_rule_on_the_next_line() {
    assert_eq!(flags("crates/model/src/x.rs", PRINTS_GRAD, "P1").len(), 1);
    let src = with_marker("// lazydp-lint: allow(P1): a timing, not a gradient value");
    assert!(check_source("crates/model/src/x.rs", &src).is_empty());
    // Another rule's marker leaves the P1 violation standing, and is
    // itself reported for suppressing nothing.
    let src = with_marker("// lazydp-lint: allow(P2): a timing, not a gradient value");
    let v = check_source("crates/model/src/x.rs", &src);
    let rules: Vec<_> = v.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(rules, [("marker", 2), ("P1", 3)], "{v:?}");
}

#[test]
fn marker_that_suppresses_nothing_fails() {
    let src =
        "fn f(loss: f64) {\n    // lazydp-lint: allow(P1): a timing, not a gradient value\n    \
               println!(\"{:?}\", loss);\n}\n";
    let v = flags("crates/model/src/x.rs", src, "marker");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!((v[0].line, v[0].col), (2, 5));
    assert!(
        v[0].message.contains("suppresses nothing"),
        "{}",
        v[0].message
    );
}

#[test]
fn marker_needs_a_reason_of_ten_characters() {
    let src = with_marker("// lazydp-lint: allow(P1): too short");
    let v = check_source("crates/model/src/x.rs", &src);
    let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
    assert_eq!(rules, ["marker", "P1"], "{v:?}");
    assert!(v[0].message.contains("10 characters"), "{}", v[0].message);
    // Malformed markers and clippy-enforced rule IDs are rejected too.
    for bad in [
        "// lazydp-lint: alow(P1): a timing, not a gradient value",
        "// lazydp-lint: allow(D1): a timing, not a gradient value",
    ] {
        let v = flags("crates/model/src/x.rs", &with_marker(bad), "marker");
        assert_eq!(v.len(), 1, "{bad}: {v:?}");
    }
}

// ----------------------------------------------- the workspace gate --

#[test]
fn linter_runs_clean_on_this_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = lazydp_lint::run_check(&root).expect("lint run");
    assert!(report.files_scanned > 50, "walked {}", report.files_scanned);
    assert!(
        report.clean(),
        "workspace must lint clean:\n{}",
        report.to_text()
    );
}
