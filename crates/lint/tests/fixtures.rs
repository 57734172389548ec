//! Fixture-based self-tests: one positive (flagged) and one negative
//! (clean) snippet per rule, an allowlist round-trip, and the gate that
//! matters most — the linter must run clean on this very workspace.

use lazydp_lint::allowlist;
use lazydp_lint::rules::{check_source, Violation};
use std::path::Path;

/// Violations of `rule` in `source` when placed at `path`.
fn flags(path: &str, source: &str, rule: &str) -> Vec<Violation> {
    check_source(path, source)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

// ---------------------------------------------------------------- D1 --

#[test]
fn d1_flags_hashmap_in_library_code() {
    let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() }\n";
    let v = flags("crates/model/src/x.rs", src, "D1");
    assert_eq!(v.len(), 3, "{v:?}");
    assert_eq!((v[0].line, v[0].col), (1, 23));
}

#[test]
fn d1_ignores_btreemap_and_test_code() {
    let clean =
        "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
    assert!(flags("crates/model/src/x.rs", clean, "D1").is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
    assert!(flags("crates/model/src/x.rs", test_only, "D1").is_empty());
}

// ---------------------------------------------------------------- D2 --

#[test]
fn d2_flags_wall_clock_outside_obs() {
    let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
    let v = flags("crates/core/src/x.rs", src, "D2");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 1);
}

#[test]
fn d2_permits_wall_clock_in_obs_crate_only() {
    let src = "fn f() { let t = std::time::Instant::now(); let _ = t.elapsed(); }\n";
    assert!(flags("crates/obs/src/clock.rs", src, "D2").is_empty());
    // `crates/bench` prices and counts; `benchmark/` is where time is measured.
    assert_eq!(flags("crates/bench/src/timing.rs", src, "D2").len(), 1);
    assert_eq!(flags("crates/store/src/cache.rs", src, "D2").len(), 1);
}

// ---------------------------------------------------------------- D3 --

#[test]
fn d3_flags_raw_threads_outside_exec() {
    let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(flags("crates/model/src/x.rs", spawn, "D3").len(), 1);
    let builder = "fn f() { std::thread::Builder::new(); }\n";
    assert_eq!(flags("crates/model/src/x.rs", builder, "D3").len(), 1);
}

#[test]
fn d3_permits_threads_in_exec_crate() {
    let src = "fn f() { std::thread::scope(|_| {}); }\n";
    assert!(flags("crates/exec/src/lib.rs", src, "D3").is_empty());
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

// ---------------------------------------------------------------- O1 --

#[test]
fn o1_flags_obs_reads_in_hot_paths() {
    let snap = "fn f() -> u64 { lazydp_obs::snapshot::capture_metrics().counter(\"x\") }\n";
    let v = flags("crates/core/src/x.rs", snap, "O1");
    assert_eq!(v.len(), 1, "{v:?}");
    let trace = "fn f() { let _ = lazydp_obs::trace::take_trace_events(); }\n";
    assert_eq!(flags("crates/store/src/x.rs", trace, "O1").len(), 1);
    let view = "fn f(c: &CacheCounters) { let _ = c.obs_read(); }\n";
    assert_eq!(flags("crates/store/src/x.rs", view, "O1").len(), 1);
}

#[test]
fn o1_permits_reads_in_bench_obs_and_tests() {
    let snap = "fn f() -> u64 { lazydp_obs::snapshot::capture_metrics().counter(\"x\") }\n";
    assert!(flags("crates/bench/src/faults.rs", snap, "O1").is_empty());
    assert!(flags("crates/obs/src/export.rs", snap, "O1").is_empty());
    let test_only = "#[cfg(test)]\nmod tests {\n    fn f() { let _ = \
                     lazydp_obs::snapshot::capture_metrics(); }\n}\n";
    assert!(flags("crates/core/src/x.rs", test_only, "O1").is_empty());
    // Writing is always fine: the exporter entry points are not reads.
    let write = "fn f() { lazydp_obs::metrics().store.hits.incr(); }\n";
    assert!(flags("crates/core/src/x.rs", write, "O1").is_empty());
}

// --------------------------------------------------- allowlist loop --

#[test]
fn allowlist_round_trip_suppresses_exactly_the_matching_violation() {
    let src = "use std::collections::HashMap;\n";
    let v = &flags("crates/model/src/x.rs", src, "D1")[0];
    let toml = "\
[[allow]]
rule = \"D1\"
path = \"crates/model/src/x.rs\"
line = 1
reason = \"fixture: provably lookup-only map in a fixture\"
";
    let entries = allowlist::parse(toml).expect("valid allowlist");
    assert_eq!(entries.len(), 1);
    assert!(entries[0].matches(v));
    // Same rule, different file: no match.
    let other = &flags("crates/model/src/y.rs", src, "D1")[0];
    assert!(!entries[0].matches(other));
}

// ----------------------------------------------- the workspace gate --

#[test]
fn linter_runs_clean_on_this_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = lazydp_lint::run_check(&root, None).expect("lint run");
    assert!(report.files_scanned > 50, "walked {}", report.files_scanned);
    assert!(
        report.clean(),
        "workspace must lint clean:\n{}",
        report.to_text()
    );
    assert!(
        report.stale_allows.is_empty(),
        "stale allowlist entries: {:?}",
        report.stale_allows
    );
}
