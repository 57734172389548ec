//! Drives the real harness at smoke scale (tables ÷16, one round, at
//! most 8 steps) and checks the shape of everything it emits.

use lazydp_benchmark::json::Json;
use lazydp_benchmark::results::compare;
use lazydp_benchmark::spec::{benchmark_json, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_lazydp-benchmark");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the test scratch directory");
    dir.join(name)
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_benchmark_json_is_the_harness_vocabulary() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let committed = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        committed,
        benchmark_json(),
        "BENCHMARK.json drifted from benchmark/src/spec.rs; expected:\n{}",
        benchmark_json().to_pretty()
    );
    assert!(text.len() <= 64 * 1024);
    for w in &WORKLOADS {
        assert!(well_formed_name(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(well_formed_name(name), "{name}");
        assert!(well_formed_unit(unit), "{name}: unit {unit:?}");
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a metric name is used twice"
    );
    assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

/// The contract's last line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, with every metric of the run's kind and no other.
fn assert_contract_line(line: &str, expected: &[(&str, &str)]) {
    let v = Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"));
    let keys: Vec<&str> = v.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{line}"
    );
    assert!(v
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n >= 1));
    assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = v.get("metrics").expect("metrics");
    let got: Vec<&str> = metrics.fields().iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(got, want);
    for (name, unit) in expected {
        let m = metrics.get(name).expect("metric present");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn contract_invocation_prints_one_result_line_per_kind() {
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
        let out = Command::new(BIN)
            .args([
                "--workload",
                "table_stored",
                "--seed",
                "3",
                "--seconds",
                "0.5",
                "--trace",
                trace,
                "--smoke",
            ])
            .output()
            .expect("run the harness");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_contract_line(stdout.lines().last().expect("some output"), expected);
        if trace == "0" {
            let rate = |name: &str| stdout.lines().any(|l| l.starts_with(name));
            assert!(
                END_TO_END.iter().all(|m| rate(m.name)),
                "every metric is printed by name"
            );
        }
    }
}

#[test]
fn a_lazydp_variable_or_a_bad_flag_is_refused_without_a_result() {
    let refused = Command::new(BIN)
        .args([
            "--workload",
            "table_sgd",
            "--seed",
            "1",
            "--seconds",
            "0.5",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("LAZYDP_THREADS", "4")
        .output()
        .expect("run the harness");
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("LAZYDP_THREADS"));
    assert!(refused.stdout.is_empty(), "a refused run prints no result");
    for bad in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--workload", "table_sgd"],
        vec!["--workload", "table_sgd", "--seed", "1", "--trace", "2"],
        vec!["--workload", "table_sgd", "--seed", "1", "--seconds", "0"],
        vec!["frobnicate"],
    ] {
        let out = Command::new(BIN)
            .args(&bad)
            .output()
            .expect("run the harness");
        assert!(!out.status.success() && out.stdout.is_empty(), "{bad:?}");
    }
}

#[test]
fn smoke_run_reports_every_workload_and_metric_and_compares_clean_against_itself() {
    let out_file = scratch("smoke.json");
    let run = Command::new(BIN)
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&out_file)
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(&out_file).expect("result file written");
    let file = Json::parse(&text).expect("result file parses");
    assert_eq!(
        Json::parse(&file.to_pretty()).expect("re-parse"),
        file,
        "result file round-trips"
    );
    assert_eq!(
        file.to_pretty(),
        text,
        "writer is a fixed point of its own reader"
    );
    assert_eq!(file.get("schema_version").and_then(Json::as_u64), Some(1));
    assert_eq!(file.get("pass").and_then(Json::as_bool), Some(true));
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "rustflags_env",
        "target_features",
        "git_commit",
        "git_dirty",
        "seed",
        "spill_fs",
        "executor_width",
    ] {
        assert!(
            file.get("env").and_then(|e| e.get(key)).is_some(),
            "env.{key}"
        );
    }

    let workloads = file.get("workloads").expect("workloads").items();
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        for m in &END_TO_END {
            let v = w
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .unwrap_or_else(|| panic!("{name}.{}", m.name));
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(
                v.get("median")
                    .and_then(Json::as_f64)
                    .is_some_and(|x| x > 0.0),
                "{name}.{} is never 0",
                m.name
            );
            assert_eq!(
                v.get("values").map(|x| x.items().len()),
                Some(2),
                "two smoke repeats"
            );
        }
        for m in &PER_LAYER {
            let v = w
                .get("per_layer")
                .and_then(|e| e.get(m.name))
                .unwrap_or_else(|| panic!("{name}.{}", m.name));
            assert!(
                v.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}.{}",
                m.name
            );
            assert!(stdout.contains(m.name), "{} is printed by name", m.name);
        }
        assert_eq!(w.get("ops_failed_share").and_then(Json::as_f64), Some(0.0));
    }

    // Checks (1)-(4) ran: digest repeat, LazyDP = eager = stored, epsilon, exact counts.
    let checks: Vec<&str> = file
        .get("checks")
        .expect("checks")
        .items()
        .iter()
        .filter_map(|c| c.get("name")?.as_str())
        .collect();
    for needle in [
        "release_digest_repeats",
        "verify_digest_repeats_across_all_runs",
        "lazydp_equals_eager",
        "lazydp_memory_equals_stored",
        "T8 verify: lazydp_equals_eager",
        "epsilon_matches_own_accountant",
        "exact_counts_repeat_across_repeats",
    ] {
        assert!(
            checks.iter().any(|c| c.contains(needle)),
            "check {needle} did not run: {checks:?}"
        );
    }
    for d in ["lazydp_vs_eager_x", "lazydp_vs_sgd_x", "stored_vs_memory_x"] {
        assert!(
            file.get("derived").and_then(|x| x.get(d)).is_some(),
            "derived.{d}"
        );
    }

    // A file compared with itself: every row within, exit 0.
    let (table, pass) = compare(&file, &file).expect("compare");
    assert!(pass, "{table}");
    assert!(!table.contains("worse"), "{table}");
    let cli = Command::new(BIN)
        .arg("compare")
        .arg(&out_file)
        .arg(&out_file)
        .output()
        .expect("compare");
    assert!(cli.status.success());
    let _ = std::fs::remove_dir_all(out_file.parent().expect("scratch dir"));
}
