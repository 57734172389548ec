//! `run`: the whole benchmark in one command. Every workload runs
//! untraced (several repeats) and then traced, each time in a fresh
//! child process of this binary, so peak RSS is per workload and no
//! process-global state (executor width, GEMM/SIMD mode, the obs
//! registry) leaks from one workload into the next.

use crate::env::{fingerprint, out_dir, refuse_unless_comparable};
use crate::json::Json;
use crate::outcome::{Check, SCHEMA_VERSION};
use crate::results::summarise;
use crate::spec::{END_TO_END, PER_LAYER, T8_ROWS, WORKLOADS};
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Parameters of `run`.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The benchmark seed.
    pub seed: u64,
    /// Measuring time of each child run.
    pub seconds: f64,
    /// Untraced repeats per workload (the A/A spread in the file).
    pub repeats: usize,
    /// Smoke scale.
    pub smoke: bool,
    /// Where the result file goes.
    pub out: PathBuf,
}

/// Runs this binary with `args`, waits for it, and parses the detail
/// file it was told to write.
fn child(args: &[String], detail: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let status = Command::new(exe)
        .args(args)
        .arg("--detail")
        .arg(detail)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !status.success() {
        return Err(format!("child `{}` exited with {status}", args.join(" ")));
    }
    let text =
        std::fs::read_to_string(detail).map_err(|e| format!("read {}: {e}", detail.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", detail.display()))
}

fn checks_of(detail: &Json, origin: &str) -> Vec<Check> {
    detail
        .get("checks")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|c| {
            Check::new(
                &format!(
                    "{origin}: {}",
                    c.get("name").and_then(Json::as_str).unwrap_or("?")
                ),
                c.get("pass").and_then(Json::as_bool).unwrap_or(false),
                c.get("detail").and_then(Json::as_str).unwrap_or(""),
            )
        })
        .collect()
}

fn metric_value(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Per span name: count, total and median duration, from the raw spans
/// of a traced child (which stay in the child's detail file).
fn span_summary(traced: &Json) -> Json {
    let extra = traced.get("extra");
    let names = extra
        .and_then(|e| e.get("span_names"))
        .map(Json::items)
        .unwrap_or_default();
    let spans = extra
        .and_then(|e| e.get("spans"))
        .map(Json::items)
        .unwrap_or_default();
    let mut out = Json::obj();
    for (i, name) in names.iter().enumerate() {
        let us: Vec<f64> = spans
            .iter()
            .filter(|s| s.items().first().and_then(Json::as_u64) == Some(i as u64))
            .filter_map(|s| {
                Some((s.items().get(3)?.as_u64()? - s.items().get(2)?.as_u64()?) as f64 / 1e3)
            })
            .collect();
        out.set(
            name.as_str().unwrap_or("?"),
            Json::obj()
                .with("count", Json::UInt(us.len() as u64))
                .with("total_ms", Json::Num(us.iter().sum::<f64>() / 1e3))
                .with("p50_us", Json::Num(median(&us))),
        );
    }
    out
}

fn ratio(name: &str, num: (&str, f64), base: (&str, f64)) -> (String, Json) {
    (
        name.to_string(),
        Json::obj()
            .with("value", Json::Num(num.1 / base.1))
            .with(
                "of",
                Json::str(format!("{}.step_ms_p50 = {:.4} ms", num.0, num.1)),
            )
            .with(
                "base",
                Json::str(format!("{}.step_ms_p50 = {:.4} ms", base.0, base.1)),
            ),
    )
}

/// Runs every workload and writes the result file. Returns whether
/// every check passed.
///
/// # Errors
///
/// Reports a refused environment, a child that crashed, or an
/// unwritable output path.
pub fn run_all(cfg: &RunConfig) -> Result<bool, String> {
    refuse_unless_comparable()?;
    let work = out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let base_args = |workload: &str, trace: bool| {
        let mut a = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            cfg.seed.to_string(),
            "--seconds".to_string(),
            cfg.seconds.to_string(),
            "--trace".to_string(),
            u8::from(trace).to_string(),
        ];
        if cfg.smoke {
            a.push("--smoke".to_string());
        }
        a
    };

    let mut workloads = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut p50: Vec<(&str, f64)> = Vec::new();
    let mut verify_digests: Vec<String> = Vec::new();
    for w in &WORKLOADS {
        let mut repeats = Vec::new();
        for r in 0..cfg.repeats {
            eprintln!("[run] {} untraced {}/{}", w.name, r + 1, cfg.repeats);
            let detail = child(
                &base_args(w.name, false),
                &work.join(format!("{}-{r}.json", w.name)),
            )?;
            checks.extend(checks_of(&detail, &format!("{} #{r}", w.name)));
            repeats.push(detail);
        }
        eprintln!("[run] {} traced", w.name);
        let traced = child(
            &base_args(w.name, true),
            &work.join(format!("{}-traced.json", w.name)),
        )?;
        checks.extend(checks_of(&traced, &format!("{} traced", w.name)));

        let mut end_to_end = Json::obj();
        for m in &END_TO_END {
            let values: Vec<f64> = repeats
                .iter()
                .filter_map(|d| metric_value(d, m.name))
                .collect();
            if m.name == "step_ms_p50" {
                p50.push((w.name, median(&values)));
            }
            end_to_end.set(m.name, summarise(&values, m.unit));
        }
        let mut per_layer = Json::obj();
        for m in &PER_LAYER {
            per_layer.set(
                m.name,
                Json::obj()
                    .with(
                        "value",
                        Json::Num(metric_value(&traced, m.name).unwrap_or(f64::NAN)),
                    )
                    .with("unit", Json::str(m.unit)),
            );
        }
        let sum = |key: &str| -> u64 { repeats.iter().filter_map(|d| d.get(key)?.as_u64()).sum() };
        let (attempted, failed) = (sum("attempted"), sum("failed"));
        let extra_of = |d: &Json, key: &str| d.get("extra").and_then(|e| e.get(key)).cloned();

        // Checks 1 and 4 across repeats: the fixed-step verify digest
        // and the fixed warm-up window's exact counts.
        let windows: Vec<Json> = repeats
            .iter()
            .filter_map(|d| extra_of(d, "warmup_window"))
            .collect();
        checks.push(Check::new(
            &format!("{}: exact_counts_repeat_across_repeats", w.name),
            windows.len() == repeats.len() && windows.iter().all(|x| *x == windows[0]),
            format!("{} repeats", repeats.len()),
        ));
        verify_digests.extend(
            repeats
                .iter()
                .filter_map(|d| extra_of(d, "verify_digest")?.as_str().map(str::to_string)),
        );

        workloads.push(
            Json::obj()
                .with("name", Json::str(w.name))
                .with("why", Json::str(w.why))
                .with("repeats", Json::UInt(repeats.len() as u64))
                .with(
                    "timed_steps",
                    Json::Arr(
                        repeats
                            .iter()
                            .filter_map(|d| extra_of(d, "timed_steps"))
                            .collect(),
                    ),
                )
                .with("attempted", Json::UInt(attempted))
                .with("failed", Json::UInt(failed))
                .with(
                    "ops_failed_share",
                    Json::Num(failed as f64 / attempted.max(1) as f64),
                )
                .with("end_to_end", end_to_end)
                .with("per_layer", per_layer)
                .with("spans", span_summary(&traced))
                .with(
                    "release_digests",
                    Json::Arr(
                        repeats
                            .iter()
                            .filter_map(|d| extra_of(d, "release_digest"))
                            .collect(),
                    ),
                ),
        );
    }
    checks.push(Check::new(
        "verify_digest_repeats_across_all_runs",
        !verify_digests.is_empty() && verify_digests.iter().all(|d| *d == verify_digests[0]),
        format!(
            "{} runs, digest {}",
            verify_digests.len(),
            verify_digests.first().map_or("-", |s| s)
        ),
    ));

    // Check 2 at full T8, once (the per-run verify pass is ÷16).
    eprintln!("[run] verify pass at T8");
    let rows = T8_ROWS / if cfg.smoke { 16 } else { 1 };
    let verify = child(
        &[
            "verify".to_string(),
            "--seed".to_string(),
            cfg.seed.to_string(),
            "--rows".to_string(),
            rows.to_string(),
        ],
        &work.join("verify.json"),
    )?;
    checks.extend(checks_of(&verify, "T8 verify"));

    let of = |name: &'static str| {
        let ms = p50
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, ms)| *ms);
        (name, ms)
    };
    let derived = Json::Obj(vec![
        ratio("lazydp_vs_eager_x", of("table_eager"), of("table_lazydp")),
        ratio("lazydp_vs_sgd_x", of("table_lazydp"), of("table_sgd")),
        ratio("stored_vs_memory_x", of("table_stored"), of("table_lazydp")),
    ]);

    let pass = checks.iter().all(|c| c.pass);
    let file = Json::obj()
        .with("schema_version", Json::UInt(SCHEMA_VERSION))
        .with("seed", Json::UInt(cfg.seed))
        .with("seconds", Json::Num(cfg.seconds))
        .with("smoke", Json::Bool(cfg.smoke))
        .with("pass", Json::Bool(pass))
        .with("env", fingerprint(cfg.seed))
        .with("workloads", Json::Arr(workloads))
        .with("derived", derived)
        .with(
            "checks",
            Json::Arr(checks.iter().map(Check::to_json).collect()),
        );
    if let Some(dir) = cfg.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&cfg.out, file.to_pretty())
        .map_err(|e| format!("write {}: {e}", cfg.out.display()))?;
    print_result(&file);
    let _ = std::fs::remove_dir_all(&work);
    Ok(pass)
}

/// Prints every metric of a result file by name, with its unit.
pub fn print_result(file: &Json) {
    for w in file.get("workloads").map(Json::items).unwrap_or_default() {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        println!("\n== {name}");
        for (metric, v) in w.get("end_to_end").map(Json::fields).unwrap_or_default() {
            println!(
                "{:<36} {:>16.6} {:<10} spread {:>5.2}%  n={}",
                metric,
                v.get("median").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
                v.get("spread").and_then(Json::as_f64).unwrap_or(f64::NAN) * 100.0,
                v.get("values").map_or(0, |x| x.items().len()),
            );
        }
        println!(
            "{:<36} {:>16.6} {:<10} timed steps per repeat {}",
            "ops_failed_share",
            w.get("ops_failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            "ratio",
            w.get("timed_steps")
                .map_or_else(String::new, Json::to_compact),
        );
        for (metric, v) in w.get("per_layer").map(Json::fields).unwrap_or_default() {
            println!(
                "{:<36} {:>16.6} {}",
                metric,
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                v.get("unit").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
    println!("\n== derived (not gated)");
    for (name, v) in file.get("derived").map(Json::fields).unwrap_or_default() {
        println!(
            "derived.{:<28} {:>16.4} x   ({} over {})",
            name,
            v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            v.get("of").and_then(Json::as_str).unwrap_or(""),
            v.get("base").and_then(Json::as_str).unwrap_or(""),
        );
    }
    println!("\n== checks");
    let checks = file.get("checks").map(Json::items).unwrap_or_default();
    for c in checks
        .iter()
        .filter(|c| c.get("pass").and_then(Json::as_bool) != Some(true))
    {
        println!(
            "FAILED {}  {}",
            c.get("name").and_then(Json::as_str).unwrap_or("?"),
            c.get("detail").and_then(Json::as_str).unwrap_or("")
        );
    }
    let passed = checks
        .iter()
        .filter(|c| c.get("pass").and_then(Json::as_bool) == Some(true))
        .count();
    println!("{passed} of {} checks passed", checks.len());
}
