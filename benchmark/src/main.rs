//! Command line of the benchmark harness.
//!
//! ```text
//! lazydp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--detail <file>]
//! lazydp-benchmark run --seed <n> --out <file> [--seconds <s>] [--repeats <n>] [--smoke]
//! lazydp-benchmark compare <base.json> <new.json>
//! lazydp-benchmark verify --seed <n> --rows <rows> [--detail <file>]
//! lazydp-benchmark spec        # prints BENCHMARK.json as src/spec.rs defines it
//! ```
//!
//! The first form is the contract's: one workload, one run, one JSON
//! object on the last line of stdout.

use lazydp_benchmark::env::{refuse_unless_comparable, SpillDir};
use lazydp_benchmark::json::Json;
use lazydp_benchmark::outcome::{Check, RunArgs};
use lazydp_benchmark::results::compare;
use lazydp_benchmark::runner::{run_all, RunConfig};
use lazydp_benchmark::spec::{benchmark_json, workload, EXEC_WIDTH, WORKLOADS};
use lazydp_benchmark::traced::run_traced;
use lazydp_benchmark::untraced::run_untraced;
use lazydp_benchmark::verify::verify_pass;
use std::path::PathBuf;
use std::process::ExitCode;

/// `--flag value` pairs and bare words of a command line.
struct Flags {
    pairs: Vec<(String, String)>,
    words: Vec<String>,
}

impl Flags {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 1] = ["--smoke"];

    fn parse(args: &[String]) -> Result<Self, String> {
        let (mut pairs, mut words) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if Self::SWITCHES.contains(&a.as_str()) {
                pairs.push((a.clone(), String::new()));
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                pairs.push((a.clone(), v.clone()));
            } else {
                words.push(a.clone());
            }
        }
        Ok(Self { pairs, words })
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let v = self.get(flag).ok_or_else(|| format!("missing {flag}"))?;
        v.parse().map_err(|_| format!("bad value '{v}' for {flag}"))
    }

    fn or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        if self.has(flag) {
            self.required(flag)
        } else {
            Ok(default)
        }
    }
}

/// The measuring time the contract allows: `run_seconds` is 1 to 60.
fn seconds(flags: &Flags, default: f64) -> Result<f64, String> {
    let s: f64 = flags.or("--seconds", default)?;
    if s.is_finite() && (0.05..=600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("--seconds {s} is outside 0.05..=600"))
    }
}

fn write_detail(flags: &Flags, detail: &Json) -> Result<(), String> {
    match flags.get("--detail") {
        Some(path) => {
            std::fs::write(path, detail.to_pretty()).map_err(|e| format!("write {path}: {e}"))
        }
        None => Ok(()),
    }
}

fn one_workload(flags: &Flags) -> Result<bool, String> {
    let name: String = flags.required("--workload")?;
    let workload = workload(&name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; one of {}", names.join(", "))
    })?;
    let trace = match flags.or("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let args = RunArgs {
        workload,
        seed: flags.required("--seed")?,
        seconds: seconds(flags, 10.0)?,
        trace,
        smoke: flags.has("--smoke"),
    };
    refuse_unless_comparable()?;
    // The GEMMs under forward/backward follow the process-global width;
    // the noise kernels get theirs through `DpConfig::with_threads`.
    lazydp::exec::set_global_threads(EXEC_WIDTH);
    let outcome = if trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    outcome.print_human();
    write_detail(flags, &outcome.to_json())?;
    println!("{}", outcome.last_line());
    Ok(true)
}

fn verify(flags: &Flags) -> Result<bool, String> {
    refuse_unless_comparable()?;
    lazydp::exec::set_global_threads(EXEC_WIDTH);
    let spill = SpillDir::create().map_err(|e| format!("create the spill directory: {e}"))?;
    let (checks, digest) = verify_pass(
        flags.required("--rows")?,
        flags.required("--seed")?,
        spill.path(),
    );
    for c in &checks {
        println!(
            "check {:<32} {}  {}",
            c.name,
            if c.pass { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let detail = Json::obj()
        .with(
            "checks",
            Json::Arr(checks.iter().map(Check::to_json).collect()),
        )
        .with("verify_digest", Json::str(digest));
    write_detail(flags, &detail)?;
    Ok(checks.iter().all(|c| c.pass))
}

fn run(flags: &Flags) -> Result<bool, String> {
    let smoke = flags.has("--smoke");
    run_all(&RunConfig {
        seed: flags.required("--seed")?,
        seconds: seconds(flags, if smoke { 0.5 } else { 10.0 })?,
        repeats: flags.or("--repeats", if smoke { 2 } else { 3 })?.max(1),
        smoke,
        out: PathBuf::from(flags.required::<String>("--out")?),
    })
}

fn compare_files(flags: &Flags) -> Result<bool, String> {
    let [_, base, new] = flags.words.as_slice() else {
        return Err("usage: compare <base.json> <new.json>".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (table, pass) = compare(&load(base)?, &load(new)?)?;
    print!("{table}");
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result =
        Flags::parse(&args).and_then(|flags| match flags.words.first().map(String::as_str) {
            None => one_workload(&flags),
            Some("run") => run(&flags),
            Some("compare") => compare_files(&flags),
            Some("verify") => verify(&flags),
            Some("spec") => {
                print!("{}", benchmark_json().to_pretty());
                Ok(true)
            }
            Some(other) => Err(format!(
                "unknown command '{other}' (run, compare, verify, spec, or --workload ...)"
            )),
        });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("lazydp-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
