//! The result file `run` writes, and `compare` over two of them.
//!
//! A result file holds, per workload, every repeat's end-to-end values
//! with their median and A/A spread, the traced run's per-layer values,
//! the checks, and the environment fingerprint.

use crate::json::Json;
use crate::outcome::SCHEMA_VERSION;
use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, relative_spread};
use std::fmt::Write as _;

/// Summarises one metric over the repeats of a workload.
#[must_use]
pub fn summarise(values: &[f64], unit: &str) -> Json {
    Json::obj()
        .with("median", Json::Num(median(values)))
        .with("spread", Json::Num(relative_spread(values)))
        .with("unit", Json::str(unit))
        .with(
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        )
}

fn workload_of<'a>(file: &'a Json, workload: &str) -> Option<&'a Json> {
    file.get("workloads")?
        .items()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
}

/// Reads `result.workloads[name].end_to_end[metric].{median,spread}`.
fn end_to_end_of(file: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = workload_of(file, workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some((m.get("median")?.as_f64()?, m.get("spread")?.as_f64()?))
}

fn failed_share_of(file: &Json, workload: &str) -> Option<f64> {
    workload_of(file, workload)?
        .get("ops_failed_share")?
        .as_f64()
}

/// How a metric moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the threshold.
    Better,
    /// Moved by less than the threshold either way.
    Within,
    /// Worsened by more than the threshold.
    Worse,
    /// The A/A spread recorded in either file exceeds the threshold:
    /// the runs cannot resolve a change of the size the bound forbids.
    Unresolved,
}

impl Verdict {
    /// Lower-case name as printed.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: a change counts only past
/// `max(bound × base, floor)`, and only if both files' own repeat
/// spreads are inside that threshold.
#[must_use]
pub fn judge(metric: &EndToEnd, base: (f64, f64), new: (f64, f64)) -> Verdict {
    let (base_median, base_spread) = base;
    let (new_median, new_spread) = new;
    let threshold = (metric.bound * base_median.abs()).max(metric.floor);
    let noise = (base_spread * base_median.abs()).max(new_spread * new_median.abs());
    if noise > threshold {
        return Verdict::Unresolved;
    }
    let worsening = match metric.better {
        Better::Lower => new_median - base_median,
        Better::Higher => base_median - new_median,
    };
    if worsening > threshold {
        Verdict::Worse
    } else if -worsening > threshold {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compares two result files: one row per workload × end-to-end metric.
/// Returns the table and whether the comparison passes (no `worse`, no
/// rise in `ops_failed_share`).
///
/// # Errors
///
/// Reports a schema mismatch or a workload/metric missing from either
/// file.
pub fn compare(base: &Json, new: &Json) -> Result<(String, bool), String> {
    for (label, file) in [("base", base), ("new", new)] {
        let v = file.get("schema_version").and_then(Json::as_u64);
        if v != Some(SCHEMA_VERSION) {
            return Err(format!(
                "{label} file has schema_version {v:?}, this reader knows {SCHEMA_VERSION}"
            ));
        }
    }
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    for w in &WORKLOADS {
        for metric in &END_TO_END {
            let missing = |which: &str| format!("{which} file has no {}.{}", w.name, metric.name);
            let b = end_to_end_of(base, w.name, metric.name).ok_or_else(|| missing("base"))?;
            let n = end_to_end_of(new, w.name, metric.name).ok_or_else(|| missing("new"))?;
            let verdict = judge(metric, b, n);
            pass &= verdict != Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<14} {:>14.4} {:>14.4} {:>8.4} {:>6.0}% {:>6.1}%  {}",
                w.name,
                metric.name,
                b.0,
                n.0,
                n.0 / b.0,
                metric.bound * 100.0,
                b.1.max(n.1) * 100.0,
                verdict.as_str()
            );
        }
        let b = failed_share_of(base, w.name)
            .ok_or_else(|| format!("base file has no {}.ops_failed_share", w.name))?;
        let n = failed_share_of(new, w.name)
            .ok_or_else(|| format!("new file has no {}.ops_failed_share", w.name))?;
        let rose = n > b;
        pass &= !rose;
        let _ = writeln!(
            out,
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>8} {:>7} {:>7}  {}",
            w.name,
            "ops_failed_share",
            b,
            n,
            "-",
            "0%",
            "-",
            if rose { "worse" } else { "within" }
        );
    }
    let _ = writeln!(
        out,
        "new/base is new median / base median; a change counts past max(bound x base, floor); \
         unresolved = a file's own repeat spread exceeds that"
    );
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better,
            bound: 0.10,
            floor: 0.2,
        }
    }

    #[test]
    fn judge_applies_bound_floor_and_direction() {
        let m = metric(Better::Lower);
        assert_eq!(judge(&m, (100.0, 0.01), (105.0, 0.01)), Verdict::Within);
        assert_eq!(judge(&m, (100.0, 0.01), (111.0, 0.01)), Verdict::Worse);
        assert_eq!(judge(&m, (100.0, 0.01), (85.0, 0.01)), Verdict::Better);
        // Below the floor nothing counts: 1.0 -> 1.15 ms is +15 % but only 0.15 ms.
        assert_eq!(judge(&m, (1.0, 0.01), (1.15, 0.01)), Verdict::Within);
        let h = metric(Better::Higher);
        assert_eq!(judge(&h, (100.0, 0.01), (85.0, 0.01)), Verdict::Worse);
        assert_eq!(judge(&h, (100.0, 0.01), (115.0, 0.01)), Verdict::Better);
    }

    /// A minimal result file: every workload, every metric at `value`
    /// with 1 % spread, except `table_eager.step_ms_p50` at `eager_p50`.
    fn result_file(value: f64, eager_p50: f64, failed_share: f64) -> Json {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let mut end_to_end = Json::obj();
                for m in &END_TO_END {
                    let v = if w.name == "table_eager" && m.name == "step_ms_p50" {
                        eager_p50
                    } else {
                        value
                    };
                    end_to_end.set(m.name, summarise(&[v * 0.995, v, v * 1.005], m.unit));
                }
                Json::obj()
                    .with("name", Json::str(w.name))
                    .with("ops_failed_share", Json::Num(failed_share))
                    .with("end_to_end", end_to_end)
            })
            .collect();
        Json::obj()
            .with("schema_version", Json::UInt(SCHEMA_VERSION))
            .with("workloads", Json::Arr(workloads))
    }

    #[test]
    fn compare_fails_on_one_worse_row_or_any_rise_in_failures() {
        let base = result_file(100.0, 100.0, 0.0);
        let (table, pass) = compare(&base, &base).unwrap();
        assert!(pass, "{table}");
        assert_eq!(
            table.matches("  within\n").count(),
            table.lines().count() - 2,
            "{table}"
        );
        assert_eq!(
            table.lines().count(),
            1 + WORKLOADS.len() * (END_TO_END.len() + 1) + 1
        );

        let (table, pass) = compare(&base, &result_file(100.0, 140.0, 0.0)).unwrap();
        assert!(!pass, "{table}");
        assert_eq!(table.matches("worse").count(), 1, "{table}");

        let (_, pass) = compare(&base, &result_file(100.0, 60.0, 0.0)).unwrap();
        assert!(pass, "an improvement passes");
        let (_, pass) = compare(&base, &result_file(100.0, 100.0, 0.01)).unwrap();
        assert!(!pass, "a rise in ops_failed_share fails");
    }

    #[test]
    fn compare_rejects_a_foreign_or_incomplete_file() {
        let base = result_file(100.0, 100.0, 0.0);
        assert!(compare(&base, &Json::obj()).is_err());
        let future = Json::obj().with("schema_version", Json::UInt(SCHEMA_VERSION + 1));
        assert!(compare(&future, &base).is_err());
        let empty = Json::obj()
            .with("schema_version", Json::UInt(SCHEMA_VERSION))
            .with("workloads", Json::Arr(vec![]));
        assert!(compare(&base, &empty).unwrap_err().contains("dense_lazydp"));
    }

    #[test]
    fn a_spread_wider_than_the_threshold_is_unresolved_not_unchanged() {
        let m = metric(Better::Lower);
        assert_eq!(judge(&m, (100.0, 0.12), (101.0, 0.01)), Verdict::Unresolved);
        assert_eq!(judge(&m, (100.0, 0.01), (130.0, 0.15)), Verdict::Unresolved);
    }
}
