//! What one run of one workload produces, and its three renderings:
//! the human-readable metric lines, the contract's last-line JSON, and
//! the detail document `run` aggregates.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};

/// Version of the detail and result-file schema.
pub const SCHEMA_VERSION: u64 = 1;

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name, e.g. `epsilon_matches_own_accountant`.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// What was compared.
    pub detail: String,
}

impl Check {
    /// A check result.
    #[must_use]
    pub fn new(name: &str, pass: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.to_string(),
            pass,
            detail: detail.into(),
        }
    }

    /// The JSON form.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", Json::str(&*self.name))
            .with("pass", Json::Bool(self.pass))
            .with("detail", Json::str(&*self.detail))
    }
}

/// The parameters of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static crate::spec::Workload,
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Smoke scale: tables ÷16, one round, at most 8 steps.
    pub smoke: bool,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What was run.
    pub args: RunArgs,
    /// `(name, value)` for every metric of the run's kind, in spec order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Timed steps attempted.
    pub attempted: u64,
    /// Steps that panicked, or all of them if the released model's
    /// evaluation loss is not finite.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Digests, exact counts, sample counts, spans: everything else
    /// `run` and a reader of the detail file may want.
    pub extra: Json,
}

impl Outcome {
    /// Whether every check passed and no step failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    }

    fn metrics_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, value) in &self.metrics {
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::Num(*value))
                    .with("unit", Json::str(Self::unit_of(name))),
            );
        }
        metrics
    }

    /// The contract's last line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn last_line(&self) -> String {
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::UInt(self.attempted.max(1)))
            .with("failed", Json::UInt(self.failed))
            .with("metrics", self.metrics_json())
            .to_compact()
    }

    /// The detail document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema_version", Json::UInt(SCHEMA_VERSION))
            .with("workload", Json::str(self.args.workload.name))
            .with("seed", Json::UInt(self.args.seed))
            .with("seconds", Json::Num(self.args.seconds))
            .with("trace", Json::Bool(self.args.trace))
            .with("smoke", Json::Bool(self.args.smoke))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::UInt(self.attempted))
            .with("failed", Json::UInt(self.failed))
            .with("metrics", self.metrics_json())
            .with(
                "checks",
                Json::Arr(self.checks.iter().map(Check::to_json).collect()),
            )
            .with("extra", self.extra.clone())
    }

    /// Prints every metric by name with its unit, then the checks.
    pub fn print_human(&self) {
        let kind = if self.args.trace {
            "traced"
        } else {
            "untraced"
        };
        println!(
            "# {} seed={} seconds={} {kind}{}",
            self.args.workload.name,
            self.args.seed,
            self.args.seconds,
            if self.args.smoke { " smoke" } else { "" }
        );
        for (name, value) in &self.metrics {
            println!("{name:<36} {value:>16.6} {}", Self::unit_of(name));
        }
        println!(
            "{:<36} {:>16} of {}",
            "steps_failed", self.failed, self.attempted
        );
        for c in &self.checks {
            println!(
                "check {:<40} {}  {}",
                c.name,
                if c.pass { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }
}
