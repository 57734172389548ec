//! Point-in-time snapshots of the registry, with a schema-versioned
//! JSON form.
//!
//! [`capture_metrics`] is **the** read API of the metrics registry —
//! the atomics themselves expose no public getters. Lint rule **O1**
//! bans calling it outside `crates/bench`, `crates/obs`, and test
//! code, which is what makes the registry write-only from hot paths:
//! a recorded value can reach a report, never a training decision.
//!
//! The JSON form carries a top-level `schema_version` so downstream
//! tooling can detect drift; adding a metric adds a name, not a shape.

use crate::metrics::{metrics, Histogram, Metric, HISTOGRAM_BUCKETS};
use std::fmt::Write as _;

/// Version of the JSON schema emitted by [`MetricsSnapshot::to_json`].
/// Bump on any incompatible shape change.
pub const SCHEMA_VERSION: u32 = 1;

/// One histogram's captured state: log2 buckets with trailing zero
/// buckets trimmed, plus the running sum of samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name, e.g. `trainer.pending_depth`.
    pub name: String,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// `buckets[i]` counts samples with bit length `i` (so bucket 0 is
    /// the zero samples). Trailing empty buckets are trimmed.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

/// A captured copy of every counter, gauge, and histogram in the
/// registry, decoupled from the live atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// The schema version this snapshot serializes as.
    pub schema_version: u32,
    /// `(name, value)` for every counter, in registry order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Captures the registry right now. **Read API** — callable only from
/// `crates/bench`, `crates/obs`, and tests (lint rule **O1**).
#[must_use]
pub fn capture_metrics() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    metrics().visit(|name, metric| match metric {
        Metric::Counter(c) => snap.counters.push((name.to_string(), c.get())),
        Metric::Gauge(g) => snap.gauges.push((name.to_string(), g.get())),
        Metric::Histogram(h) => snap.histograms.push(capture_histogram(name, h)),
    });
    snap
}

fn capture_histogram(name: &str, h: &Histogram) -> HistogramSnapshot {
    let mut buckets: Vec<u64> = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket(i)).collect();
    while buckets.last() == Some(&0) {
        buckets.pop();
    }
    HistogramSnapshot {
        name: name.to_string(),
        sum: h.sum(),
        buckets,
    }
}

impl MetricsSnapshot {
    /// Value of the named counter (0 when unknown — absent and zero
    /// are indistinguishable by design).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of the named gauge (0.0 when unknown).
    #[must_use]
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The named histogram, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Difference `self − earlier` (saturating at 0) of every counter
    /// and, bucket-wise, of every histogram's buckets and sum, for
    /// measuring one run inside a long-lived process. Gauges keep
    /// `self`'s values.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in &mut out.counters {
            *v = v.saturating_sub(earlier.counter(name));
        }
        for h in &mut out.histograms {
            let Some(e) = earlier.histogram(&h.name) else {
                continue;
            };
            h.sum = h.sum.saturating_sub(e.sum);
            for (b, eb) in h.buckets.iter_mut().zip(&e.buckets) {
                *b = b.saturating_sub(*eb);
            }
            while h.buckets.last() == Some(&0) {
                h.buckets.pop();
            }
        }
        out
    }

    /// Serializes to the schema-versioned JSON form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(s, "{{\n  \"schema_version\": {},", self.schema_version);
        s.push_str("\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{name}\": {v}");
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    \"{name}\": {v}");
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    \"{}\": {{\"sum\": {}, \"buckets\": [",
                h.name, h.sum
            );
            for (j, b) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}{b}");
            }
            s.push_str("]}");
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn to_json_matches_the_golden_string() {
        let snap = MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters: vec![("store.hits".to_string(), 7)],
            gauges: vec![("privacy.spent_epsilon".to_string(), 1.25)],
            histograms: vec![HistogramSnapshot {
                name: "phase.step_forward_ns".to_string(),
                sum: 5,
                buckets: vec![0, 1, 2],
            }],
        };
        let golden = concat!(
            "{\n",
            "  \"schema_version\": 1,\n",
            "  \"counters\": {\n",
            "    \"store.hits\": 7\n",
            "  },\n",
            "  \"gauges\": {\n",
            "    \"privacy.spent_epsilon\": 1.25\n",
            "  },\n",
            "  \"histograms\": {\n",
            "    \"phase.step_forward_ns\": {\"sum\": 5, \"buckets\": [0, 1, 2]}\n",
            "  }\n",
            "}\n",
        );
        assert_eq!(snap.to_json(), golden);
    }

    #[test]
    fn the_snapshot_names_every_metric_once_in_registry_order() {
        let snap = capture_metrics();
        let counters: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let gauges: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
        let histograms: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(
            counters,
            [
                "trainer.steps",
                "trainer.noise_plan_rows",
                "trainer.finalize_rows",
                "adafest.partitions_selected",
                "adafest.partitions_dropped",
                "store.hits",
                "store.misses",
                "store.evictions",
                "store.write_backs",
                "store.bytes_spilled",
                "store.bytes_loaded",
                "exec.par_regions",
                "exec.par_chunks",
                "privacy.compositions",
                "fault.injected",
                "fault.retries",
                "fault.giveups",
                "fault.checksum_failures",
                "fault.degradations",
            ]
        );
        assert_eq!(gauges, ["privacy.spent_epsilon"]);
        assert_eq!(
            histograms,
            [
                "phase.step_forward_ns",
                "phase.step_backward_clip_ns",
                "phase.step_backward_ns",
                "phase.step_dense_update_ns",
                "phase.step_table_noise_ns",
                "phase.step_flush_overlap_ns",
                "phase.step_sparse_update_ns",
                "phase.finalize_flush_all_ns",
                "trainer.pending_depth",
                "exec.chunks_per_region",
            ]
        );
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let before = capture_metrics();
        metrics().store.hits.add(7);
        let after = capture_metrics();
        let delta = after.delta_since(&before);
        assert_eq!(delta.counter("store.hits"), 7);

        // Histograms subtract bucket-wise too: an earlier run's samples
        // do not leak into this one's delta.
        let h = &metrics().phase.finalize_flush_all;
        h.record(1000);
        let before = capture_metrics();
        h.record(3);
        h.record(1);
        let delta = capture_metrics().delta_since(&before);
        let d = delta
            .histogram("phase.finalize_flush_all_ns")
            .expect("phase");
        assert_eq!((d.sum, d.buckets.as_slice()), (4, [0, 1, 1].as_slice()));
    }
}
