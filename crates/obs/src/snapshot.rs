//! Point-in-time snapshots of the registry, with a schema-versioned
//! JSON form.
//!
//! [`capture_metrics`] is **the** read API of the metrics registry —
//! the atomics themselves expose no public getters. Lint rule **O1**
//! bans calling it outside `crates/bench`, `crates/obs`, and test
//! code, which is what makes the registry write-only from hot paths:
//! a recorded value can reach a report, never a training decision.
//!
//! The JSON form mirrors the lint report's convention: a top-level
//! `schema_version` so downstream tooling can detect drift, and
//! [`MetricsSnapshot::from_json`] so CI can assert the round-trip.

use crate::metrics::{metrics, HISTOGRAM_BUCKETS};
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
    let m = metrics();
    let counters = vec![
        ("trainer.steps", m.trainer.steps.get()),
        ("trainer.flush_overlaps", m.trainer.flush_overlaps.get()),
        ("trainer.noise_plan_rows", m.trainer.noise_plan_rows.get()),
        ("trainer.finalize_rows", m.trainer.finalize_rows.get()),
        (
            "adafest.partitions_selected",
            m.adafest.partitions_selected.get(),
        ),
        (
            "adafest.partitions_dropped",
            m.adafest.partitions_dropped.get(),
        ),
        ("store.hits", m.store.hits.get()),
        ("store.misses", m.store.misses.get()),
        ("store.evictions", m.store.evictions.get()),
        ("store.write_backs", m.store.write_backs.get()),
        ("store.bytes_spilled", m.store.bytes_spilled.get()),
        ("store.bytes_loaded", m.store.bytes_loaded.get()),
        ("exec.par_regions", m.exec.par_regions.get()),
        ("exec.par_chunks", m.exec.par_chunks.get()),
        ("privacy.compositions", m.privacy.compositions.get()),
        ("fault.injected", m.fault.injected.get()),
        ("fault.retries", m.fault.retries.get()),
        ("fault.giveups", m.fault.giveups.get()),
        ("fault.checksum_failures", m.fault.checksum_failures.get()),
        ("fault.degradations", m.fault.degradations.get()),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect();
    let gauges = vec![(
        "privacy.spent_epsilon".to_string(),
        m.privacy.spent_epsilon.get(),
    )];
    let histograms = vec![
        capture_histogram("trainer.pending_depth", &m.trainer.pending_depth),
        capture_histogram("exec.chunks_per_region", &m.exec.chunks_per_region),
    ];
    MetricsSnapshot {
        schema_version: SCHEMA_VERSION,
        counters,
        gauges,
        histograms,
    }
}

fn capture_histogram(name: &str, h: &crate::metrics::Histogram) -> HistogramSnapshot {
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

    /// Per-counter difference `self − earlier` (saturating at 0), for
    /// measuring one run inside a long-lived process. Gauges and
    /// histograms keep `self`'s values.
    #[must_use]
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (name, v) in &mut out.counters {
            *v = v.saturating_sub(earlier.counter(name));
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

    /// Parses the JSON form back. Rejects unknown schema versions so
    /// CI catches producer/consumer drift.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let snap = p.parse_snapshot()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        if snap.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {})",
                snap.schema_version, SCHEMA_VERSION
            ));
        }
        Ok(snap)
    }
}

/// Minimal recursive-descent parser for exactly the JSON subset
/// [`MetricsSnapshot::to_json`] emits (objects, arrays, plain strings,
/// and decimal numbers — metric names never need escapes).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?
                    .to_string();
                self.pos += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err(format!("escapes unsupported at byte {}", self.pos));
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn number_slice(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid utf-8 in number".to_string())
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        let s = self.number_slice()?;
        s.parse::<u64>()
            .map_err(|e| format!("bad integer {s:?}: {e}"))
    }

    fn parse_f64(&mut self) -> Result<f64, String> {
        let s = self.number_slice()?;
        s.parse::<f64>()
            .map_err(|e| format!("bad number {s:?}: {e}"))
    }

    /// Parses `{ "k": v, ... }`, calling `each(self, key)` per entry.
    fn parse_object(
        &mut self,
        mut each: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            each(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn parse_u64_array(&mut self) -> Result<Vec<u64>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.parse_u64()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn parse_snapshot(&mut self) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot {
            schema_version: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        self.parse_object(|p, key| match key.as_str() {
            "schema_version" => {
                snap.schema_version = u32::try_from(p.parse_u64()?)
                    .map_err(|_| "schema_version out of range".to_string())?;
                Ok(())
            }
            "counters" => p.parse_object(|p, name| {
                let v = p.parse_u64()?;
                snap.counters.push((name, v));
                Ok(())
            }),
            "gauges" => p.parse_object(|p, name| {
                let v = p.parse_f64()?;
                snap.gauges.push((name, v));
                Ok(())
            }),
            "histograms" => p.parse_object(|p, name| {
                let mut sum = 0u64;
                let mut buckets = Vec::new();
                p.parse_object(|p, field| match field.as_str() {
                    "sum" => {
                        sum = p.parse_u64()?;
                        Ok(())
                    }
                    "buckets" => {
                        buckets = p.parse_u64_array()?;
                        Ok(())
                    }
                    other => Err(format!("unknown histogram field {other:?}")),
                })?;
                snap.histograms
                    .push(HistogramSnapshot { name, sum, buckets });
                Ok(())
            }),
            other => Err(format!("unknown top-level key {other:?}")),
        })?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn snapshot_round_trips_through_json() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        // Touch a spread of metric kinds so the snapshot is non-trivial.
        metrics().trainer.steps.incr();
        metrics().store.bytes_loaded.add(4096);
        metrics().privacy.spent_epsilon.set_f64(1.2345678901234567);
        metrics().trainer.pending_depth.record(3);
        metrics().trainer.pending_depth.record(1000);
        let snap = capture_metrics();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("round trip");
        assert_eq!(snap, back, "snapshot must survive to_json/from_json");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert!(back.counter("trainer.steps") >= 1);
        let h = back.histogram("trainer.pending_depth").expect("histogram");
        assert!(h.count() >= 2 && h.sum >= 1003);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let json =
            "{\"schema_version\": 999, \"counters\": {}, \"gauges\": {}, \"histograms\": {}}";
        let err = MetricsSnapshot::from_json(json).expect_err("must reject");
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected_with_a_position() {
        assert!(MetricsSnapshot::from_json("{\"counters\": [}").is_err());
        assert!(MetricsSnapshot::from_json("").is_err());
        assert!(MetricsSnapshot::from_json("{} trailing").is_err());
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
    }
}
