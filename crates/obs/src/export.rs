//! Exporters: the sanctioned exits for recorded values.
//!
//! Everything here moves observability data *out* of the process — to
//! a file or to stdout — and returns nothing derived from it to the
//! caller, so these functions are callable from anywhere (examples,
//! binaries) without violating the write-only contract of rule **O1**.
//! The banned read APIs ([`crate::snapshot::capture_metrics`],
//! [`crate::trace::take_trace_events`]) are wrapped *inside* this
//! module; each exporter carries its own O1 `expect`.

use crate::snapshot::capture_metrics;
use crate::trace::take_trace_events;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Writes the current registry snapshot as schema-versioned JSON.
///
/// # Errors
///
/// Propagates the underlying file-system error.
#[expect(
    clippy::disallowed_methods,
    reason = "O1: an exporter moves recorded values out of the process, never back to the caller"
)]
pub fn write_snapshot_json(path: &Path) -> io::Result<()> {
    std::fs::write(path, capture_metrics().to_json())
}

/// Drains all completed spans and writes them in chrome://tracing
/// "trace event" format (open the file at `chrome://tracing` or
/// <https://ui.perfetto.dev>). Timestamps are µs since the process
/// epoch; every event is a complete (`"ph": "X"`) duration event.
///
/// # Errors
///
/// Propagates the underlying file-system error.
#[expect(
    clippy::disallowed_methods,
    reason = "O1: an exporter moves recorded values out of the process, never back to the caller"
)]
pub fn write_chrome_trace(path: &Path) -> io::Result<()> {
    let events = take_trace_events();
    let mut s = String::with_capacity(64 + events.len() * 96);
    s.push_str("{\"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n  {{\"name\": \"{}\", \"cat\": \"lazydp\", \"ph\": \"X\", \
             \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}}}",
            e.name,
            e.tid,
            e.start_ns / 1_000,
            (e.dur_ns / 1_000).max(1),
        );
    }
    s.push_str("\n]}\n");
    std::fs::write(path, s)
}

/// [`write_chrome_trace`] when tracing is on; a no-op otherwise, so
/// examples can call it unconditionally and only produce a file under
/// `LAZYDP_OBS=trace`.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_chrome_trace_if_tracing(path: &Path) -> io::Result<bool> {
    if crate::trace_enabled() {
        write_chrome_trace(path)?;
        return Ok(true);
    }
    Ok(false)
}

/// Prints the out-of-core store's counters to stdout, one per line.
/// Values go to the terminal, not to the caller — exporter, not read
/// API.
#[expect(
    clippy::disallowed_methods,
    reason = "O1: an exporter moves recorded values out of the process, never back to the caller"
)]
pub fn print_store_summary() {
    let snap = capture_metrics();
    let hits = snap.counter("store.hits");
    let misses = snap.counter("store.misses");
    let faults = hits + misses;
    let hit_rate = if faults == 0 {
        0.0
    } else {
        hits as f64 / faults as f64
    };
    println!("store.hits         = {hits}");
    println!("store.misses       = {misses}");
    println!("store.evictions    = {}", snap.counter("store.evictions"));
    println!("store.write_backs  = {}", snap.counter("store.write_backs"));
    println!(
        "store.bytes_spilled = {}",
        snap.counter("store.bytes_spilled")
    );
    println!(
        "store.bytes_loaded  = {}",
        snap.counter("store.bytes_loaded")
    );
    println!("store.hit_rate     = {hit_rate:.3}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{snapshot::MetricsSnapshot, ObsMode};

    #[test]
    fn snapshot_file_round_trips() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lazydp-obs-snap-{}.json", std::process::id()));
        write_snapshot_json(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let snap = MetricsSnapshot::from_json(&text).expect("parse");
        assert_eq!(snap.schema_version, crate::snapshot::SCHEMA_VERSION);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chrome_trace_is_wellformed_and_gated() {
        let _g = crate::test_mode_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lazydp-obs-trace-{}.json", std::process::id()));

        crate::set_mode(ObsMode::Counters);
        assert!(!write_chrome_trace_if_tracing(&path).expect("gated write"));

        crate::set_mode(ObsMode::Trace);
        let _ = crate::trace::take_trace_events();
        {
            crate::span!("test.export");
        }
        assert!(write_chrome_trace_if_tracing(&path).expect("write"));
        crate::set_mode(ObsMode::Counters);
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"name\": \"test.export\""));
        assert!(text.contains("\"ph\": \"X\""));
        std::fs::remove_file(&path).ok();
    }
}
