//! Exporters: the sanctioned exits for recorded values.
//!
//! Everything here moves observability data *out* of the process — to
//! a file or to stdout — and returns nothing derived from it to the
//! caller, so these functions are callable from anywhere (examples,
//! binaries) without violating the write-only contract of rule **O1**.
//! The banned read API ([`crate::snapshot::capture_metrics`]) is
//! wrapped *inside* this module; each exporter carries its own O1
//! `expect`.

use crate::snapshot::capture_metrics;
use std::io;
use std::path::Path;

/// Writes the current registry snapshot as schema-versioned JSON,
/// per-phase durations (`phase.*_ns`) included.
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
    use crate::ObsMode;

    #[test]
    fn snapshot_file_carries_the_schema_and_the_phases() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lazydp-obs-snap-{}.json", std::process::id()));
        write_snapshot_json(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert!(text.starts_with("{\n  \"schema_version\": 1,"), "{text}");
        assert!(
            text.contains("\"phase.step_forward_ns\": {\"sum\": "),
            "{text}"
        );
    }
}
