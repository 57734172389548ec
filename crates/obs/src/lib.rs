//! Privacy-safe, determinism-safe observability for the LazyDP stack.
//!
//! Every other part of the workspace is built around two hard contracts
//! — released models are bitwise-deterministic, and nothing
//! gradient-bearing ever leaves the training loop (ARCHITECTURE.md,
//! "Determinism contract"). Observability is where both contracts are
//! usually broken by accident: a timing read feeding a heuristic, a
//! debug log printing a per-example norm. This crate is the sanctioned
//! way to see inside the system without either failure mode:
//!
//! * **Write-only from hot paths.** Training code may *record*
//!   ([`metrics()`], [`crate::span!`]) but never *read back*: the read APIs
//!   ([`snapshot::capture_metrics`], [`trace::take_trace_events`]) are
//!   callable only from `crates/bench`, tests, and the exporters in
//!   [`export`] — machine-checked by lint rule **O1**.
//! * **No gradient or per-example values.** Metrics carry counts,
//!   bytes, durations, and ε — nothing else. Lint rule **P1** scans
//!   metric-recording call sites and span names for gradient-bearing
//!   identifiers, exactly as it does for `println!`.
//! * **Deterministic when it matters.** The wall clock lives in
//!   [`clock`], the single sanctioned home alongside `crates/bench`
//!   (rule **D2**); nothing recorded here may flow back into training,
//!   so the released model is bitwise-identical for every
//!   [`ObsMode`] — pinned by `tests/obs_invariance.rs`.
//! * **Near-zero cost when off, zero-alloc when counting.** Counters
//!   and gauges are relaxed atomics in a `static` registry; histograms
//!   have fixed log2 buckets; spans write into a preallocated
//!   per-thread ring. In [`ObsMode::Off`] every record is one relaxed
//!   load and a predictable branch; in [`ObsMode::Counters`] the
//!   steady-state training step still allocates zero heap bytes
//!   (enforced by `tests/alloc_*`).
//!
//! # Runtime gate
//!
//! The mode comes from the `LAZYDP_OBS` environment variable:
//! `off`, `counters` (the default), or `trace`. Tests override it
//! process-wide with [`set_mode`].
//!
//! # Example
//!
//! ```
//! lazydp_obs::set_mode(lazydp_obs::ObsMode::Counters);
//! lazydp_obs::metrics().store.hits.incr();
//! lazydp_obs::metrics().store.bytes_loaded.add(4096);
//! // Reading back happens only in bench/tests/exporters (rule O1):
//! let snap = lazydp_obs::snapshot::capture_metrics();
//! assert!(snap.counter("store.hits") >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod cache;
pub mod clock;
pub mod export;
pub mod metrics;
pub mod snapshot;
pub mod trace;

pub use cache::{CacheCounters, CacheView};
pub use metrics::{metrics, Metrics};
pub use snapshot::MetricsSnapshot;

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
///
/// Ordered: `Off < Counters < Trace`. Each level includes everything
/// the previous one records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ObsMode {
    /// Record nothing. Every instrumentation site costs one relaxed
    /// atomic load plus a predictable branch.
    Off = 0,
    /// Record counters, gauges, and histograms (relaxed atomics, no
    /// locks, no allocation). Spans are skipped without reading the
    /// clock. This is the default.
    Counters = 1,
    /// Additionally record phase spans into per-thread ring buffers
    /// for the chrome://tracing exporter. Draining a full ring may
    /// allocate; the zero-alloc contract applies to `Counters` only.
    Trace = 2,
}

/// Sentinel meaning "LAZYDP_OBS not consulted yet".
const MODE_UNRESOLVED: u8 = u8::MAX;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNRESOLVED);

/// The active [`ObsMode`], resolved from `LAZYDP_OBS` on first use and
/// cached process-wide. `off` / `counters` / `trace` select the mode;
/// anything else (including unset) means `counters`.
#[inline]
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ObsMode::Off,
        1 => ObsMode::Counters,
        2 => ObsMode::Trace,
        _ => resolve_mode(),
    }
}

#[cold]
fn resolve_mode() -> ObsMode {
    let m = match std::env::var("LAZYDP_OBS").as_deref() {
        Ok("off") => ObsMode::Off,
        Ok("trace") => ObsMode::Trace,
        _ => ObsMode::Counters,
    };
    MODE.store(m as u8, Ordering::Relaxed);
    m
}

/// Overrides the mode process-wide (tests and experiment drivers).
pub fn set_mode(m: ObsMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// True when counters/gauges/histograms should record.
#[inline]
#[must_use]
pub fn counters_enabled() -> bool {
    mode() >= ObsMode::Counters
}

/// True when phase spans should record.
#[inline]
#[must_use]
pub fn trace_enabled() -> bool {
    mode() == ObsMode::Trace
}

/// The mode is process-global, so unit tests that flip it (or assert
/// on values other tests also record) serialize on this lock.
#[cfg(test)]
pub(crate) fn test_mode_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_levels_are_ordered() {
        assert!(ObsMode::Off < ObsMode::Counters);
        assert!(ObsMode::Counters < ObsMode::Trace);
    }

    #[test]
    fn set_mode_controls_the_gates() {
        let _g = test_mode_lock();
        set_mode(ObsMode::Off);
        assert!(!counters_enabled() && !trace_enabled());
        set_mode(ObsMode::Trace);
        assert!(counters_enabled() && trace_enabled());
        set_mode(ObsMode::Counters);
        assert!(counters_enabled() && !trace_enabled());
    }
}
