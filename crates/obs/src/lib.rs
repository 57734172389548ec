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
//!   ([`metrics()`], [`crate::span!`]) but never *read back*: the read
//!   API ([`snapshot::capture_metrics`]) is callable only from
//!   `crates/bench`, tests, and the exporters in [`export`] —
//!   machine-checked by lint rule **O1**.
//! * **No gradient or per-example values.** Metrics carry counts,
//!   bytes, durations, and ε — nothing else. Lint rule **P1** scans
//!   metric-recording call sites and span phases for gradient-bearing
//!   identifiers, exactly as it does for `println!`.
//! * **Deterministic when it matters.** The wall clock lives in
//!   [`clock`], the single sanctioned home alongside `crates/bench`
//!   (rule **D2**); nothing recorded here may flow back into training,
//!   so the released model is bitwise-identical for every
//!   [`ObsMode`] — pinned by `tests/obs_invariance.rs`.
//! * **Near-zero cost when off, zero-alloc when counting.** Counters
//!   and gauges are relaxed atomics in a `static` registry; histograms
//!   have fixed log2 buckets; a phase span ([`span!`]) reads the clock
//!   twice and records its nanoseconds into a `phase.*` histogram. In
//!   [`ObsMode::Off`] every record is one relaxed load and a
//!   predictable branch; in [`ObsMode::Counters`] the steady-state
//!   training step still allocates zero heap bytes (enforced by
//!   `tests/alloc_*`).
//!
//! # Runtime gate
//!
//! Every process starts in [`ObsMode::Counters`], so an ordinary run
//! carries its own per-phase breakdown. Tests switch recording off
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
pub mod span;

pub use cache::{CacheCounters, CacheView};
pub use metrics::{metrics, Metrics, PhaseMetrics};
pub use snapshot::MetricsSnapshot;

use std::sync::atomic::{AtomicU8, Ordering};

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ObsMode {
    /// Record nothing. Every instrumentation site costs one relaxed
    /// atomic load plus a predictable branch.
    Off = 0,
    /// Record counters, gauges, histograms and phase spans (relaxed
    /// atomics and clock reads; no locks, no allocation). This is the
    /// mode every process starts in.
    Counters = 1,
}

static MODE: AtomicU8 = AtomicU8::new(ObsMode::Counters as u8);

/// Sets the mode process-wide (tests and experiment drivers).
pub fn set_mode(m: ObsMode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// True when counters, gauges, histograms and spans should record.
#[inline]
#[must_use]
pub fn counters_enabled() -> bool {
    MODE.load(Ordering::Relaxed) == ObsMode::Counters as u8
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
    fn set_mode_controls_the_gate() {
        let _g = test_mode_lock();
        set_mode(ObsMode::Off);
        assert!(!counters_enabled());
        set_mode(ObsMode::Counters);
        assert!(counters_enabled());
    }
}
