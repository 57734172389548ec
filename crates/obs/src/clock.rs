//! Wall-clock measurement, quarantined.
//!
//! Rule **D2** (clippy's `disallowed_types`, configured in
//! `crates/clippy.toml`) bans `std::time::Instant` and `SystemTime` in
//! every workspace crate: wall-clock reads are inherently
//! non-deterministic, so a timing call sitting next to training logic
//! is a standing invitation to let "how long did it take" leak into
//! "what did it compute". This module is the single sanctioned home of
//! the clock, and its exemption is the module-level `expect` below (an
//! item-level one cannot cover the `Instant` field that `Stopwatch`'s
//! derives re-emit). `benchmark/` and examples time with [`Stopwatch`],
//! and the span machinery in [`crate::trace`] reads [`now_ns`] only
//! when tracing is on.

#![expect(
    clippy::disallowed_types,
    reason = "D2: the one sanctioned home of the wall clock"
)]

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A started wall clock. Measurement only — a `Stopwatch` reading must
/// never feed back into training state (DESIGN.md invariant #1).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as a float, convenient for rate arithmetic.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Process-wide epoch for span timestamps: fixed on first use so every
/// thread's events share one timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide epoch (first call). Monotone,
/// allocation-free, shared across threads — the timestamp base for
/// every [`crate::trace::TraceEvent`].
#[must_use]
pub fn now_ns() -> u64 {
    let nanos = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_secs() >= 0.0);
    }

    #[test]
    fn now_ns_is_monotone_across_calls() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
