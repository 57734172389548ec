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
//! derives re-emit). Examples time with [`Stopwatch`], and
//! [`crate::span!`] starts one per phase only when counters are on.

#![expect(
    clippy::disallowed_types,
    reason = "D2: the one sanctioned home of the wall clock"
)]

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
    }
}
