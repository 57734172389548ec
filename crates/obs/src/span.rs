//! Phase spans: scoped wall-clock intervals recorded into the
//! registry's [`crate::metrics::PhaseMetrics`] histograms.
//!
//! A span is opened with the [`crate::span!`] macro, naming a field of
//! `lazydp_obs::metrics().phase`, and closed when the guard drops at
//! the end of the enclosing scope:
//!
//! ```
//! fn dense_phase() {
//!     lazydp_obs::span!(step_dense_update);
//!     // ... work ...
//! } // elapsed ns recorded into `phase.step_dense_update_ns` here
//! ```
//!
//! The clock is read (through [`crate::clock::Stopwatch`]) only when
//! [`crate::counters_enabled`]; in [`crate::ObsMode::Off`] a span costs
//! one relaxed load. A span reads the clock twice and allocates
//! nothing. Phase names are part of the privacy surface: lint rule
//! **P1** checks the macro argument like a format-macro argument, so a
//! phase can never be named after a gradient-bearing value.

use crate::clock::Stopwatch;
use crate::metrics::Histogram;

/// An open span; records its elapsed nanoseconds into its phase
/// histogram when dropped. Construct via [`crate::span!`].
#[derive(Debug)]
pub struct SpanGuard {
    phase: &'static Histogram,
    clock: Option<Stopwatch>,
}

impl SpanGuard {
    /// Opens a span on `phase`. Inert (no clock read) unless counters
    /// are on.
    #[inline]
    #[must_use]
    pub fn begin(phase: &'static Histogram) -> Self {
        Self {
            phase,
            clock: crate::counters_enabled().then(Stopwatch::start),
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(clock) = self.clock {
            let ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.phase.record(ns);
        }
    }
}

/// Opens a phase span for the rest of the enclosing scope.
///
/// The argument is a field of [`crate::metrics::PhaseMetrics`]; its
/// duration lands in the snapshot histogram `phase.<field>_ns`. Lint
/// rule **P1** checks the name.
///
/// A phase that is not a registry field does not compile:
///
/// ```compile_fail
/// lazydp_obs::span!(no_such_phase);
/// ```
#[macro_export]
macro_rules! span {
    ($phase:ident) => {
        let _lazydp_obs_span = $crate::span::SpanGuard::begin(&$crate::metrics().phase.$phase);
    };
}

#[cfg(test)]
mod tests {
    use crate::snapshot::capture_metrics;
    use crate::ObsMode;

    /// Samples recorded in `phase.<name>_ns` so far.
    fn samples(name: &str) -> (u64, u64) {
        let snap = capture_metrics();
        let h = snap.histogram(&format!("phase.{name}_ns")).expect("phase");
        (h.count(), h.sum)
    }

    #[test]
    fn a_span_records_one_sample_in_counters_and_none_when_off() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Off);
        let before = samples("step_forward");
        {
            crate::span!(step_forward);
        }
        assert_eq!(samples("step_forward"), before);

        crate::set_mode(ObsMode::Counters);
        {
            crate::span!(step_forward);
        }
        assert_eq!(samples("step_forward").0, before.0 + 1);
    }

    #[test]
    fn nested_spans_both_record() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let (outer0, inner0) = (samples("step_flush_overlap"), samples("step_backward_clip"));
        {
            crate::span!(step_flush_overlap);
            {
                crate::span!(step_backward_clip);
            }
        }
        let (outer1, inner1) = (samples("step_flush_overlap"), samples("step_backward_clip"));
        assert_eq!((outer1.0 - outer0.0, inner1.0 - inner0.0), (1, 1));
        // The outer interval contains the inner one on a monotone clock.
        assert!(outer1.1 - outer0.1 >= inner1.1 - inner0.1);
    }
}
