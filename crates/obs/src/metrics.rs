//! The static metrics registry: relaxed-atomic counters, gauges, and
//! fixed-bucket log2 histograms.
//!
//! Everything here is `const`-constructible and lives in one `static`
//! [`Metrics`] value, so recording never locks and never allocates.
//! Recording is gated on [`crate::counters_enabled`] — in
//! [`crate::ObsMode::Off`] each call is one relaxed load plus a
//! predictable branch. The write APIs are public; the read side is deliberately
//! `pub(crate)` so recorded values can only leave through
//! [`crate::snapshot::capture_metrics`] (lint rule **O1**).
//!
//! Each metric is declared once, in the `registry!` invocation below:
//! its group struct field, the `const` constructor and its snapshot name
//! all come from that one line.
//!
//! Call sites spell the registry access fully qualified —
//! `lazydp_obs::metrics().store.hits.incr()` — which is also what
//! anchors lint rule **P1**'s scan of metric-recording statements.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const — usable in `static` registries).
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n` (relaxed; no-op unless counters are enabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::counters_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-value-wins float gauge (e.g. spent ε), stored as `f64` bits
/// in an atomic word.
#[derive(Debug)]
pub struct GaugeF64(AtomicU64);

impl GaugeF64 {
    /// A gauge holding `0.0`.
    #[must_use]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Stores `v` (relaxed; no-op unless counters are enabled).
    #[inline]
    pub fn set_f64(&self, v: f64) {
        if crate::counters_enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for GaugeF64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of log2 buckets: bucket `i` counts values `v` with
/// `bit_length(v) == i`, i.e. bucket 0 holds `v == 0`, bucket 1 holds
/// `v == 1`, bucket 2 holds 2–3, …, bucket 64 holds the top half of
/// the `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log2 histogram of `u64` samples. Storage is a flat
/// array of relaxed atomics — preallocated, lock-free, alloc-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram (const — usable in `static` registries).
    #[must_use]
    pub const fn new() -> Self {
        // `AtomicU64` is not `Copy`, so the array comes from an inline
        // const expression rather than `[AtomicU64::new(0); N]`.
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (relaxed; no-op unless counters are enabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::counters_enabled() {
            let idx = (u64::BITS - v.leading_zeros()) as usize;
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    pub(crate) fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One registry metric, as [`Metrics::visit`] hands it to the snapshot.
pub(crate) enum Metric<'a> {
    /// A [`Counter`].
    Counter(&'a Counter),
    /// A [`GaugeF64`].
    Gauge(&'a GaugeF64),
    /// A [`Histogram`].
    Histogram(&'a Histogram),
}

impl<'a> From<&'a Counter> for Metric<'a> {
    fn from(c: &'a Counter) -> Self {
        Self::Counter(c)
    }
}

impl<'a> From<&'a GaugeF64> for Metric<'a> {
    fn from(g: &'a GaugeF64) -> Self {
        Self::Gauge(g)
    }
}

impl<'a> From<&'a Histogram> for Metric<'a> {
    fn from(h: &'a Histogram) -> Self {
        Self::Histogram(h)
    }
}

/// Declares the registry once. Each group is written
/// `<field doc> group + "suffix": <struct doc> GroupStruct { <doc> metric: Kind, … }`
/// and becomes a group struct, a field of [`Metrics`], a part of the
/// `const` constructor, and entries of [`Metrics::visit`], which names
/// each metric `group.metric` followed by the group's suffix.
macro_rules! registry {
    ($(
        $(#[$field_doc:meta])*
        $group:ident + $suffix:literal:
        $(#[$struct_doc:meta])*
        $Group:ident {
            $($(#[$doc:meta])* $metric:ident: $Kind:ident,)*
        }
    )*) => {
        $(
            $(#[$struct_doc])*
            #[derive(Debug)]
            pub struct $Group {
                $($(#[$doc])* pub $metric: $Kind,)*
            }
        )*

        /// The whole registry. One static instance exists; get it with
        /// [`metrics()`].
        #[derive(Debug)]
        pub struct Metrics {
            $($(#[$field_doc])* pub $group: $Group,)*
        }

        impl Metrics {
            const fn new() -> Self {
                Self {
                    $($group: $Group {
                        $($metric: $Kind::new(),)*
                    },)*
                }
            }

            /// Hands every metric to `f` with its snapshot name, in
            /// declaration order.
            pub(crate) fn visit(&self, mut f: impl FnMut(&'static str, Metric<'_>)) {
                $($(
                    f(
                        concat!(stringify!($group), ".", stringify!($metric), $suffix),
                        Metric::from(&self.$group.$metric),
                    );
                )*)*
            }
        }
    };
}

registry! {
    /// Step-phase durations.
    phase + "_ns":
    /// Step-phase wall-clock durations in nanoseconds, one histogram per
    /// phase, recorded by [`crate::span!`] (snapshot name
    /// `phase.<field>_ns`).
    ///
    /// Phases nest, so their totals are not additive everywhere: every
    /// LazyDP step with a next batch runs its forward and clipped
    /// backward (`step_forward`, `step_backward_clip`) on the main thread
    /// *inside* `step_flush_overlap`, which ends when both sides of the
    /// overlap have drained the flush queue. The phase set is the same at
    /// every executor width.
    PhaseMetrics {
        /// The DP optimizers' forward pass (the shared front half).
        step_forward: Histogram,
        /// The fused ghost-clipping backward that yields the clipped sum.
        step_backward_clip: Histogram,
        /// Plain SGD's unclipped backward.
        step_backward: Histogram,
        /// Averaging the MLP gradients over the batch, then gradient plus
        /// dense noise on the MLP parameters (the table gradients are
        /// averaged and coalesced inside the backward).
        step_dense_update: Histogram,
        /// Eager DP-SGD's, EANA's and DP-AdaFEST's table stage: noise
        /// sampling and the noisy table update.
        step_table_noise: Histogram,
        /// LazyDP's lookahead flush beside the gradient: the overlap
        /// worker's share beside the forward/backward, then the main
        /// thread's share of what is left (on a width-1 executor the main
        /// thread fills every table after its gradient).
        step_flush_overlap: Histogram,
        /// One table's sparse update (LazyDP and SGD).
        step_sparse_update: Histogram,
        /// LazyDP's release-time flush of all pending noise.
        finalize_flush_all: Histogram,
    }

    /// Trainer-step counts and noise-plan shape.
    trainer + "":
    /// Trainer-step counts and noise-plan shape (`crates/core`).
    TrainerMetrics {
        /// Optimizer steps completed.
        steps: Counter,
        /// Rows planned for lazy noise flushes (across all tables).
        noise_plan_rows: Counter,
        /// Pending-history depth (delayed iterations) per flushed row.
        pending_depth: Histogram,
        /// Rows that owed noise when `finalize_model`'s sweep flushed them.
        finalize_rows: Counter,
    }

    /// DP-AdaFEST partition selection.
    adafest + "":
    /// DP-AdaFEST private partition selection (`crates/dpsgd`).
    AdafestMetrics {
        /// Partitions whose noisy count cleared the threshold.
        partitions_selected: Counter,
        /// Partitions dropped (gradient contribution discarded).
        partitions_dropped: Counter,
    }

    /// Paged out-of-core store.
    store + "":
    /// Paged out-of-core store (`crates/store`).
    StoreMetrics {
        /// Page faults satisfied by a resident frame.
        hits: Counter,
        /// Page faults that had to load from the spill file.
        misses: Counter,
        /// Frames evicted by the clock hand.
        evictions: Counter,
        /// Dirty frames written back to the spill file.
        write_backs: Counter,
        /// Bytes written to the spill file.
        bytes_spilled: Counter,
        /// Bytes read from the spill file.
        bytes_loaded: Counter,
    }

    /// Deterministic executor.
    exec + "":
    /// Deterministic executor (`crates/exec`).
    ExecMetrics {
        /// Parallel regions entered (`par_for`).
        par_regions: Counter,
        /// Chunks dispatched across all regions.
        par_chunks: Counter,
        /// Chunks per region — occupancy of the worker pool.
        chunks_per_region: Histogram,
    }

    /// Privacy accounting.
    privacy + "":
    /// Privacy accounting (`crates/privacy`).
    PrivacyMetrics {
        /// Successful budget compositions.
        compositions: Counter,
        /// ε spent so far at the engine's δ (updated on each composition).
        spent_epsilon: GaugeF64,
    }

    /// Fault injection and recovery.
    fault + "":
    /// Fault injection and recovery (`crates/fault`, `crates/store`,
    /// `crates/core`).
    FaultMetrics {
        /// Faults fired by the active `FaultPlan` (all kinds).
        injected: Counter,
        /// Retries of an operation after a transient failure.
        retries: Counter,
        /// Operations abandoned after exhausting their retry budget.
        giveups: Counter,
        /// Pages whose checksum did not match at fault-in (torn/corrupt).
        checksum_failures: Counter,
        /// Tables promoted from the paged to the resident backend after a
        /// persistently failing spill device.
        degradations: Counter,
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide registry. Write-only from hot paths (rule **O1**);
/// read it through [`crate::snapshot::capture_metrics`].
#[inline]
#[must_use]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsMode;

    #[test]
    fn counters_gauges_histograms_record_when_enabled() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);

        let f = GaugeF64::new();
        f.set_f64(1.25);
        assert!((f.get() - 1.25).abs() < 1e-12);

        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(3); // bucket 2
        h.record(6); // bucket 3
        assert_eq!(
            (h.bucket(0), h.bucket(1), h.bucket(2), h.bucket(3)),
            (1, 1, 1, 1)
        );
        assert_eq!(h.sum(), 10);
    }

    #[test]
    fn off_mode_drops_everything() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Off);
        let c = Counter::new();
        let f = GaugeF64::new();
        let h = Histogram::new();
        c.incr();
        f.set_f64(9.0);
        h.record(9);
        assert_eq!((c.get(), h.sum()), (0, 0));
        assert_eq!(f.get(), 0.0);
        crate::set_mode(ObsMode::Counters);
    }

    #[test]
    fn histogram_extremes_land_in_end_buckets() {
        let _g = crate::test_mode_lock();
        crate::set_mode(ObsMode::Counters);
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(HISTOGRAM_BUCKETS - 1), 1);
    }
}
