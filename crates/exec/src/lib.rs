//! Deterministic scoped worker-pool executor — the parallel substrate of
//! the whole training path.
//!
//! The paper's baselines are *tuned multi-threaded* TBB/OpenMP
//! implementations (§6: "thread-level parallelism (multi-threading),
//! achieving 13.4× higher performance than the built-in PyTorch
//! implementations"), and every hot kernel in this reproduction — GEMM,
//! the dense noisy update, Gaussian fills, LazyDP's pending-noise flush —
//! runs on the [`Executor`] defined here.
//!
//! # Determinism contract
//!
//! Work is split by **stable chunk index**, never by thread scheduling:
//! a parallel region over `n` items with chunk length `c` always
//! produces the chunks `[0, c)`, `[c, 2c)`, … regardless of the thread
//! count, and each chunk's result must be a pure function of its chunk
//! index and inputs. Threads only decide *which worker* runs a chunk,
//! never *what* the chunk computes, so results are bitwise identical for
//! any thread count (DESIGN.md invariant #4). Chunks write to disjoint
//! sub-slices, which safe Rust enforces at compile time.
//!
//! # Thread-count configuration
//!
//! The process-wide default (used by `lazydp_tensor`'s GEMMs and as the
//! default for `DpConfig::threads`) is resolved once from the
//! `LAZYDP_THREADS` environment variable, falling back to
//! [`std::thread::available_parallelism`]. Benchmarks and tests may
//! override it with [`set_global_threads`].
//!
//! # Example
//!
//! ```
//! use lazydp_exec::Executor;
//!
//! // Chunk-addressed work: each element's value depends only on its
//! // chunk index, so any executor width produces identical bytes.
//! let run = |threads: usize| {
//!     let mut data = vec![0u64; 1000];
//!     Executor::new(threads).par_for(&mut data, 64, |chunk_idx, chunk| {
//!         for v in chunk.iter_mut() {
//!             *v = chunk_idx as u64;
//!         }
//!     });
//!     data
//! };
//! assert_eq!(run(1), run(8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Threads from `LAZYDP_THREADS` (if set to a positive integer) or the
/// machine's available parallelism.
#[must_use]
pub fn detect_threads() -> usize {
    std::env::var("LAZYDP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(available_threads)
}

/// The machine's available parallelism (1 if it cannot be queried).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// 0 = not yet resolved; resolved lazily by [`global_threads`].
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide default thread count. First call resolves it via
/// [`detect_threads`]; later calls return the cached (or
/// [`set_global_threads`]-overridden) value.
#[must_use]
pub fn global_threads() -> usize {
    let t = GLOBAL_THREADS.load(Ordering::Relaxed);
    if t != 0 {
        return t;
    }
    let detected = detect_threads();
    // compare_exchange so a concurrent set_global_threads (or another
    // initializer) is never clobbered by this lazy init.
    match GLOBAL_THREADS.compare_exchange(0, detected, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => detected,
        Err(current) => current,
    }
}

/// Overrides the process-wide default thread count (thread-scaling
/// benchmarks sweep this). Safe to change at any time: chunk-addressed
/// work is bitwise identical for any thread count.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn set_global_threads(threads: usize) {
    assert!(threads > 0, "need at least one thread");
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// An executor using the process-wide default thread count.
#[must_use]
pub fn global() -> Executor {
    Executor::new(global_threads())
}

/// A scoped worker pool of a fixed width.
///
/// Creating one is free (no threads are kept alive between parallel
/// regions); each [`par_for`](Self::par_for) /
/// [`par_map_chunks`](Self::par_map_chunks) call spawns its workers
/// under [`std::thread::scope`] and joins them before returning, so
/// borrowed data needs no `'static` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor running work on `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        Self { threads }
    }

    /// A single-threaded executor (runs everything inline).
    #[must_use]
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor would ever spawn workers (`threads > 1`).
    /// Kernels with an allocation-free inline path (e.g. the noise-plan
    /// sampler) use this to stay on caller-owned scratch when no
    /// parallelism is available anyway.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements
    /// (the last may be shorter) and calls `f(chunk_index, chunk)` for
    /// each, distributing chunks over the workers dynamically.
    ///
    /// Chunk boundaries depend only on `(data.len(), chunk_len)` — not
    /// on the thread count — so as long as `f` is a pure function of
    /// `(chunk_index, chunk contents)`, the result is bitwise identical
    /// for any executor width.
    ///
    /// Runs inline (no threads spawned) when the executor is sequential
    /// or there is only one chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`, or propagates a panic from `f`.
    #[expect(
        clippy::disallowed_methods,
        reason = "D3: the executor is the one sanctioned home of raw threads"
    )]
    pub fn par_for<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk length must be positive");
        if data.is_empty() {
            return;
        }
        let n_chunks = data.len().div_ceil(chunk_len);
        // Occupancy metrics: one region, `n_chunks` chunks. Recorded
        // before the inline/parallel fork so single-threaded runs show
        // the same region shape (write-only; see lazydp_obs rule O1).
        lazydp_obs::metrics().exec.par_regions.incr();
        lazydp_obs::metrics().exec.par_chunks.add(n_chunks as u64);
        lazydp_obs::metrics()
            .exec
            .chunks_per_region
            .record(n_chunks as u64);
        if self.threads == 1 || n_chunks == 1 {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        let queue = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        let queue = &queue;
        let f = &f;
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n_chunks) {
                scope.spawn(move || loop {
                    // Hold the lock only for the pop, not the work.
                    let next = queue.lock().expect("executor queue poisoned").next();
                    match next {
                        Some((i, chunk)) => f(i, chunk),
                        None => break,
                    }
                });
            }
        });
    }

    /// Maps `f` over consecutive chunks of `items` (chunk length
    /// `chunk_len`), returning one result per chunk in chunk order.
    ///
    /// Same determinism contract as [`par_for`](Self::par_for).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`, or propagates a panic from `f`.
    pub fn par_map_chunks<T, R, F>(&self, items: &[T], chunk_len: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        assert!(chunk_len > 0, "chunk length must be positive");
        let n_chunks = items.len().div_ceil(chunk_len);
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(n_chunks, || None);
        self.par_for(&mut results, 1, |i, slot| {
            let lo = i * chunk_len;
            let hi = (lo + chunk_len).min(items.len());
            slot[0] = Some(f(i, &items[lo..hi]));
        });
        results
            .into_iter()
            .map(|r| r.expect("every chunk produced a result"))
            .collect()
    }
}

/// Runs `a` on a freshly spawned scoped thread while `b` runs on the
/// calling thread, then joins and returns both results.
///
/// This is the **only** sanctioned way to overlap two pieces of work that
/// are not chunk-addressed (e.g. LazyDP's pending-noise flush for step
/// `t+1` overlapped with step `t`'s clipped aggregation). Keeping the
/// raw `std::thread::scope` here, inside the executor crate, means
/// clippy (rule D3) can verify that no other crate spawns threads —
/// every parallel region in the training path is either chunk-addressed
/// ([`Executor::par_for`] / [`Executor::par_map_chunks`]) or an explicit
/// two-sided overlap whose sides touch disjoint state.
///
/// Determinism: `overlap(a, b)` computes exactly `(a(), b())` — each
/// side runs once, to completion, and the results are returned in a
/// fixed order. Scheduling affects only wall-clock interleaving, never
/// values, provided the two sides share no mutable state (which safe
/// Rust enforces at the closure captures).
///
/// # Panics
///
/// Propagates a panic from either closure.
#[expect(
    clippy::disallowed_methods,
    reason = "D3: the executor is the one sanctioned home of raw threads"
)]
pub fn overlap<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    std::thread::scope(|s| {
        let worker = s.spawn(a);
        let rb = b();
        // Re-raise the worker's own payload instead of replacing it with
        // a generic message: callers (the crash-recovery harness in
        // particular) downcast the payload to identify injected kills.
        let ra = match worker.join() {
            Ok(ra) => ra,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_returns_both_results_in_order() {
        let xs = [1u64, 2, 3];
        let (a, b) = overlap(|| xs.iter().copied().max().unwrap_or(0), || xs.len());
        assert_eq!((a, b), (3, 3));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn overlap_propagates_worker_panic_payload() {
        let _ = overlap(|| panic!("boom"), || 1u32);
    }

    #[test]
    fn par_for_visits_every_chunk_once_with_stable_indices() {
        let mut data = vec![0u64; 1000];
        Executor::new(4).par_for(&mut data, 64, |i, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + i as u64;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (k / 64) as u64, "element {k}");
        }
    }

    #[test]
    fn par_for_is_bitwise_identical_across_thread_counts() {
        let run = |threads: usize| -> Vec<f32> {
            let mut data = vec![0.0f32; 4097];
            Executor::new(threads).par_for(&mut data, 100, |i, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    // A value that depends on the chunk index and the
                    // element's position — the chunk-addressed pattern.
                    *v = (i as f32).sin() + (k as f32) * 1e-3;
                }
            });
            data
        };
        let base = run(1);
        for threads in [2usize, 3, 7, 16] {
            assert_eq!(base, run(threads), "thread count {threads}");
        }
    }

    #[test]
    fn par_for_handles_short_last_chunk_and_tiny_inputs() {
        let mut data = vec![0usize; 10];
        Executor::new(8).par_for(&mut data, 3, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i;
            }
        });
        assert_eq!(data, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
        let mut empty: Vec<usize> = Vec::new();
        Executor::new(8).par_for(&mut empty, 3, |_, _| unreachable!());
    }

    #[test]
    fn par_map_chunks_returns_results_in_chunk_order() {
        let items: Vec<u32> = (0..100).collect();
        let sums =
            Executor::new(3).par_map_chunks(&items, 7, |i, chunk| (i, chunk.iter().sum::<u32>()));
        assert_eq!(sums.len(), 15);
        for (k, &(i, s)) in sums.iter().enumerate() {
            assert_eq!(i, k);
            let expect: u32 = items[k * 7..(k * 7 + 7).min(100)].iter().sum();
            assert_eq!(s, expect);
        }
        let none: Vec<u32> = Vec::new();
        let empty: Vec<u32> = Executor::new(3).par_map_chunks(&none, 7, |_, c| c.len() as u32);
        assert!(empty.is_empty());
    }

    #[test]
    fn more_threads_than_chunks_is_fine() {
        let mut data = vec![0u8; 5];
        Executor::new(32).par_for(&mut data, 2, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(data, vec![9; 5]);
    }

    #[test]
    fn global_threads_resolves_and_can_be_overridden() {
        let initial = global_threads();
        assert!(initial > 0);
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(global().threads(), 3);
        set_global_threads(initial);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Executor::new(0);
    }

    #[test]
    #[should_panic(expected = "chunk length")]
    fn zero_chunk_len_rejected() {
        let mut data = vec![0u8; 4];
        Executor::new(2).par_for(&mut data, 0, |_, _| {});
    }
}
