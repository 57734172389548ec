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
//! # Who runs the chunks
//!
//! A parallel region draws its chunks from one shared queue. The calling
//! thread takes chunks from it too, so a region of width `w` over `n`
//! chunks spawns only `min(w, n) − 1` scoped workers, and a sequential
//! executor or a one-chunk region spawns none. The caller's thread-local
//! scratch (the GEMM pack buffers of `lazydp_tensor`) therefore persists
//! from one region to the next; a spawned worker's scratch lives only as
//! long as its region. [`Executor::overlap`] follows the same width: its
//! worker side gets a thread of its own only on a multi-width executor,
//! and a width-1 executor runs both sides inline. The workers are born and joined per region under
//! [`std::thread::scope`]: a parked pool would have to lend borrowed
//! chunks to `'static` threads, which safe Rust cannot express, and
//! every crate root forbids `unsafe`.
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
/// regions). Each [`par_for`](Self::par_for) call runs chunks on the
/// calling thread plus up to `threads − 1` workers it spawns under
/// [`std::thread::scope`] and joins before returning, so borrowed data
/// needs no `'static` bound.
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

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements
    /// (the last may be shorter) and calls `f(chunk_index, chunk)` for
    /// each, distributing chunks dynamically over the calling thread and
    /// `min(threads, n_chunks) − 1` spawned workers.
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
    /// Panics if `chunk_len == 0`, or propagates a panic from `f` with
    /// its own payload.
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
        let run = || loop {
            // Hold the lock only for the pop, not the work.
            let next = queue.lock().expect("executor queue poisoned").next();
            match next {
                Some((i, chunk)) => f(i, chunk),
                None => break,
            }
        };
        let run = &run;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..self.threads.min(n_chunks))
                .map(|_| scope.spawn(run))
                .collect();
            run();
            // Re-raise a worker's own payload: left to the scope, it
            // would become a generic "a scoped thread panicked".
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Runs `worker` beside `caller` and returns both results. A
    /// multi-width executor runs `worker` on one freshly spawned scoped
    /// thread while `caller` runs on the calling thread; a width-1
    /// executor spawns nothing and runs `caller`, then `worker`, on the
    /// calling thread.
    ///
    /// This is the **only** sanctioned way to overlap two pieces of work
    /// that are not chunk-addressed (LazyDP's lookahead flush beside the
    /// clipped gradient). Keeping the raw `std::thread::scope` here,
    /// inside the executor crate, means clippy (rule D3) can verify that
    /// no other crate spawns threads: every parallel region in the
    /// training path is either chunk-addressed
    /// ([`par_for`](Self::par_for)) or an explicit two-sided overlap
    /// whose sides touch disjoint state.
    ///
    /// Determinism: each side runs once, to completion, and the results
    /// come back in a fixed order. Scheduling affects only wall-clock
    /// interleaving, never values, provided the two sides share no
    /// mutable state (which safe Rust enforces at the closure captures)
    /// or share it only through work claimed from one queue, each item
    /// a pure function of itself.
    ///
    /// # Panics
    ///
    /// Propagates a panic from either side with its own payload.
    #[expect(
        clippy::disallowed_methods,
        reason = "D3: the executor is the one sanctioned home of raw threads"
    )]
    pub fn overlap<A, B, RA, RB>(&self, worker: A, caller: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB,
        RA: Send,
    {
        if self.threads == 1 {
            let rb = caller();
            return (worker(), rb);
        }
        std::thread::scope(|s| {
            let worker = s.spawn(worker);
            let rb = caller();
            // Re-raise the worker's own payload instead of replacing it
            // with a generic message: callers (the crash-recovery
            // harness in particular) downcast the payload to identify
            // injected kills. A panicking `caller` unwinds out of the
            // scope with its own payload once the worker has joined.
            match worker.join() {
                Ok(ra) => (ra, rb),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread each side of an `overlap` ran on, in the order the
    /// sides ran.
    fn overlap_sides(threads: usize) -> Vec<(&'static str, std::thread::ThreadId)> {
        let ran = Mutex::new(Vec::new());
        let side = |name| {
            ran.lock()
                .unwrap()
                .push((name, std::thread::current().id()))
        };
        let (a, b) = Executor::new(threads).overlap(|| side("worker"), || side("caller"));
        assert_eq!((a, b), ((), ()));
        ran.into_inner().unwrap()
    }

    /// The payload of an `overlap` whose `worker` or `caller` side panics.
    fn overlap_panic(threads: usize, worker_fails: bool) -> String {
        let caught = std::panic::catch_unwind(|| {
            Executor::new(threads).overlap(
                || assert!(!worker_fails, "worker failed"),
                || assert!(worker_fails, "caller failed"),
            )
        });
        let payload = caught.expect_err("one side must panic");
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .expect("a literal panic message")
    }

    #[test]
    fn overlap_returns_both_results_in_order() {
        let xs = [1u64, 2, 3];
        for threads in [1usize, 2] {
            let (a, b) = Executor::new(threads)
                .overlap(|| xs.iter().copied().max().unwrap_or(0), || xs.len());
            assert_eq!((a, b), (3, 3), "width {threads}");
        }
    }

    #[test]
    fn a_width_1_overlap_runs_the_caller_then_the_worker_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert_eq!(overlap_sides(1), vec![("caller", me), ("worker", me)]);
    }

    #[test]
    fn a_wider_overlap_runs_the_worker_on_a_thread_of_its_own() {
        let me = std::thread::current().id();
        let sides = overlap_sides(2);
        let on = |name| sides.iter().find(|&&(n, _)| n == name).map(|&(_, id)| id);
        assert_eq!(on("caller"), Some(me));
        assert!(on("worker").is_some_and(|id| id != me));
    }

    #[test]
    fn overlap_surfaces_either_sides_own_payload() {
        for threads in [1usize, 2] {
            for (worker_fails, want) in [(true, "worker failed"), (false, "caller failed")] {
                assert_eq!(
                    overlap_panic(threads, worker_fails),
                    want,
                    "width {threads}"
                );
            }
        }
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
    fn more_threads_than_chunks_is_fine() {
        let mut data = vec![0u8; 5];
        Executor::new(32).par_for(&mut data, 2, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = 9;
            }
        });
        assert_eq!(data, vec![9; 5]);
    }

    /// The payload of a region whose chunk `bad` panics.
    fn region_panic(threads: usize, bad: usize) -> String {
        let mut data = vec![0u8; 40];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Executor::new(threads).par_for(&mut data, 4, |i, _| {
                assert!(i != bad, "chunk {i} failed");
            });
        }));
        let payload = caught.expect_err("the region must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("a formatted panic message")
    }

    #[test]
    fn a_panicking_chunk_surfaces_its_own_payload() {
        // Chunk 0 is usually the caller's; the last (9) often a worker's.
        for threads in [2usize, 3] {
            for bad in [0usize, 9] {
                assert_eq!(
                    region_panic(threads, bad),
                    format!("chunk {bad} failed"),
                    "width {threads}"
                );
            }
        }
    }

    #[test]
    fn a_region_runs_on_at_most_its_width_of_threads() {
        for threads in [1usize, 2, 3] {
            let mut ids = vec![None; 64];
            Executor::new(threads).par_for(&mut ids, 1, |_, slot| {
                slot[0] = Some(std::thread::current().id());
                // Long enough that every thread of the region gets chunks.
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            let mut distinct = Vec::new();
            for id in ids {
                let id = id.expect("every chunk ran");
                if !distinct.contains(&id) {
                    distinct.push(id);
                }
            }
            assert!(
                distinct.len() <= threads,
                "width {threads}: {} threads",
                distinct.len()
            );
        }
    }

    #[test]
    fn a_region_nested_in_a_chunk_completes() {
        let mut data = vec![0u64; 12];
        Executor::new(2).par_for(&mut data, 4, |i, chunk| {
            Executor::new(2).par_for(chunk, 1, |k, v| v[0] = (i * 4 + k) as u64);
        });
        assert_eq!(data, (0..12).collect::<Vec<u64>>());
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
