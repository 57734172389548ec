//! Two-phase noise plans: the data-parallel restructuring of LazyDP's
//! pending-noise flush.
//!
//! Algorithm 1's per-row flush interleaves two very different kinds of
//! work: *bookkeeping* (reading and resetting [`HistoryTable`] delays —
//! serial, branchy, cheap) and *noise generation* (Box–Muller sampling
//! and accumulation — the §4.3 compute bottleneck, embarrassingly
//! parallel). A noise plan splits them:
//!
//! 1. **Plan (serial):** the row set is walked once and each row's
//!    pending delay count is taken from the history. The history is
//!    only ever touched here, so it needs no synchronization.
//! 2. **Sample (parallel):** the planned rows' noise is accumulated on
//!    the [`lazydp_exec::Executor`] in fixed-size entry chunks
//!    ([`sample_entries_into`]). Noise is addressed by
//!    `(table, row, iter)` — never by chunk or thread — so the result is
//!    bitwise identical for any thread count (DESIGN.md invariant #4).
//!
//! The per-step lookahead flush (Algorithm 1 lines 12–21) is
//! [`LookaheadFlush`]: plan the next batch's rows, sample, then merge
//! into the step's sparse update. The release flush needs no plan: it
//! sweeps the table with phase 2's row body, `add_pending_noise`.

use crate::ans::aggregated_std;
use crate::history::HistoryTable;
use lazydp_dpsgd::noise_update::noisy_row;
use lazydp_dpsgd::KernelCounters;
use lazydp_embedding::SparseGrad;
use lazydp_exec::Executor;
use lazydp_rng::{RowNoise, NOISE_BLOCK};

/// Plan entries per executor chunk in the sampling phase. Fixed (never
/// derived from the thread count) so chunk addressing is thread-count
/// independent.
const ENTRIES_PER_CHUNK: usize = 32;

/// One row awaiting its pending noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoisePlanEntry {
    /// The embedding row.
    pub row: u64,
    /// How many deferred noise updates it owes (≥ 1).
    pub delays: u64,
}

/// Adds the pending noise of row `row`, owing `delays` updates at
/// `iter`, into the `dim`-wide accumulator `acc` (gradient units), per
/// Algorithm 1: with ANS one draw `~ N(0, delays·σ²C²/B²)` (line 38);
/// without, the `delays` separate draws addressed by the iteration whose
/// noise they are, in ascending order — the exact values eager DP-SGD
/// would have drawn (lines 32–35).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn add_pending_noise<N: RowNoise>(
    noise: &mut N,
    table_id: u32,
    row: u64,
    iter: u64,
    delays: u64,
    per_step_std: f32,
    ans: bool,
    acc: &mut [f32],
    block: &mut [f32; NOISE_BLOCK],
) {
    let (std, iters) = if ans {
        (aggregated_std(per_step_std, delays), iter..=iter)
    } else {
        (per_step_std, iter - delays + 1..=iter)
    };
    for k_iter in iters {
        noisy_row(noise, table_id, row, k_iter, acc, block, |_, acc, n| {
            for (a, &n) in acc.iter_mut().zip(n) {
                *a += std * n;
            }
        });
    }
}

/// Phase 2: samples the pending noise of every row in `entries`
/// data-parallel on `exec` into `acc`, the caller-owned `entries.len() ×
/// dim` row-major noise block in plan order (gradient units — callers
/// scale by −η when applying), each entry's through
/// `add_pending_noise`.
///
/// Each chunk draws through its own clone of the source, which draws
/// the same values because a [`RowNoise`] source is a pure function of
/// the address, and through one stack block ([`noisy_row`]), so no
/// chunk body allocates or zeroes per-row scratch; at executor width 1
/// the phase allocates nothing beyond `acc`.
#[allow(clippy::too_many_arguments)]
pub fn sample_entries_into<N>(
    table_id: u32,
    iter: u64,
    entries: &[NoisePlanEntry],
    dim: usize,
    per_step_std: f32,
    ans: bool,
    noise: &N,
    exec: &Executor,
    counters: &mut KernelCounters,
    acc: &mut Vec<f32>,
) where
    N: RowNoise,
{
    acc.clear();
    acc.resize(entries.len() * dim, 0.0);
    let draws: u64 = entries.iter().map(|e| if ans { 1 } else { e.delays }).sum();
    counters.gaussian_samples += draws * dim as u64;
    if dim == 0 {
        return;
    }
    exec.par_for(acc.as_mut_slice(), ENTRIES_PER_CHUNK * dim, |c, chunk| {
        let mut noise = noise.clone();
        let mut block = [0.0f32; NOISE_BLOCK];
        let first = c * ENTRIES_PER_CHUNK;
        for (e, out) in entries[first..].iter().zip(chunk.chunks_mut(dim)) {
            add_pending_noise(
                &mut noise,
                table_id,
                e.row,
                iter,
                e.delays,
                per_step_std,
                ans,
                out,
                &mut block,
            );
        }
    });
}

/// One table's lookahead flush (Algorithm 1 lines 12–21): every pending
/// row the *next* batch will gather, with its sampled noise, ready to
/// merge into the step's sparse update. Owned by the optimizer, one per
/// table, and refilled every step, so a warm flush allocates nothing.
///
/// [`fill`](Self::fill) needs only the next-batch targets, the history
/// and the noise source — never the gradients — which is what lets
/// `LazyDpOptimizer::step` run it concurrently with the dense
/// forward/backward; [`merge_into`](Self::merge_into) lands the result
/// once the gradients exist.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LookaheadFlush {
    entries: Vec<NoisePlanEntry>,
    noise: Vec<f32>,
    dim: usize,
}

impl LookaheadFlush {
    /// Plans and samples the flush of one table: takes the delays of
    /// every row in `targets` (the ascending, distinct rows the next
    /// iteration gathers — its
    /// [`BagIndices::unique_rows`](lazydp_embedding::bag::BagIndices::unique_rows))
    /// from `history`, then samples the pending rows' noise with
    /// [`sample_entries_into`]. Whatever a previous `fill` left behind
    /// is discarded.
    #[allow(clippy::too_many_arguments)]
    pub fn fill<N>(
        &mut self,
        table_id: u32,
        iter: u64,
        targets: &[u64],
        history: &mut HistoryTable,
        dim: usize,
        per_step_std: f32,
        ans: bool,
        noise: &N,
        exec: &Executor,
        counters: &mut KernelCounters,
    ) where
        N: RowNoise,
    {
        self.dim = dim;
        self.entries.clear();
        let trainer = &lazydp_obs::metrics().trainer;
        for &row in targets {
            counters.history_reads += 1;
            counters.history_writes += 1;
            let delays = history.take_delays(row, iter);
            if delays == 0 {
                continue;
            }
            self.entries.push(NoisePlanEntry { row, delays });
            trainer.noise_plan_rows.incr();
            trainer.pending_depth.record(delays);
        }
        sample_entries_into(
            table_id,
            iter,
            &self.entries,
            dim,
            per_step_std,
            ans,
            noise,
            exec,
            counters,
            &mut self.noise,
        );
    }

    /// Accumulates the flushed noise into a **coalesced** sparse update
    /// (Algorithm 1 lines 17–21): rows the gradient already touches get
    /// their noise added in place; rows it does not are appended as
    /// noise-only entries, ascending, after the gradient's rows.
    ///
    /// Both row lists ascend, so one cursor walks the gradient's rows
    /// while the flush's rows go by.
    ///
    /// # Panics
    ///
    /// Panics if `update`'s dimension differs from the last
    /// [`fill`](Self::fill)'s.
    pub fn merge_into(&self, update: &mut SparseGrad) {
        assert_eq!(update.dim(), self.dim, "flush/update dim mismatch");
        if self.dim == 0 || self.entries.is_empty() {
            return;
        }
        let grad_len = update.len();
        let mut cursor = 0;
        for (e, nv) in self.entries.iter().zip(self.noise.chunks_exact(self.dim)) {
            let rows = &update.indices()[..grad_len];
            cursor += rows[cursor..].partition_point(|&r| r < e.row);
            let slot = if rows.get(cursor) == Some(&e.row) {
                cursor
            } else {
                let _ = update.push_zeros(e.row);
                update.len() - 1
            };
            for (w, &n) in update.entry_mut(slot).iter_mut().zip(nv.iter()) {
                *w += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::fill_standard_normal;

    fn history_at(rows: usize, flushed: &[(u64, u64)]) -> HistoryTable {
        let mut h = HistoryTable::new(rows);
        for &(row, iter) in flushed {
            let _ = h.take_delays(row, iter);
        }
        h
    }

    fn entries_of(pairs: &[(u64, u64)]) -> Vec<NoisePlanEntry> {
        pairs
            .iter()
            .map(|&(row, delays)| NoisePlanEntry { row, delays })
            .collect()
    }

    /// `sample_entries_into` into a fresh buffer.
    #[allow(clippy::too_many_arguments)]
    fn sample<N: RowNoise>(
        table_id: u32,
        iter: u64,
        entries: &[NoisePlanEntry],
        dim: usize,
        std: f32,
        ans: bool,
        noise: &N,
        exec: &Executor,
        counters: &mut KernelCounters,
    ) -> Vec<f32> {
        let mut acc = Vec::new();
        sample_entries_into(
            table_id, iter, entries, dim, std, ans, noise, exec, counters, &mut acc,
        );
        acc
    }

    #[test]
    fn fill_and_merge_match_a_hand_rolled_per_row_flush() {
        // Algorithm 1 lines 13–21 written out row by row (take_delays +
        // a staged fill of the row's counter stream + add) must agree
        // bitwise with fill + merge_into — same update, same counters,
        // same history afterwards — with and without ANS, inline and on
        // a multi-width executor.
        let rows = 40usize;
        let dim = 6usize;
        let iter = 9u64;
        let std = 0.3f32;
        let targets: Vec<u64> = vec![0, 3, 7, 8, 13, 21, 26, 34, 39];
        let flushed: &[(u64, u64)] = &[(3, 9), (8, 4), (21, 7)];
        let grad_rows: &[u64] = &[3, 7, 13, 30];
        let mk_update = || {
            let mut g = SparseGrad::new(dim);
            for &r in grad_rows {
                let e = g.push_zeros(r);
                e.fill(0.5 + r as f32);
            }
            let _ = g.coalesce();
            g
        };
        let noise = CounterNoise::new(17);

        for ans in [true, false] {
            let mut ref_hist = history_at(rows, flushed);
            let mut ref_c = KernelCounters::new();
            let mut want = mk_update().to_dense_map();
            let mut buf = vec![0.0f32; dim];
            for &row in &targets {
                ref_c.history_reads += 1;
                ref_c.history_writes += 1;
                let delays = ref_hist.take_delays(row, iter);
                if delays == 0 {
                    continue;
                }
                let mut pending = vec![0.0f32; dim];
                let draws: Vec<(u64, f32)> = if ans {
                    vec![(iter, aggregated_std(std, delays))]
                } else {
                    (iter - delays + 1..=iter).map(|k| (k, std)).collect()
                };
                for &(k, scale) in &draws {
                    fill_standard_normal(&mut noise.stream_for(2, row, k), &mut buf);
                    for (p, &n) in pending.iter_mut().zip(&buf) {
                        *p += scale * n;
                    }
                }
                ref_c.gaussian_samples += (draws.len() * dim) as u64;
                let entry = want.entry(row).or_insert_with(|| vec![0.0; dim]);
                for (w, &p) in entry.iter_mut().zip(&pending) {
                    *w += p;
                }
            }

            for width in [1usize, 3] {
                let mut hist = history_at(rows, flushed);
                let mut update = mk_update();
                let mut c = KernelCounters::new();
                let mut flush = LookaheadFlush::default();
                flush.fill(
                    2,
                    iter,
                    &targets,
                    &mut hist,
                    dim,
                    std,
                    ans,
                    &noise,
                    &Executor::new(width),
                    &mut c,
                );
                flush.merge_into(&mut update);
                assert_eq!(update.to_dense_map(), want, "ans={ans} width={width}");
                assert_eq!(c, ref_c, "counters, ans={ans} width={width}");
                assert_eq!(hist, ref_hist, "history, ans={ans} width={width}");
            }
        }
    }

    #[test]
    fn a_refilled_flush_drops_the_previous_steps_entries() {
        let dim = 2usize;
        let mut h = history_at(8, &[(2, 5)]); // row 2 already flushed at 5
        let noise = CounterNoise::new(3);
        let exec = Executor::new(1);
        let mut c = KernelCounters::new();
        let mut flush = LookaheadFlush::default();
        flush.fill(
            1,
            5,
            &[1, 2, 4],
            &mut h,
            dim,
            1.0,
            true,
            &noise,
            &exec,
            &mut c,
        );
        // Row 2 owes nothing at iter 5; rows 1 and 4 owe 5 each.
        assert_eq!(flush.entries, entries_of(&[(1, 5), (4, 5)]));
        assert_eq!((c.history_reads, c.history_writes), (3, 3));

        // Next step, other rows: nothing of the first fill survives, and
        // a row absent from the gradient is appended as a noise-only
        // entry.
        flush.fill(1, 6, &[2, 6], &mut h, dim, 1.0, true, &noise, &exec, &mut c);
        assert_eq!(flush.entries, entries_of(&[(2, 1), (6, 6)]));
        let mut update = SparseGrad::from_entries(dim, vec![(2, vec![1.0, 1.0])]);
        let _ = update.coalesce();
        flush.merge_into(&mut update);
        assert_eq!(update.indices(), &[2, 6]);

        // No targets at all: an empty flush merges nothing.
        flush.fill(1, 7, &[], &mut h, dim, 1.0, true, &noise, &exec, &mut c);
        assert!(flush.entries.is_empty());
        let before = update.to_dense_map();
        flush.merge_into(&mut update);
        assert_eq!(update.to_dense_map(), before);
    }

    #[test]
    fn sample_entries_is_thread_count_independent() {
        let entries: Vec<NoisePlanEntry> = (0..100u64)
            .map(|k| NoisePlanEntry {
                row: k * 3,
                delays: 1 + (k % 7),
            })
            .collect();
        let noise = CounterNoise::new(11);
        for ans in [true, false] {
            let mut c = KernelCounters::new();
            let exec = Executor::new(1);
            let base = sample(2, 9, &entries, 8, 0.25, ans, &noise, &exec, &mut c);
            for threads in [2usize, 3, 8] {
                let mut c2 = KernelCounters::new();
                let exec = Executor::new(threads);
                let got = sample(2, 9, &entries, 8, 0.25, ans, &noise, &exec, &mut c2);
                assert_eq!(base, got, "ans={ans}, threads={threads}");
                assert_eq!(c.gaussian_samples, c2.gaussian_samples);
            }
        }
    }

    #[test]
    fn sample_counts_draws_per_algorithm_variant() {
        let entries = entries_of(&[(0, 4), (7, 2)]);
        let noise = CounterNoise::new(1);
        let exec = Executor::new(1);
        let mut c = KernelCounters::new();
        let _ = sample(0, 5, &entries, 3, 0.1, true, &noise, &exec, &mut c);
        assert_eq!(c.gaussian_samples, 2 * 3, "ANS: one draw per row");
        let mut c = KernelCounters::new();
        let _ = sample(0, 5, &entries, 3, 0.1, false, &noise, &exec, &mut c);
        assert_eq!(c.gaussian_samples, (4 + 2) * 3, "w/o ANS: delays draws");
    }

    #[test]
    fn without_ans_draws_the_eager_iteration_noise() {
        // A row with 2 pending delays at iter 5 must receive exactly the
        // noise of iterations 4 and 5 — what eager DP-SGD would have
        // drawn.
        let entries = entries_of(&[(3, 2)]);
        let mut noise = CounterNoise::new(5);
        let exec = Executor::new(1);
        let mut c = KernelCounters::new();
        let got = sample(1, 5, &entries, 4, 1.0, false, &noise, &exec, &mut c);
        let mut expect = vec![0.0f32; 4];
        let mut buf = vec![0.0f32; 4];
        for it in [4u64, 5] {
            noise.fill_unit(1, 3, it, &mut buf);
            for (e, &n) in expect.iter_mut().zip(buf.iter()) {
                *e += n;
            }
        }
        assert_eq!(got, expect);
    }
}
