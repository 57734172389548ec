//! Two-phase noise plans: the data-parallel restructuring of LazyDP's
//! pending-noise flush.
//!
//! Algorithm 1's per-row flush interleaves two very different kinds of
//! work: *bookkeeping* (reading and resetting [`HistoryTable`] delays —
//! serial, branchy, cheap) and *noise generation* (Box–Muller sampling
//! and accumulation — the §4.3 compute bottleneck, embarrassingly
//! parallel). A [`NoisePlan`] splits them:
//!
//! 1. **Plan (serial):** the deduped touched-row set is walked once;
//!    each row's pending delay count is taken from the history and the
//!    row is assigned a slot in the sparse update. The history is only
//!    ever touched here, so it needs no synchronization.
//! 2. **Sample (parallel):** the planned rows' noise is accumulated on
//!    the [`lazydp_exec::Executor`] in fixed-size entry chunks. Noise
//!    is addressed by `(table, row, iter)` — never by chunk or thread —
//!    so the result is bitwise identical for any thread count
//!    (DESIGN.md invariant #4).
//!
//! Both the per-step flush ([`NoisePlan::plan_next_rows`]) and the
//! release-time flush ([`NoisePlan::for_all_rows`] in
//! `LazyDpOptimizer::finalize_model`) run on this machinery.

use crate::ans::aggregated_std;
use crate::history::{HistoryTable, ShardedHistory};
use lazydp_dpsgd::KernelCounters;
use lazydp_embedding::{ShardSpec, SparseGrad};
use lazydp_exec::Executor;
use lazydp_rng::RowNoise;

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
    /// The entry index in the sparse update this noise lands in (for
    /// [`NoisePlan::for_all_rows`] plans: the plan position itself).
    pub slot: usize,
}

/// The rows of one embedding table whose pending noise must land now,
/// with their delay counts already taken from the [`HistoryTable`].
#[derive(Debug, Clone)]
pub struct NoisePlan {
    entries: Vec<NoisePlanEntry>,
}

impl NoisePlan {
    /// Phase 1 for a training step (Algorithm 1 lines 13–21): takes the
    /// delays of every row in `targets` (the deduped rows the *next*
    /// iteration gathers) and assigns each pending row a slot in
    /// `update`, appending zero entries for rows the gradient did not
    /// touch. Plans into a caller-owned entry buffer (cleared and
    /// refilled), so the per-step flush plans without allocating. Pair
    /// with [`sample_entries_into`](Self::sample_entries_into).
    ///
    /// `update` must be coalesced (sorted, duplicate-free) on entry and
    /// `targets` must be sorted and duplicate-free
    /// ([`dedup_indices`](lazydp_embedding::sparse::dedup_indices)
    /// output).
    pub fn plan_next_rows(
        targets: &[u64],
        iter: u64,
        history: &mut HistoryTable,
        update: &mut SparseGrad,
        counters: &mut KernelCounters,
        entries: &mut Vec<NoisePlanEntry>,
    ) {
        // The coalesced prefix stays binary-searchable; rows appended
        // below are new (targets are deduped), so they never need to be
        // found again within this plan.
        let sorted_len = update.len();
        entries.clear();
        for &row in targets {
            counters.history_reads += 1;
            counters.history_writes += 1;
            let delays = history.take_delays(row, iter);
            if delays == 0 {
                continue;
            }
            let slot = match update.indices()[..sorted_len].binary_search(&row) {
                Ok(i) => i,
                Err(_) => {
                    let i = update.len();
                    let _ = update.push_zeros(row);
                    i
                }
            };
            entries.push(NoisePlanEntry { row, delays, slot });
            lazydp_obs::metrics().trainer.noise_plan_rows.incr();
            lazydp_obs::metrics().trainer.pending_depth.record(delays);
        }
    }

    /// Phase 1 for the release-time flush (threat model §3): scans all
    /// `rows` of the table, planning every row with pending noise. Slots
    /// are the plan positions themselves (the caller applies noise
    /// straight to table rows, not to a sparse update).
    #[must_use]
    pub fn for_all_rows(
        iter: u64,
        rows: usize,
        history: &mut HistoryTable,
        counters: &mut KernelCounters,
    ) -> Self {
        debug_assert_eq!(rows, history.rows(), "history covers the table");
        Self::for_all_rows_of_shard(iter, ShardSpec::new(1), 0, history, counters)
    }

    /// [`for_all_rows`](Self::for_all_rows) over one shard of a
    /// hash-partitioned history: scans the shard's local rows and plans
    /// entries under their **global** row ids, so the sampled noise is
    /// addressed identically to the 1-shard path. With
    /// `ShardSpec::new(1)` this *is* `for_all_rows`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range for `spec`.
    #[must_use]
    pub fn for_all_rows_of_shard(
        iter: u64,
        spec: ShardSpec,
        shard: usize,
        history: &mut HistoryTable,
        counters: &mut KernelCounters,
    ) -> Self {
        let mut entries = Vec::new();
        for local in 0..history.rows() as u64 {
            counters.history_reads += 1;
            let delays = history.take_delays(local, iter);
            if delays == 0 {
                continue;
            }
            counters.history_writes += 1;
            entries.push(NoisePlanEntry {
                row: spec.global_row(shard, local),
                delays,
                slot: entries.len(),
            });
        }
        Self { entries }
    }

    /// The planned rows.
    #[must_use]
    pub fn entries(&self) -> &[NoisePlanEntry] {
        &self.entries
    }

    /// Number of planned rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no row owes noise.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Phase 2: samples the pending noise of every row in `entries`
    /// data-parallel on `exec`, returning an `entries.len() × dim`
    /// row-major buffer in plan order (gradient units — callers scale
    /// by −η when applying). Takes an explicit entry slice so
    /// `finalize_model` can flush a huge table in bounded segments
    /// without materializing table-sized noise buffers.
    ///
    /// Per entry this reproduces Algorithm 1 exactly: with ANS one draw
    /// `~ N(0, delays·σ²C²/B²)` (line 38); without, the `delays`
    /// separate draws addressed by the iteration whose noise they are —
    /// the exact values eager DP-SGD would have drawn (lines 32–35).
    ///
    /// The parallel path clones the source per chunk, which is only
    /// sound for [`addressable`](RowNoise::addressable) sources;
    /// stateful (non-addressable) ones are sampled sequentially through
    /// the live `&mut` reference instead, so their stream advances
    /// exactly as the pre-plan serial flush did.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_entries<N>(
        table_id: u32,
        iter: u64,
        entries: &[NoisePlanEntry],
        dim: usize,
        per_step_std: f32,
        ans: bool,
        noise: &mut N,
        exec: &Executor,
        counters: &mut KernelCounters,
    ) -> Vec<f32>
    where
        N: RowNoise + Clone + Send + Sync,
    {
        let mut acc = Vec::new();
        let mut buf = Vec::new();
        Self::sample_entries_into(
            table_id,
            iter,
            entries,
            dim,
            per_step_std,
            ans,
            noise,
            exec,
            counters,
            &mut acc,
            &mut buf,
        );
        acc
    }

    /// [`sample_entries`](Self::sample_entries) into caller-owned
    /// buffers: `acc` receives the `entries.len() × dim` noise block and
    /// `buf` is the `dim`-wide draw scratch. On a single-width executor
    /// (or a stateful source) the whole phase runs through these
    /// buffers with zero allocation; the multi-worker path still hands
    /// each chunk its own scratch (worker threads are scoped to the
    /// region, so per-chunk buffers cannot be pooled across steps).
    #[allow(clippy::too_many_arguments)]
    pub fn sample_entries_into<N>(
        table_id: u32,
        iter: u64,
        entries: &[NoisePlanEntry],
        dim: usize,
        per_step_std: f32,
        ans: bool,
        noise: &mut N,
        exec: &Executor,
        counters: &mut KernelCounters,
        acc: &mut Vec<f32>,
        buf: &mut Vec<f32>,
    ) where
        N: RowNoise + Clone + Send + Sync,
    {
        acc.clear();
        acc.resize(entries.len() * dim, 0.0);
        if dim > 0 && exec.is_parallel() && noise.addressable() {
            let noise = &*noise;
            exec.par_for(acc.as_mut_slice(), ENTRIES_PER_CHUNK * dim, |c, chunk| {
                // One scratch buffer and one noise handle per chunk —
                // reused across its rows (the per-row allocations the
                // serial flush paid are gone). Cloning is free and sound
                // here: an addressable source is a pure function of the
                // (table, row, iter) address.
                let mut worker_noise = noise.clone();
                let mut buf = vec![0.0f32; dim];
                let first = c * ENTRIES_PER_CHUNK;
                for (k, out) in chunk.chunks_mut(dim).enumerate() {
                    Self::accumulate_entry(
                        table_id,
                        iter,
                        &entries[first + k],
                        per_step_std,
                        ans,
                        &mut worker_noise,
                        &mut buf,
                        out,
                    );
                }
            });
        } else if dim > 0 {
            // Inline path (single worker, or a stateful source that must
            // draw sequentially in plan order through the live
            // reference): same values — an addressable source is a pure
            // function of the address, and chunking never changes the
            // per-row arithmetic.
            buf.clear();
            buf.resize(dim, 0.0);
            for (e, out) in entries.iter().zip(acc.chunks_mut(dim)) {
                Self::accumulate_entry(table_id, iter, e, per_step_std, ans, noise, buf, out);
            }
        }
        let draws: u64 = entries.iter().map(|e| if ans { 1 } else { e.delays }).sum();
        counters.gaussian_samples += draws * dim as u64;
    }

    /// Accumulates one entry's pending noise into `out` (scratch `buf`
    /// must be `dim` long).
    #[allow(clippy::too_many_arguments)]
    fn accumulate_entry<N: RowNoise>(
        table_id: u32,
        iter: u64,
        e: &NoisePlanEntry,
        per_step_std: f32,
        ans: bool,
        noise: &mut N,
        buf: &mut [f32],
        out: &mut [f32],
    ) {
        if ans {
            // One draw ~ N(0, delays·σ²C²/B²) — line 38.
            noise.fill_unit(table_id, e.row, iter, buf);
            let std = aggregated_std(per_step_std, e.delays);
            for (o, &n) in out.iter_mut().zip(buf.iter()) {
                *o += std * n;
            }
        } else {
            for k_iter in (iter - e.delays + 1)..=iter {
                noise.fill_unit(table_id, e.row, k_iter, buf);
                for (o, &n) in out.iter_mut().zip(buf.iter()) {
                    *o += per_step_std * n;
                }
            }
        }
    }
}

/// The result of a shard-parallel lookahead flush: every pending row the
/// next batch will touch (global ids, shard-major order) with its
/// sampled noise, ready to merge into the step's sparse update.
///
/// Shard-major order differs from the 1-shard path's sorted order, but
/// the *values* do not: each row's delays come from its own history
/// entry and its noise is addressed by `(table, global row, iter)`, so
/// per-row arithmetic — and therefore the updated table — is bitwise
/// identical for any shard count.
#[derive(Debug, Clone)]
pub struct ShardedFlush {
    entries: Vec<NoisePlanEntry>,
    noise: Vec<f32>,
    dim: usize,
}

impl ShardedFlush {
    /// The planned rows (global ids, shard-major order).
    #[must_use]
    pub fn entries(&self) -> &[NoisePlanEntry] {
        &self.entries
    }

    /// Number of planned rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no row owes noise.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulates the flushed noise into a **coalesced** sparse update
    /// (Algorithm 1 lines 17–21): rows the gradient already touches get
    /// their noise added in place; rows it does not are appended as
    /// noise-only entries.
    ///
    /// # Panics
    ///
    /// Panics if `update`'s dimension differs from the flush's.
    pub fn merge_into(&self, update: &mut SparseGrad) {
        assert_eq!(update.dim(), self.dim, "flush/update dim mismatch");
        if self.dim == 0 || self.entries.is_empty() {
            return;
        }
        // The coalesced prefix stays binary-searchable; appended rows
        // are unique (targets were deduplicated), so they are never
        // looked up again within this merge.
        let sorted_len = update.len();
        for (e, nv) in self.entries.iter().zip(self.noise.chunks_exact(self.dim)) {
            let slot = match update.indices()[..sorted_len].binary_search(&e.row) {
                Ok(i) => i,
                Err(_) => {
                    let i = update.len();
                    let _ = update.push_zeros(e.row);
                    i
                }
            };
            for (w, &n) in update.entry_mut(slot).iter_mut().zip(nv.iter()) {
                *w += n;
            }
        }
    }
}

/// One shard's slice of a [`flush_next_rows_sharded`] call: the borrowed
/// history shard, its targets, and its outputs. Boxed into a `Vec` so
/// `Executor::par_for` can hand each worker one task mutably.
struct ShardFlushTask<'a> {
    history: &'a mut HistoryTable,
    targets: Vec<u64>,
    entries: Vec<NoisePlanEntry>,
    noise: Vec<f32>,
    counters: KernelCounters,
}

/// Runs both phases of a lookahead flush shard-parallel: each shard
/// walks its own history (phase 1) and samples its own rows' pending
/// noise (phase 2) with no shared mutable state; executor width left
/// over by the shard fan-out goes to the within-shard sampling chunks.
/// `targets` must be the sorted, deduplicated global rows the *next*
/// batch gathers.
///
/// Requires an [`addressable`](RowNoise::addressable) noise source (the
/// per-shard clones of a stateful stream would replay correlated noise);
/// callers must fall back to [`NoisePlan::plan_next_rows`] +
/// [`NoisePlan::sample_entries_into`] otherwise.
///
/// # Panics
///
/// Panics if `noise` is not addressable.
#[allow(clippy::too_many_arguments)]
pub fn flush_next_rows_sharded<N>(
    table_id: u32,
    iter: u64,
    targets: &[u64],
    history: &mut ShardedHistory,
    dim: usize,
    per_step_std: f32,
    ans: bool,
    noise: &N,
    exec: &Executor,
    counters: &mut KernelCounters,
) -> ShardedFlush
where
    N: RowNoise + Clone + Send + Sync,
{
    assert!(
        noise.addressable(),
        "sharded flush requires an addressable noise source"
    );
    // Kill point `flush`: a crash mid-flush leaves the history's
    // last-touched iterations partially advanced. Only table 0 hosts
    // the point so one kill fires per step, not per table.
    if table_id == 0 {
        lazydp_fault::point(lazydp_fault::Site::MidFlush, iter);
    }
    let spec = history.spec();
    let shard_targets = spec.partition_indices(targets);
    // Split the executor budget between the shard fan-out and the
    // within-shard sampling: with fewer shards than threads the leftover
    // width goes to each shard's phase-2 chunks (S=1 keeps the full
    // thread-parallel sampling the monolithic path had). Chunk
    // addressing makes the result identical either way.
    let inner_exec = Executor::new((exec.threads() / spec.shards()).max(1));
    let mut tasks: Vec<ShardFlushTask> = history
        .shards_mut()
        .iter_mut()
        .zip(shard_targets)
        .map(|(h, targets)| ShardFlushTask {
            history: h,
            targets,
            entries: Vec::new(),
            noise: Vec::new(),
            counters: KernelCounters::new(),
        })
        .collect();
    exec.par_for(&mut tasks, 1, |_, chunk| {
        let task = &mut chunk[0];
        // Phase 1: this shard's history walk (serial within the shard;
        // shards are the unit of parallelism).
        for &row in &task.targets {
            task.counters.history_reads += 1;
            task.counters.history_writes += 1;
            let delays = task.history.take_delays(spec.local_row(row), iter);
            if delays == 0 {
                continue;
            }
            task.entries.push(NoisePlanEntry {
                row,
                delays,
                slot: task.entries.len(),
            });
        }
        // Phase 2: sample this shard's rows. Cloning is sound because
        // the source is addressable (asserted above).
        let mut worker_noise = noise.clone();
        task.noise = NoisePlan::sample_entries(
            table_id,
            iter,
            &task.entries,
            dim,
            per_step_std,
            ans,
            &mut worker_noise,
            &inner_exec,
            &mut task.counters,
        );
    });
    let mut entries = Vec::new();
    let mut noise_buf = Vec::new();
    for task in tasks {
        counters.merge(&task.counters);
        entries.extend(task.entries);
        noise_buf.extend(task.noise);
    }
    for (i, e) in entries.iter_mut().enumerate() {
        e.slot = i;
        lazydp_obs::metrics().trainer.pending_depth.record(e.delays);
    }
    lazydp_obs::metrics()
        .trainer
        .noise_plan_rows
        .add(entries.len() as u64);
    ShardedFlush {
        entries,
        noise: noise_buf,
        dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::counter::CounterNoise;

    fn history_at(rows: usize, flushed: &[(u64, u64)]) -> HistoryTable {
        let mut h = HistoryTable::new(rows);
        for &(row, iter) in flushed {
            let _ = h.take_delays(row, iter);
        }
        h
    }

    #[test]
    fn plan_next_rows_plans_only_pending_targets_and_slots_them() {
        let mut h = history_at(8, &[(2, 5)]); // row 2 already flushed at 5
        let mut update = SparseGrad::from_entries(2, vec![(1, vec![1.0, 1.0])]);
        let _ = update.coalesce();
        let mut c = KernelCounters::new();
        // A stale entry proves the buffer is cleared, not appended to.
        let mut plan = vec![NoisePlanEntry {
            row: 99,
            delays: 1,
            slot: 0,
        }];
        NoisePlan::plan_next_rows(&[1, 2, 4], 5, &mut h, &mut update, &mut c, &mut plan);
        // Row 2 owes nothing at iter 5; rows 1 and 4 owe 5 each.
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan[0],
            NoisePlanEntry {
                row: 1,
                delays: 5,
                slot: 0
            }
        );
        // Row 4 was absent from the gradient: appended as a zero entry.
        assert_eq!(
            plan[1],
            NoisePlanEntry {
                row: 4,
                delays: 5,
                slot: 1
            }
        );
        assert_eq!(update.indices(), &[1, 4]);
        assert_eq!(c.history_reads, 3);
        assert_eq!(c.history_writes, 3);
    }

    #[test]
    fn for_all_rows_plans_every_pending_row() {
        let mut h = history_at(4, &[(1, 3), (3, 7)]);
        let mut c = KernelCounters::new();
        let plan = NoisePlan::for_all_rows(7, 4, &mut h, &mut c);
        let rows: Vec<u64> = plan.entries().iter().map(|e| e.row).collect();
        let delays: Vec<u64> = plan.entries().iter().map(|e| e.delays).collect();
        assert_eq!(rows, vec![0, 1, 2]); // row 3 is current
        assert_eq!(delays, vec![7, 4, 7]);
        assert_eq!(c.history_reads, 4);
        assert_eq!(c.history_writes, 3);
        // Idempotent: a second scan owes nothing.
        let again = NoisePlan::for_all_rows(7, 4, &mut h, &mut c);
        assert!(again.is_empty());
    }

    #[test]
    fn sample_entries_is_thread_count_independent() {
        let entries: Vec<NoisePlanEntry> = (0..100)
            .map(|k| NoisePlanEntry {
                row: k as u64 * 3,
                delays: 1 + (k as u64 % 7),
                slot: k,
            })
            .collect();
        let mut noise = CounterNoise::new(11);
        for ans in [true, false] {
            let mut c = KernelCounters::new();
            let base = NoisePlan::sample_entries(
                2,
                9,
                &entries,
                8,
                0.25,
                ans,
                &mut noise,
                &Executor::new(1),
                &mut c,
            );
            for threads in [2usize, 3, 8] {
                let mut c2 = KernelCounters::new();
                let got = NoisePlan::sample_entries(
                    2,
                    9,
                    &entries,
                    8,
                    0.25,
                    ans,
                    &mut noise,
                    &Executor::new(threads),
                    &mut c2,
                );
                assert_eq!(base, got, "ans={ans}, threads={threads}");
                assert_eq!(c.gaussian_samples, c2.gaussian_samples);
            }
        }
    }

    #[test]
    fn stateful_sources_sample_sequentially_with_advancing_state() {
        // A non-addressable source must not be cloned per chunk (that
        // would repeat the same stream): entries get distinct draws and
        // the caller's stream state advances across calls.
        use lazydp_rng::{SequentialNoise, Xoshiro256PlusPlus};
        let entries: Vec<NoisePlanEntry> = (0..80)
            .map(|k| NoisePlanEntry {
                row: k as u64,
                delays: 1,
                slot: k,
            })
            .collect();
        let mut noise = SequentialNoise::new(Xoshiro256PlusPlus::seed_from(2));
        let mut c = KernelCounters::new();
        let exec = Executor::new(4);
        let first =
            NoisePlan::sample_entries(0, 1, &entries, 4, 1.0, true, &mut noise, &exec, &mut c);
        for pair in first.chunks(4).take(8).collect::<Vec<_>>().windows(2) {
            assert_ne!(pair[0], pair[1], "rows must not share draws");
        }
        let second =
            NoisePlan::sample_entries(0, 2, &entries, 4, 1.0, true, &mut noise, &exec, &mut c);
        assert_ne!(first, second, "stream state must advance across calls");
    }

    #[test]
    fn sample_counts_draws_per_algorithm_variant() {
        let entries = [
            NoisePlanEntry {
                row: 0,
                delays: 4,
                slot: 0,
            },
            NoisePlanEntry {
                row: 7,
                delays: 2,
                slot: 1,
            },
        ];
        let mut noise = CounterNoise::new(1);
        let exec = Executor::sequential();
        let mut c = KernelCounters::new();
        let _ = NoisePlan::sample_entries(0, 5, &entries, 3, 0.1, true, &mut noise, &exec, &mut c);
        assert_eq!(c.gaussian_samples, 2 * 3, "ANS: one draw per row");
        let mut c = KernelCounters::new();
        let _ = NoisePlan::sample_entries(0, 5, &entries, 3, 0.1, false, &mut noise, &exec, &mut c);
        assert_eq!(c.gaussian_samples, (4 + 2) * 3, "w/o ANS: delays draws");
    }

    #[test]
    fn sharded_flush_matches_the_monolithic_path_bitwise() {
        // The 1-shard reference: plan_next_rows + sample_entries, applied
        // through plan slots (exactly what the pre-sharding optimizer
        // did), must agree per-row with merge_into for every shard
        // count — same entries, same noise, same counters.
        let rows = 40usize;
        let dim = 6usize;
        let iter = 9u64;
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
        let mut noise = CounterNoise::new(17);

        // Reference path.
        let mut ref_hist = HistoryTable::new(rows);
        for &(r, it) in flushed {
            let _ = ref_hist.take_delays(r, it);
        }
        let mut ref_update = mk_update();
        let mut ref_c = KernelCounters::new();
        let mut plan = Vec::new();
        NoisePlan::plan_next_rows(
            &targets,
            iter,
            &mut ref_hist,
            &mut ref_update,
            &mut ref_c,
            &mut plan,
        );
        let exec = Executor::new(3);
        let buf = NoisePlan::sample_entries(
            2, iter, &plan, dim, 0.3, true, &mut noise, &exec, &mut ref_c,
        );
        for (e, nv) in plan.iter().zip(buf.chunks_exact(dim)) {
            for (w, &n) in ref_update.entry_mut(e.slot).iter_mut().zip(nv.iter()) {
                *w += n;
            }
        }
        let want = ref_update.to_dense_map();

        for shards in [1usize, 2, 4, 8] {
            let raw: Vec<u32> = (0..rows as u64)
                .map(|r| ref_flushed_at(flushed, r))
                .collect();
            let mut hist = ShardedHistory::from_raw_global(&raw, shards);
            let mut update = mk_update();
            let mut c = KernelCounters::new();
            let flush = flush_next_rows_sharded(
                2,
                iter,
                &targets,
                &mut hist,
                dim,
                0.3,
                true,
                &noise,
                &Executor::new(3),
                &mut c,
            );
            flush.merge_into(&mut update);
            let got = update.to_dense_map();
            assert_eq!(got.len(), want.len(), "{shards} shards");
            for (row, vals) in &want {
                assert_eq!(&got[row], vals, "row {row}, {shards} shards");
            }
            assert_eq!(c, ref_c, "counters, {shards} shards");
            // And the history state afterwards is identical too.
            for r in 0..rows as u64 {
                assert_eq!(hist.last_flushed(r), ref_hist.last_flushed(r));
            }
        }
    }

    fn ref_flushed_at(flushed: &[(u64, u64)], row: u64) -> u32 {
        flushed
            .iter()
            .find(|&&(r, _)| r == row)
            .map_or(0, |&(_, it)| u32::try_from(it).expect("fits"))
    }

    #[test]
    fn for_all_rows_of_shard_partitions_the_full_scan() {
        // Scanning every shard of a partitioned history must plan the
        // same (row, delays) set as one monolithic scan.
        let rows = 17usize;
        let flushed: &[(u64, u64)] = &[(1, 3), (8, 7), (16, 2)];
        let mut mono = HistoryTable::new(rows);
        for &(r, it) in flushed {
            let _ = mono.take_delays(r, it);
        }
        let mut c_mono = KernelCounters::new();
        let want = NoisePlan::for_all_rows(7, rows, &mut mono, &mut c_mono);
        let mut want_pairs: Vec<(u64, u64)> =
            want.entries().iter().map(|e| (e.row, e.delays)).collect();
        want_pairs.sort_unstable();

        let raw: Vec<u32> = (0..rows as u64)
            .map(|r| ref_flushed_at(flushed, r))
            .collect();
        let mut sharded = ShardedHistory::from_raw_global(&raw, 4);
        let spec = sharded.spec();
        let mut c_sh = KernelCounters::new();
        let mut got_pairs: Vec<(u64, u64)> = Vec::new();
        for (s, shard) in sharded.shards_mut().iter_mut().enumerate() {
            let plan = NoisePlan::for_all_rows_of_shard(7, spec, s, shard, &mut c_sh);
            got_pairs.extend(plan.entries().iter().map(|e| (e.row, e.delays)));
        }
        got_pairs.sort_unstable();
        assert_eq!(got_pairs, want_pairs);
        assert_eq!(c_sh, c_mono);
    }

    #[test]
    fn without_ans_draws_the_eager_iteration_noise() {
        // A row with 2 pending delays at iter 5 must receive exactly the
        // noise of iterations 4 and 5 — what eager DP-SGD would have
        // drawn.
        let entries = [NoisePlanEntry {
            row: 3,
            delays: 2,
            slot: 0,
        }];
        let mut noise = CounterNoise::new(5);
        let exec = Executor::sequential();
        let mut c = KernelCounters::new();
        let got =
            NoisePlan::sample_entries(1, 5, &entries, 4, 1.0, false, &mut noise, &exec, &mut c);
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
