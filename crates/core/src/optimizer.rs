//! The LazyDP optimizer — Algorithm 1 of the paper.
//!
//! The per-row pending-noise flush is two-phase:
//! [`HistoryTable`] bookkeeping, then noise sampling on the
//! `lazydp_exec` executor (see [`crate::plan`]). The per-step lookahead
//! flush is one [`LookaheadFlush`] per table. One per-table body fills
//! it (prefetch the rows, the `flush` kill point at table 0, then
//! [`fill`](LookaheadFlush::fill)), and threads claim the tables from
//! one queue per step. Every step with a next batch takes one path:
//! [`step`](Optimizer::step) runs [`Executor::overlap`], whose worker
//! side claims tables from the back of the queue while the main thread
//! computes the clipped gradient, and the main thread then claims from
//! the front until the queue is empty. On a multi-width executor the
//! worker is a thread of its own; a width-1 executor runs it on the main
//! thread after the gradient, by which time the front has drained every
//! table.
//!
//! Each table's flush is a pure function of the table, the iteration,
//! its targets (the next batch's distinct rows of that table) and its
//! own [`HistoryTable`], and the work counters only add, so who claims
//! which table moves no bit. Every flush lands through the same
//! [`merge_into`](LookaheadFlush::merge_into).

use crate::history::HistoryTable;
use crate::plan::{add_pending_noise, LookaheadFlush};
use lazydp_data::MiniBatch;
use lazydp_dpsgd::noise_update::sparse_grad_update;
use lazydp_dpsgd::{DpConfig, DpStep, KernelCounters, Optimizer, StepStats, TableStage};
use lazydp_embedding::bag::BagIndices;
use lazydp_embedding::EmbeddingStorage;
use lazydp_exec::Executor;
use lazydp_fault::{Faults, Site};
use lazydp_model::Dlrm;
use lazydp_rng::{RowNoise, NOISE_BLOCK};
use std::sync::Mutex;

/// LazyDP hyper-parameters: the DP-SGD parameters plus the ANS switch
/// (the paper evaluates both `LazyDP` and `LazyDP(w/o ANS)`, Fig. 10).
#[derive(Debug, Clone, PartialEq)]
pub struct LazyDpConfig {
    /// The shared DP-SGD hyper-parameters (σ, C, η, B).
    pub dp: DpConfig,
    /// Whether aggregated noise sampling (§5.2.2) is enabled.
    pub ans: bool,
}

impl LazyDpConfig {
    /// Paper-default hyper-parameters (Fig. 9(a)) with ANS enabled.
    #[must_use]
    pub fn paper_default(nominal_batch: usize) -> Self {
        Self {
            dp: DpConfig::paper_default(nominal_batch),
            ans: true,
        }
    }

    /// Convenience constructor over explicit DP parameters and the ANS
    /// switch.
    #[must_use]
    pub fn new(dp: DpConfig, ans: bool) -> Self {
        Self { dp, ans }
    }

    /// Sets the executor width for the parallel phases (delegates to
    /// [`DpConfig::with_threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.dp = self.dp.with_threads(threads);
        self
    }
}

/// The LazyDP optimizer (Algorithm 1): the shared DP-SGD(F)-style
/// [`DpStep`] front half, lazy noise updates driven by one-batch
/// lookahead, and (optionally) aggregated noise sampling. After warm-up
/// a steady-state [`step`](Optimizer::step) on a single-width executor
/// performs **zero heap allocations** (pinned by the
/// `alloc_steady_state` integration test).
#[derive(Debug, Clone)]
pub struct LazyDpOptimizer<N> {
    cfg: LazyDpConfig,
    /// The step core; a field disjoint from `history` so the main
    /// thread can run the clipped aggregate on it while the flush worker
    /// mutably borrows the history.
    core: DpStep<N>,
    history: Vec<HistoryTable>,
    /// The lookahead flush of each table, refilled every step.
    flushes: Vec<LookaheadFlush>,
    /// The fault plan of the `step` and `flush` kill points, captured at
    /// construction.
    faults: Faults,
}

impl<N: RowNoise> LazyDpOptimizer<N> {
    /// Creates a LazyDP optimizer for `model` (one [`HistoryTable`] per
    /// embedding table). Generic over the model's embedding backend:
    /// only row counts are read here, so in-memory and disk-backed
    /// models build identical optimizer state.
    #[must_use]
    pub fn new<T: EmbeddingStorage>(cfg: LazyDpConfig, model: &Dlrm<T>, noise: N) -> Self {
        let history = model
            .tables
            .iter()
            .map(|t| HistoryTable::new(t.rows()))
            .collect();
        Self::from_state(cfg, noise, history, 0)
    }

    /// Rebuilds an optimizer from checkpointed state (see
    /// [`crate::checkpoint`]). `history` must have one entry per table
    /// and `iter` must be the iteration the history was captured at.
    /// Every constructor ends here, where the optimizer captures the
    /// fault plan [`Faults::current`] resolves.
    #[must_use]
    pub fn from_state(cfg: LazyDpConfig, noise: N, history: Vec<HistoryTable>, iter: u64) -> Self {
        Self {
            core: DpStep::new(cfg.dp, noise, iter),
            cfg,
            flushes: vec![LookaheadFlush::default(); history.len()],
            history,
            faults: Faults::current(),
        }
    }

    /// The per-table history tables (checkpoint capture).
    #[must_use]
    pub fn history_tables(&self) -> &[HistoryTable] {
        &self.history
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &LazyDpConfig {
        &self.cfg
    }

    /// Current training iteration (1-based after the first step).
    #[must_use]
    pub fn iteration(&self) -> u64 {
        self.core.iteration()
    }

    /// Total HistoryTable memory (the §7.2 overhead: 4 bytes/row).
    #[must_use]
    pub fn history_bytes(&self) -> u64 {
        self.history.iter().map(HistoryTable::bytes).sum()
    }

    /// Cumulative logical-work counters (inherent so callers don't need
    /// to pin the `Optimizer<T>` backend parameter just to read them).
    #[must_use]
    pub fn counters(&self) -> KernelCounters {
        self.core.counters
    }

    /// Algorithm name as the paper spells it (inherent twin of
    /// [`Optimizer::name`], same backend-parameter reasoning as
    /// [`counters`](Self::counters)).
    #[must_use]
    pub fn name(&self) -> &'static str {
        if self.cfg.ans {
            "LazyDP"
        } else {
            "LazyDP(w/o ANS)"
        }
    }

    /// Flushes every pending noise update, bringing the model to the
    /// state eager DP-SGD would have released (threat model §3: the
    /// adversary sees the final model, so deferred noise must land
    /// before release). Idempotent.
    ///
    /// Per table, one read-only pass over the history counts the rows
    /// that owe noise; if any do, one
    /// [`sweep_rows_mut`](EmbeddingStorage::sweep_rows_mut) has each
    /// row read its delay from the history (read-only while the sweep
    /// runs) and, if it owes noise, sum its draws into a zeroed
    /// accumulator (`add_pending_noise`) and apply `w -= η·acc`; then
    /// every row's history is set to this iteration. A table that owes
    /// nothing is not swept, so a second release touches no row. Each
    /// row's noise is addressed by `(table, row, iter)`, so the released
    /// model is bitwise identical for any thread count — and for any
    /// embedding backend: on a disk-backed table the sweep walks the
    /// pages in order, each faulted in and written back once, so release
    /// never needs the whole table resident.
    pub fn finalize_model<T: EmbeddingStorage>(&mut self, model: &mut Dlrm<T>) {
        lazydp_obs::span!(finalize_flush_all);
        let ans = self.cfg.ans;
        let exec = Executor::new(self.cfg.dp.threads);
        let TableStage {
            noise,
            counters,
            iter,
            noise_std: std,
            lr,
            ..
        } = self.core.table_stage();
        for (t, (table, history)) in model.tables.iter_mut().zip(&mut self.history).enumerate() {
            let (table_id, dim) = (t as u32, table.dim());
            let (mut owing, mut draws) = (0, 0);
            for row in 0..history.rows() as u64 {
                let delays = history.delays(row, iter);
                owing += delays.min(1);
                draws += if ans { delays.min(1) } else { delays };
            }
            counters.history_reads += history.rows() as u64;
            if owing == 0 {
                continue;
            }
            table.sweep_rows_mut(&exec, |first_row, rows| {
                let (mut noise, mut block) = (noise.clone(), [0.0f32; NOISE_BLOCK]);
                let mut acc = vec![0.0f32; dim];
                for (row, w) in (first_row..).zip(rows.chunks_mut(dim)) {
                    let delays = history.delays(row, iter);
                    if delays == 0 {
                        continue;
                    }
                    acc.fill(0.0);
                    add_pending_noise(
                        &mut noise, table_id, row, iter, delays, std, ans, &mut acc, &mut block,
                    );
                    for (w, &a) in w.iter_mut().zip(&acc) {
                        *w -= lr * a;
                    }
                }
            });
            *history = HistoryTable::from_raw(vec![iter as u32; history.rows()]);
            counters.gaussian_samples += draws * dim as u64;
            counters.history_writes += owing;
            counters.table_rows_read += owing;
            counters.table_rows_written += owing;
            lazydp_obs::metrics().trainer.finalize_rows.add(owing);
        }
    }
}

/// One table's share of a step's lookahead flush, as the flush queue
/// hands it out: `(table, ((flush, history), targets))`.
type FlushJob<'a> = (
    usize,
    ((&'a mut LookaheadFlush, &'a mut HistoryTable), &'a [u64]),
);

/// The flush queue of one step: every table's job, in table order, each
/// targeting the distinct rows `next` gathers from it (none if an empty
/// Poisson batch carries no index lists). Claiming takes the lock only
/// for the pop, never for the fill.
fn flush_queue<'a>(
    flushes: &'a mut [LookaheadFlush],
    history: &'a mut [HistoryTable],
    next: &'a MiniBatch,
) -> Mutex<impl DoubleEndedIterator<Item = FlushJob<'a>> + Send> {
    let targets =
        (0..flushes.len()).map(|t| next.sparse.get(t).map_or(&[][..], BagIndices::unique_rows));
    Mutex::new(flushes.iter_mut().zip(history).zip(targets).enumerate())
}

/// Which end of the flush queue a thread claims from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    /// The main thread: table 0 upwards, the order the forward reads.
    Front,
    /// The overlap worker: the last table downwards, away from the
    /// forward's reads.
    Back,
}

/// Claims the next job from `end` of `queue`, or `None` once it is empty.
fn claim<'a>(
    queue: &Mutex<impl DoubleEndedIterator<Item = FlushJob<'a>>>,
    end: End,
) -> Option<FlushJob<'a>> {
    let mut jobs = queue.lock().expect("flush queue poisoned");
    match end {
        End::Front => jobs.next(),
        End::Back => jobs.next_back(),
    }
}

/// What every table's lookahead flush shares within one step.
struct FlushStep<'a, T> {
    tables: &'a [T],
    iter: u64,
    std: f32,
    ans: bool,
    exec: Executor,
    faults: &'a Faults,
}

impl<'a, T: EmbeddingStorage> FlushStep<'a, T> {
    fn new(tables: &'a [T], iter: u64, cfg: &LazyDpConfig, faults: &'a Faults) -> Self {
        Self {
            tables,
            iter,
            std: cfg.dp.noise_std_per_coord(),
            ans: cfg.ans,
            exec: Executor::new(cfg.dp.threads),
            faults,
        }
    }

    /// Fills one table's flush. Asks the storage backend to fault in the
    /// pages of exactly the rows step t+1 gathers (the set LazyDP's
    /// delayed noising touches), so on a disk-backed table the next
    /// gather is served from the page cache; prefetch is a no-op in
    /// memory and never changes a row value.
    fn fill<N: RowNoise>(&self, job: FlushJob<'_>, noise: &N, counters: &mut KernelCounters) {
        let (t, ((flush, history), targets)) = job;
        let table = &self.tables[t];
        table.prefetch_rows(targets);
        // Kill point `flush`: a crash mid-flush leaves the history
        // partially advanced. Only table 0 hosts it, so one kill fires
        // per step, on whichever thread fills table 0.
        if t == 0 {
            self.faults.point(Site::MidFlush, self.iter);
        }
        flush.fill(
            t as u32,
            self.iter,
            targets,
            history,
            table.dim(),
            self.std,
            self.ans,
            noise,
            &self.exec,
            counters,
        );
    }

    /// Claims jobs from `end` of `queue` and fills them until it is empty.
    fn drain<'j, N: RowNoise>(
        &self,
        queue: &Mutex<impl DoubleEndedIterator<Item = FlushJob<'j>>>,
        end: End,
        noise: &N,
        counters: &mut KernelCounters,
    ) {
        while let Some(job) = claim(queue, end) {
            self.fill(job, noise, counters);
        }
    }
}

impl<T, N> Optimizer<T> for LazyDpOptimizer<N>
where
    T: EmbeddingStorage,
    N: RowNoise,
{
    fn name(&self) -> &'static str {
        LazyDpOptimizer::name(self)
    }

    fn step(
        &mut self,
        model: &mut Dlrm<T>,
        batch: &MiniBatch,
        next: Option<&MiniBatch>,
    ) -> StepStats {
        let iter = self.core.begin_step();

        // Gradient derivation and lookahead flush (Algorithm 1 line 12 on:
        // the rows each table gathers *next* iteration). The flush needs
        // only the next-batch targets, the history, and the noise source
        // — never the gradients — so the executor's overlap worker claims
        // tables from the back of the flush queue *while* the main thread
        // does the forward/backward, and the main thread claims the rest
        // from the front once its gradient is done. A width-1 executor
        // runs the worker's side after the main thread's, which has
        // drained the queue by then.
        let clipped = if let Some(next) = next {
            lazydp_obs::span!(step_flush_overlap);
            // The worker samples through its own handle: the source is a
            // pure function of the address, so a clone draws the same
            // values while the core stays borrowed by the aggregate.
            let noise = self.core.noise().clone();
            let flush = FlushStep::new(&model.tables, iter, &self.cfg, &self.faults);
            let queue = flush_queue(&mut self.flushes, &mut self.history, next);
            let core = &mut self.core;
            let model_ref: &Dlrm<T> = model;
            let (fc, cl) = flush.exec.overlap(
                || {
                    let mut c = KernelCounters::new();
                    flush.drain(&queue, End::Back, &noise, &mut c);
                    c
                },
                || {
                    let cl = core.clipped_aggregate(model_ref, batch);
                    let stage = core.table_stage();
                    flush.drain(&queue, End::Front, &*stage.noise, stage.counters);
                    cl
                },
            );
            self.core.counters.merge(&fc);
            cl
        } else {
            self.core.clipped_aggregate(model, batch)
        };

        // MLP layers: identical treatment to eager DP-SGD (gradient +
        // dense noise every iteration, one fused sweep per layer at
        // `DpConfig::threads`) — Algorithm 1 omits them because "both
        // DP-SGD(F) and LazyDP apply the identical DP protection for MLP
        // layers".
        self.core.dense_update(model);

        // Kill point `step`: the dense half of the step has landed, the
        // sparse updates have not — the most state-torn instant of a
        // step. The recovery harness proves a crash here resumes
        // bitwise from the last checkpoint.
        self.faults.point(Site::MidStep, iter);

        // Table stage: merge the (sparse) gradient with the lazy noise
        // of the rows the *next* iteration will gather, then apply one
        // sparse update (Algorithm 1 lines 11–25).
        let TableStage {
            grads,
            counters,
            lr,
            ..
        } = self.core.table_stage();
        for ((table, update), flush) in model.tables.iter_mut().zip(grads).zip(&self.flushes) {
            if next.is_some() {
                flush.merge_into(update);
            }
            lazydp_obs::span!(step_sparse_update);
            sparse_grad_update(table, update, lr, counters);
        }
        self.core.finish_step(batch, clipped)
    }

    fn finalize(&mut self, model: &mut Dlrm<T>) {
        self.finalize_model(model);
    }

    fn counters(&self) -> KernelCounters {
        self.core.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{FixedBatchLoader, SyntheticConfig, SyntheticDataset};
    use lazydp_dpsgd::{ClipStyle, EagerDpSgd};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::{Prng, Xoshiro256PlusPlus};

    fn setup(tables: usize, rows: u64, samples: usize) -> (Dlrm, SyntheticDataset) {
        let mut rng = Xoshiro256PlusPlus::seed_from(31);
        let model = Dlrm::new(DlrmConfig::tiny(tables, rows, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(tables, rows, samples));
        (model, ds)
    }

    fn max_table_diff(a: &Dlrm, b: &Dlrm) -> f32 {
        a.tables
            .iter()
            .zip(b.tables.iter())
            .map(|(x, y)| x.max_abs_diff(y))
            .fold(0.0, f32::max)
    }

    /// THE equivalence theorem of the paper (Fig. 7), tested exactly:
    /// with counter-based noise, LazyDP **without ANS** observes the
    /// same model state at every forward pass as eager DP-SGD(F), and
    /// after `finalize` the final models coincide.
    #[test]
    fn lazydp_without_ans_exactly_matches_eager_dpsgd() {
        let (model0, ds) = setup(3, 48, 128);
        let cfg = DpConfig::new(0.8, 0.9, 0.05, 16);
        let steps = 6usize;
        let batches: Vec<MiniBatch> = (0..=steps)
            .map(|i| ds.batch_of(&(i * 16..(i + 1) * 16).collect::<Vec<_>>()))
            .collect();

        // Eager DP-SGD(F).
        let mut eager_model = model0.clone();
        let mut eager = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(99));
        let mut eager_logits: Vec<Vec<f32>> = Vec::new();
        for batch in batches.iter().take(steps) {
            eager_logits.push(eager_model.forward(batch).logits().to_vec());
            eager.step(&mut eager_model, batch, None);
        }

        // LazyDP without ANS, same noise seed, one-batch lookahead.
        let mut lazy_model = model0.clone();
        let lazy_cfg = LazyDpConfig::new(cfg, false);
        let mut lazy = LazyDpOptimizer::new(lazy_cfg, &lazy_model, CounterNoise::new(99));
        let mut lazy_logits: Vec<Vec<f32>> = Vec::new();
        for i in 0..steps {
            lazy_logits.push(lazy_model.forward(&batches[i]).logits().to_vec());
            lazy.step(&mut lazy_model, &batches[i], Some(&batches[i + 1]));
        }
        lazy.finalize_model(&mut lazy_model);

        // Access-time equivalence: what training *observed* is the same.
        for (i, (a, b)) in eager_logits.iter().zip(lazy_logits.iter()).enumerate() {
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(
                    (x - y).abs() < 1e-3,
                    "iteration {i}: logits diverged ({x} vs {y})"
                );
            }
        }
        // Final-model equivalence (threat model §3).
        let d = max_table_diff(&eager_model, &lazy_model);
        assert!(d < 1e-3, "final models diverged by {d}");
        for l in 0..eager_model.top.layers().len() {
            let d = eager_model.top.layers()[l]
                .weight
                .max_abs_diff(&lazy_model.top.layers()[l].weight);
            assert!(d < 1e-3, "top MLP layer {l} diverged by {d}");
        }
    }

    /// Every weight of `m` as a bit pattern: MLP layers, then tables.
    fn bits(m: &Dlrm) -> Vec<u32> {
        let layers = m.bottom.layers().iter().chain(m.top.layers());
        let mlp = layers.flat_map(|l| l.weight.as_slice().iter().chain(&l.bias));
        mlp.chain(m.tables.iter().flat_map(|t| t.as_slice()))
            .map(|w| w.to_bits())
            .collect()
    }

    /// Eager DP-SGD(F) and LazyDP without ANS, same noise seed, over
    /// `batches` (the last one only as lookahead) on backend `T`; the
    /// released models with their tables read back into memory.
    fn eager_and_lazy_release<T: EmbeddingStorage>(
        mut eager_model: Dlrm<T>,
        mut lazy_model: Dlrm<T>,
        cfg: DpConfig,
        batches: &[MiniBatch],
    ) -> (Dlrm, Dlrm) {
        let mut eager = EagerDpSgd::<_, T>::for_storage(cfg, CounterNoise::new(99));
        let lazy_cfg = LazyDpConfig::new(cfg, false);
        let mut lazy = LazyDpOptimizer::new(lazy_cfg, &lazy_model, CounterNoise::new(99));
        for i in 0..batches.len() - 1 {
            eager.step(&mut eager_model, &batches[i], None);
            lazy.step(&mut lazy_model, &batches[i], Some(&batches[i + 1]));
        }
        lazy.finalize_model(&mut lazy_model);
        let dense = |m: Dlrm<T>| m.map_tables(|_, t| t.to_dense_table());
        (dense(eager_model), dense(lazy_model))
    }

    /// The theorem above with both sides on `StoredTable`s (5-row pages,
    /// two frames, so the sweeps evict and the last page is partly
    /// padding): each side releases bitwise what it releases in memory,
    /// so the paged backend keeps the equivalence.
    #[test]
    fn lazydp_without_ans_exactly_matches_eager_dpsgd_on_stored_tables() {
        use lazydp_store::{StorageConfig, StoredTable};
        let (model0, ds) = setup(3, 48, 128);
        let cfg = DpConfig::new(0.8, 0.9, 0.05, 16);
        let batches: Vec<MiniBatch> = (0..=6)
            .map(|i| ds.batch_of(&(i * 16..(i + 1) * 16).collect::<Vec<_>>()))
            .collect();
        let (eager_mem, lazy_mem) =
            eager_and_lazy_release(model0.clone(), model0.clone(), cfg, &batches);
        let scfg = StorageConfig::new().with_page_rows(5).with_cache_pages(2);
        let stored = || {
            model0
                .clone()
                .try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
                .expect("spill dir must be writable")
        };
        let (eager_st, lazy_st) = eager_and_lazy_release(stored(), stored(), cfg, &batches);
        assert!(bits(&eager_st) == bits(&eager_mem), "stored eager release");
        assert!(bits(&lazy_st) == bits(&lazy_mem), "stored LazyDP release");
        let d = max_table_diff(&eager_st, &lazy_st);
        assert!(d < 1e-3, "final models diverged by {d}");
    }

    /// ANS equivalence is distributional (Theorem 5.1): on a pure-noise
    /// run (empty batches — no gradients), the per-coordinate
    /// displacement of every row after finalize must follow
    /// `N(0, T·(lr·σC/B)²)` exactly like eager DP-SGD's.
    #[test]
    fn lazydp_with_ans_matches_eager_distributionally() {
        let rows = 400u64;
        let (model0, _) = setup(1, rows, 8);
        let steps = 9u64;
        let cfg = DpConfig::new(1.0, 1.0, 0.1, 8);
        let empty = MiniBatch::default();

        let mut eager_model = model0.clone();
        let mut eager = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(7));
        for _ in 0..steps {
            eager.step(&mut eager_model, &empty, None);
        }
        let mut lazy_model = model0.clone();
        let lazy_cfg = LazyDpConfig::new(cfg, true);
        let mut lazy = LazyDpOptimizer::new(lazy_cfg, &lazy_model, CounterNoise::new(8));
        for _ in 0..steps {
            lazy.step(&mut lazy_model, &empty, Some(&empty));
        }
        lazy.finalize_model(&mut lazy_model);

        let collect = |m: &Dlrm| -> Vec<f64> {
            m.tables[0]
                .as_slice()
                .iter()
                .zip(model0.tables[0].as_slice())
                .map(|(a, b)| f64::from(a - b))
                .collect()
        };
        let mut d_eager = collect(&eager_model);
        let mut d_lazy = collect(&lazy_model);
        let expect_std =
            f64::from(cfg.lr) * f64::from(cfg.noise_std_per_coord()) * (steps as f64).sqrt();
        let crit = lazydp_rng::stats::ks_critical(d_eager.len(), 0.001);
        let ks_e = lazydp_rng::stats::ks_statistic_normal(&mut d_eager, 0.0, expect_std);
        let ks_l = lazydp_rng::stats::ks_statistic_normal(&mut d_lazy, 0.0, expect_std);
        assert!(ks_e < crit, "eager KS {ks_e} vs {crit}");
        assert!(ks_l < crit, "lazy/ANS KS {ks_l} vs {crit}");
    }

    #[test]
    fn ans_saves_gaussian_samples_by_the_delay_factor() {
        // A row untouched for k iterations needs k draws without ANS
        // but 1 with ANS; on a sparse trace the totals differ hugely.
        let (model0, ds) = setup(2, 64, 200);
        let cfg = DpConfig::paper_default(4);
        let steps = 10usize;
        let batches: Vec<MiniBatch> = (0..=steps)
            .map(|i| ds.batch_of(&(i * 4..(i + 1) * 4).collect::<Vec<_>>()))
            .collect();
        let run = |ans: bool| -> u64 {
            let mut model = model0.clone();
            let lazy_cfg = LazyDpConfig::new(cfg, ans);
            let mut opt = LazyDpOptimizer::new(lazy_cfg, &model, CounterNoise::new(3));
            for i in 0..steps {
                opt.step(&mut model, &batches[i], Some(&batches[i + 1]));
            }
            opt.finalize_model(&mut model);
            opt.counters().gaussian_samples
        };
        let with_ans = run(true);
        let without = run(false);
        assert!(
            without > with_ans * 2,
            "ANS must cut sampling: {with_ans} vs {without}"
        );
    }

    #[test]
    fn lazy_work_scales_with_batch_not_table_size() {
        // The headline claim (§5.1): per-iteration noise work is set by
        // the pooling/batch, not the table size.
        let (mut small, ds_small) = setup(1, 64, 64);
        let (mut large, ds_large) = setup(1, 4096, 64);
        let cfg = LazyDpConfig::paper_default(8);
        let run = |model: &mut Dlrm, ds: &SyntheticDataset| -> u64 {
            let mut opt = LazyDpOptimizer::new(cfg.clone(), model, CounterNoise::new(1));
            let b0 = ds.batch_of(&(0..8).collect::<Vec<_>>());
            let b1 = ds.batch_of(&(8..16).collect::<Vec<_>>());
            let mlp = (model.bottom.params() + model.top.params()) as u64;
            opt.step(model, &b0, Some(&b1));
            opt.counters().gaussian_samples - mlp
        };
        let s = run(&mut small, &ds_small);
        let l = run(&mut large, &ds_large);
        // Same batch size ⇒ same order of noise work despite 64× rows.
        assert!(
            l <= s * 2,
            "lazy noise work grew with table size: {s} vs {l}"
        );
    }

    #[test]
    fn finalize_is_idempotent() {
        let (mut model, ds) = setup(2, 32, 32);
        let cfg = LazyDpConfig::paper_default(8);
        let mut opt = LazyDpOptimizer::new(cfg.clone(), &model, CounterNoise::new(5));
        let b0 = ds.batch_of(&(0..8).collect::<Vec<_>>());
        let b1 = ds.batch_of(&(8..16).collect::<Vec<_>>());
        opt.step(&mut model, &b0, Some(&b1));
        opt.finalize_model(&mut model);
        let snapshot = model.tables[0].clone();
        opt.finalize_model(&mut model);
        assert_eq!(model.tables[0], snapshot, "second finalize must be a no-op");
    }

    #[test]
    fn missing_lookahead_defers_to_finalize() {
        let (model0, ds) = setup(1, 32, 16);
        let cfg = DpConfig::new(1.0, 1.0, 0.1, 8);
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        // Without lookahead, no embedding noise lands during the step …
        let mut m1 = model0.clone();
        let lazy_cfg = LazyDpConfig::new(cfg, true);
        let mut o1 = LazyDpOptimizer::new(lazy_cfg, &m1, CounterNoise::new(9));
        o1.step(&mut m1, &batch, None);
        let mlp = (m1.bottom.params() + m1.top.params()) as u64;
        assert_eq!(
            o1.counters().gaussian_samples,
            mlp,
            "no embedding noise yet"
        );
        // … but finalize delivers it all.
        o1.finalize_model(&mut m1);
        assert!(o1.counters().gaussian_samples > mlp);
    }

    #[test]
    fn overhead_counters_track_history_and_dedup() {
        let (mut model, ds) = setup(1, 64, 64);
        let cfg = LazyDpConfig::paper_default(16);
        let mut opt = LazyDpOptimizer::new(cfg.clone(), &model, CounterNoise::new(2));
        let b0 = ds.batch_of(&(0..16).collect::<Vec<_>>());
        let b1 = ds.batch_of(&(0..16).collect::<Vec<_>>()); // same rows → dups across samples possible
        opt.step(&mut model, &b0, Some(&b1));
        let c = opt.counters();
        assert!(c.history_reads > 0);
        assert!(c.history_writes > 0);
        assert!(
            c.history_reads <= 16,
            "at most one read per unique next row"
        );
    }

    /// `duplicates_removed` counts each step's own batch once, by
    /// formula: per table, lookups minus distinct rows. LazyDP's
    /// lookahead reads the next batch's distinct rows without counting
    /// them again.
    #[test]
    fn duplicates_removed_counts_each_steps_batch_once() {
        use lazydp_dpsgd::SgdOptimizer;
        let (model0, ds) = setup(3, 12, 48);
        let batches: Vec<MiniBatch> = (0..3)
            .map(|i| ds.batch_of(&(i * 16..(i + 1) * 16).collect::<Vec<_>>()))
            .collect();
        let dups = |b: &MiniBatch| -> u64 {
            (0..b.num_tables())
                .map(|t| {
                    let mut rows = b.table_indices(t).to_vec();
                    rows.sort_unstable();
                    rows.dedup();
                    (b.table_indices(t).len() - rows.len()) as u64
                })
                .sum()
        };
        let want = dups(&batches[0]) + dups(&batches[1]);
        assert!(want > 0, "12-row tables repeat rows");
        let cfg = DpConfig::new(0.8, 0.9, 0.05, 16).with_threads(1);
        let run = |opt: &mut dyn Optimizer| {
            let mut model = model0.clone();
            for i in 0..2 {
                opt.step(&mut model, &batches[i], Some(&batches[i + 1]));
            }
            opt.counters().duplicates_removed
        };
        assert_eq!(run(&mut SgdOptimizer::new(0.05)), want, "SGD");
        let eager = &mut EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(1));
        assert_eq!(run(eager), want, "eager");
        let lazy =
            &mut LazyDpOptimizer::new(LazyDpConfig::new(cfg, true), &model0, CounterNoise::new(1));
        assert_eq!(run(lazy), want, "LazyDP");
    }

    /// The iteration of the flush-queue tests' step.
    const QUEUE_ITER: u64 = 5;

    /// One step's flush inputs over `model`: a next batch of 24 random
    /// lookups per table (one sample, so duplicates are likely) and
    /// histories advanced unevenly, so delays differ row to row and
    /// table to table.
    fn flush_inputs(model: &Dlrm) -> (MiniBatch, Vec<HistoryTable>) {
        let mut rng = Xoshiro256PlusPlus::seed_from(12);
        let mut history: Vec<HistoryTable> = model
            .tables
            .iter()
            .map(|t| HistoryTable::new(t.rows()))
            .collect();
        for (t, h) in history.iter_mut().enumerate() {
            for r in (0..h.rows() as u64).step_by(t + 2) {
                let _ = h.take_delays(r, 2);
            }
        }
        let sparse = model
            .tables
            .iter()
            .map(|t| {
                let idx: Vec<u64> = (0..24).map(|_| rng.next_below(t.rows() as u64)).collect();
                BagIndices::from_samples(&[idx])
            })
            .collect();
        let next = MiniBatch {
            sparse,
            ..MiniBatch::default()
        };
        (next, history)
    }

    /// What one step's flush left: the flushes, the histories, the
    /// counters, and who claimed which table in what order.
    type Drained = (
        Vec<LookaheadFlush>,
        Vec<HistoryTable>,
        KernelCounters,
        Vec<(End, usize)>,
    );

    /// Fills one step's flushes on one thread, claiming from the ends
    /// `schedule` names in turn (its last end repeats until the queue is
    /// empty). Each fill runs under `catch_unwind`, so a kill point that
    /// fires stops that table's fill, not the schedule; the kills are
    /// returned beside the claims.
    fn drain_by_schedule(
        model: &Dlrm,
        schedule: &[End],
        faults: &Faults,
    ) -> (Drained, Vec<(End, usize)>) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (next, mut history) = flush_inputs(model);
        let mut flushes = vec![LookaheadFlush::default(); model.tables.len()];
        let mut counters = KernelCounters::new();
        let (mut claims, mut kills) = (Vec::new(), Vec::new());
        let cfg = LazyDpConfig::paper_default(8);
        let flush = FlushStep::new(&model.tables, QUEUE_ITER, &cfg, faults);
        let queue = flush_queue(&mut flushes, &mut history, &next);
        let noise = CounterNoise::new(4);
        let last = *schedule.last().expect("a non-empty schedule");
        for end in schedule.iter().copied().chain(std::iter::repeat(last)) {
            let Some(job) = claim(&queue, end) else { break };
            let t = job.0;
            claims.push((end, t));
            let fill = catch_unwind(AssertUnwindSafe(|| flush.fill(job, &noise, &mut counters)));
            if fill.is_err() {
                kills.push((end, t));
            }
        }
        drop(queue);
        ((flushes, history, counters, claims), kills)
    }

    #[test]
    fn flush_queue_forced_schedules_fill_every_table_once_like_one_thread() {
        let (model, _) = setup(5, 40, 8);
        let faults = Faults::default();
        let ((want_flushes, want_history, want_counters, front), _) =
            drain_by_schedule(&model, &[End::Front], &faults);
        assert_eq!(
            front.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(
            want_counters.gaussian_samples > 0,
            "the step has pending noise"
        );
        for schedule in [
            &[End::Back][..],
            &[End::Front, End::Back],
            &[End::Back, End::Back, End::Front, End::Back, End::Front],
            &[End::Back, End::Front, End::Front, End::Back],
        ] {
            let ((flushes, history, counters, claims), _) =
                drain_by_schedule(&model, schedule, &faults);
            let mut tables: Vec<usize> = claims.iter().map(|&(_, t)| t).collect();
            tables.sort_unstable();
            assert_eq!(tables, vec![0, 1, 2, 3, 4], "{schedule:?}: each table once");
            // The front hands out 0, 1, …; the back 4, 3, ….
            let (mut lo, mut hi) = (0, 5);
            for &(end, t) in &claims {
                let want = match end {
                    End::Front => {
                        lo += 1;
                        lo - 1
                    }
                    End::Back => {
                        hi -= 1;
                        hi
                    }
                };
                assert_eq!(t, want, "{schedule:?}: {end:?} claimed {t}");
            }
            assert_eq!(flushes, want_flushes, "{schedule:?}: flushes");
            assert_eq!(history, want_history, "{schedule:?}: histories");
            assert_eq!(counters, want_counters, "{schedule:?}: counters");
        }
    }

    #[test]
    fn flush_queue_kill_fires_once_on_the_caller_and_overlap_keeps_its_payload() {
        use lazydp_fault::{FaultKind, FaultPlan, InjectedKill};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Barrier;
        let (model, _) = setup(4, 32, 8);
        let faults = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::MidFlush, QUEUE_ITER, FaultKind::Kill),
            Faults::current,
        );
        // One thread: the worker's end first, then the caller's, which
        // claims table 0. The kill fires once, there.
        let ((_, _, _, claims), kills) =
            drain_by_schedule(&model, &[End::Back, End::Front, End::Back], &faults);
        assert_eq!(claims[1], (End::Front, 0));
        assert_eq!(
            kills,
            vec![(End::Front, 0)],
            "one kill per step, at table 0"
        );

        // Two threads: the caller claims table 0 before the worker starts,
        // dies filling it, and the overlap re-raises the caller's payload
        // after the worker has drained the rest.
        let (next, mut history) = flush_inputs(&model);
        let mut flushes = vec![LookaheadFlush::default(); model.tables.len()];
        let cfg = LazyDpConfig::paper_default(8);
        let flush = FlushStep::new(&model.tables, QUEUE_ITER, &cfg, &faults);
        let queue = flush_queue(&mut flushes, &mut history, &next);
        let noise = CounterNoise::new(4);
        let claimed = Barrier::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Executor::new(2).overlap(
                || {
                    claimed.wait();
                    flush.drain(&queue, End::Back, &noise, &mut KernelCounters::new());
                },
                || {
                    let job = claim(&queue, End::Front).expect("a full queue");
                    claimed.wait();
                    flush.fill(job, &noise, &mut KernelCounters::new());
                },
            )
        }))
        .expect_err("the caller dies at table 0");
        assert_eq!(
            payload.downcast_ref::<InjectedKill>(),
            Some(&InjectedKill {
                site: Site::MidFlush,
                ordinal: QUEUE_ITER
            })
        );
        assert!(
            claim(&queue, End::Front).is_none(),
            "the worker drained the rest"
        );
        drop(queue);
        assert_eq!(
            flushes[0],
            LookaheadFlush::default(),
            "table 0 died unfilled"
        );
        assert!(flushes[1..].iter().all(|f| *f != LookaheadFlush::default()));
    }

    #[test]
    fn a_scoped_kill_plan_follows_the_optimizer_onto_whichever_thread_fills_table_0() {
        use lazydp_fault::{FaultKind, FaultPlan, InjectedKill};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (mut model, ds) = setup(2, 32, 32);
        let batches: Vec<MiniBatch> = (0..3)
            .map(|i| ds.batch_of(&(i * 8..(i + 1) * 8).collect::<Vec<_>>()))
            .collect();
        // Built inside the scope, stepped after it ends: at 4 threads the
        // kill point runs on whichever thread claims table 0 — the
        // overlap worker or the main thread — and neither ever saw the
        // scope.
        let cfg = LazyDpConfig::paper_default(8).with_threads(4);
        let mut opt = lazydp_fault::scoped(
            FaultPlan::new(0).rule(Site::MidFlush, 2, FaultKind::Kill),
            || LazyDpOptimizer::new(cfg, &model, CounterNoise::new(5)),
        );
        opt.step(&mut model, &batches[0], Some(&batches[1]));
        let payload = catch_unwind(AssertUnwindSafe(|| {
            opt.step(&mut model, &batches[1], Some(&batches[2]));
        }))
        .expect_err("iteration 2 dies at the flush");
        assert_eq!(
            payload.downcast_ref::<InjectedKill>(),
            Some(&InjectedKill {
                site: Site::MidFlush,
                ordinal: 2
            })
        );
    }

    #[test]
    fn lazydp_trains_through_lookahead_loader() {
        let (mut model, ds) = setup(2, 64, 256);
        let eval = ds.batch_of(&(0..128).collect::<Vec<_>>());
        let before = model.loss(&eval);
        let cfg = LazyDpConfig::new(DpConfig::new(0.3, 5.0, 0.1, 32), true);
        let mut opt = LazyDpOptimizer::new(cfg.clone(), &model, CounterNoise::new(77));
        let mut loader = lazydp_data::LookaheadLoader::new(FixedBatchLoader::new(ds, 32));
        for _ in 0..40 {
            let (cur, next) = loader.advance();
            let (cur, next) = (cur.clone(), next.clone());
            opt.step(&mut model, &cur, Some(&next));
            let _ = loader.finish_iteration();
        }
        opt.finalize_model(&mut model);
        let after = model.loss(&eval);
        assert!(
            after < before,
            "LazyDP should learn: {before:.4} -> {after:.4}"
        );
    }
}
