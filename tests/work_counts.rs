//! Work counts pinned per step, by formula.
//!
//! The noise bits may change on purpose (a new counter hash re-pins the
//! release digests); the work a step does must not. On a small fixed
//! shape, three steps of each algorithm must each draw and write
//! exactly:
//!
//! | algorithm           | `gaussian_samples`                                         | `table_rows_written`                  |
//! |---------------------|------------------------------------------------------------|---------------------------------------|
//! | SGD                 | 0                                                          | the batch's distinct rows             |
//! | eager               | all table rows × dim + MLP parameters                      | all table rows                        |
//! | EANA                | the batch's distinct rows × dim + MLP                      | the batch's distinct rows             |
//! | AdaFEST, select-all | all table rows × dim + one count per partition + MLP       | all table rows                        |
//! | LazyDP              | the next batch's distinct rows × dim + MLP                 | distinct rows of current ∪ next batch |
//! | LazyDP(w/o ANS)     | Σ over those rows of the iterations they missed × dim + MLP | as LazyDP                            |
//!
//! (LazyDP with ANS draws one aggregated vector per row it flushes,
//! and it flushes each of the next batch's distinct rows once a step;
//! without ANS it draws one vector per missed iteration, read off a
//! reference history.) Every count is summed over tables. The DP
//! algorithms run at executor widths 1 and 2; SGD, eager and LazyDP
//! also on `StoredTable`s at width 1, where they count exactly as in
//! memory.
//!
//! LazyDP's release (`finalize_model`) reads every row's history and
//! flushes the rows that owe noise: `history_reads` = all rows,
//! `history_writes` = `table_rows_written` = the owing rows,
//! `gaussian_samples` = those rows × dim with ANS, Σ of their delays ×
//! dim without. A second release reads the history again and does
//! nothing else: on `StoredTable`s it touches no page.
//!
//! Eager's executor regions per step are pinned: one sweep region per
//! table plus the step's fixed MLP and GEMM regions, a measured number.
//! So are LazyDP's, at widths 1 and 2, with the rows it plans for noise
//! each step (the next batch's distinct rows, read off the reference
//! history).
//! The obs registry behind that count is process-global, so every test
//! here holds one lock.

#![allow(clippy::disallowed_methods)]

use lazydp::data::{BatchSource, FixedBatchLoader, LookaheadLoader, MiniBatch};
use lazydp::data::{SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{
    AdaFestConfig, AdaFestOptimizer, ClipStyle, DpConfig, EagerDpSgd, EanaOptimizer,
    KernelCounters, Optimizer, SgdOptimizer,
};
use lazydp::embedding::EmbeddingStorage;
use lazydp::lazy::{AccountedOptimizer, LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::obs::snapshot::capture_metrics;
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;
use lazydp::store::{StorageConfig, StoredTable};
use std::sync::{Mutex, MutexGuard, PoisonError};

const TABLES: usize = 3;
const ROWS: u64 = 64;
const DIM: usize = 8;
const BATCH: usize = 16;
const STEPS: usize = 3;
/// AdaFEST partition size: 64 rows make 7 partitions, the last short.
const PARTITION_ROWS: usize = 10;

/// Held by every test: the obs registry is process-global.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn model() -> Dlrm {
    Dlrm::new(
        DlrmConfig::tiny(TABLES, ROWS, DIM),
        &mut Xoshiro256PlusPlus::seed_from(29),
    )
}

/// [`model`] on `StoredTable`s of 5-row pages with two frames.
fn stored_model() -> Dlrm<StoredTable> {
    let scfg = StorageConfig::new().with_page_rows(5).with_cache_pages(2);
    model()
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
        .expect("spill dir must be writable")
}

fn loader() -> FixedBatchLoader {
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, 128));
    FixedBatchLoader::new(ds, BATCH)
}

/// The batches the trainers step on: step `i` takes batch `i` with
/// batch `i + 1` as its lookahead.
fn batches() -> Vec<MiniBatch> {
    let mut l = loader();
    (0..=STEPS).map(|_| l.next_batch()).collect()
}

fn mlp_params(m: &Dlrm) -> u64 {
    (m.bottom.params() + m.top.params()) as u64
}

/// Σ over tables of the distinct rows of `batches` together.
fn distinct_rows(batches: &[&MiniBatch]) -> u64 {
    (0..TABLES)
        .map(|t| {
            let mut rows: Vec<u64> = batches
                .iter()
                .flat_map(|b| b.sparse[t].unique_rows().iter().copied())
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len() as u64
        })
        .sum()
}

/// The `(gaussian_samples, table_rows_written)` of each step.
fn per_step(counters: &[KernelCounters]) -> Vec<(u64, u64)> {
    counters
        .windows(2)
        .map(|w| {
            let d = w[1].delta_since(&w[0]);
            assert_eq!(d.steps, 1);
            (d.gaussian_samples, d.table_rows_written)
        })
        .collect()
}

/// Steps a [`PrivateTrainer`] one step at a time, recording its
/// counters before the first step and after each.
fn trainer_counts<T: EmbeddingStorage, O: AccountedOptimizer<T>>(
    model: Dlrm<T>,
    optimizer: O,
) -> Vec<(u64, u64)> {
    let mut trainer = PrivateTrainer::make_private_optimizer(
        model,
        optimizer,
        LookaheadLoader::new(loader()),
        0.125,
    );
    let mut counters = vec![trainer.counters()];
    for _ in 0..STEPS {
        trainer.train_steps(1);
        counters.push(trainer.counters());
    }
    per_step(&counters)
}

/// Steps `opt` on `model` over [`batches`] in a bare loop, recording its
/// counters before the first step and after each.
fn loop_counters<T: EmbeddingStorage>(
    model: &mut Dlrm<T>,
    opt: &mut impl Optimizer<T>,
) -> Vec<KernelCounters> {
    let b = batches();
    let mut counters = vec![opt.counters()];
    for i in 0..STEPS {
        opt.step(model, &b[i], Some(&b[i + 1]));
        counters.push(opt.counters());
    }
    counters
}

fn dp(threads: usize) -> DpConfig {
    DpConfig::new(0.8, 1.0, 0.05, BATCH).with_threads(threads)
}

fn sgd_want() -> Vec<(u64, u64)> {
    let b = batches();
    (0..STEPS).map(|i| (0, distinct_rows(&[&b[i]]))).collect()
}

fn eager_want() -> Vec<(u64, u64)> {
    let m = model();
    let all_rows = TABLES as u64 * ROWS;
    vec![(all_rows * DIM as u64 + mlp_params(&m), all_rows); STEPS]
}

/// A reference `HistoryTable`: the iteration each row of each table was
/// last flushed at (0 = never).
struct History(Vec<Vec<u64>>);

impl History {
    fn new() -> Self {
        Self(vec![vec![0; ROWS as usize]; TABLES])
    }

    /// Flushes the next batch's distinct rows at iteration `iter`;
    /// returns how many rows it flushed and the iterations they missed,
    /// both summed over the tables.
    fn flush(&mut self, iter: u64, next: &MiniBatch) -> (u64, u64) {
        let (mut rows, mut missed) = (0, 0);
        for (t, last) in self.0.iter_mut().enumerate() {
            for &r in next.sparse[t].unique_rows() {
                rows += 1;
                missed += iter - last[r as usize];
                last[r as usize] = iter;
            }
        }
        (rows, missed)
    }
}

/// LazyDP's per-step counts: `ans` draws one vector per flushed row,
/// otherwise one per iteration the row missed.
fn lazydp_want(ans: bool) -> Vec<(u64, u64)> {
    let (b, m) = (batches(), model());
    let mut history = History::new();
    (0..STEPS)
        .map(|i| {
            let (rows, missed) = history.flush(i as u64 + 1, &b[i + 1]);
            let vectors = if ans { rows } else { missed };
            let written = distinct_rows(&[&b[i], &b[i + 1]]);
            (vectors * DIM as u64 + mlp_params(&m), written)
        })
        .collect()
}

#[test]
fn sgd_writes_each_batchs_distinct_rows_and_draws_nothing() {
    let _serial = serial();
    let mut opt = SgdOptimizer::new(0.05);
    assert_eq!(per_step(&loop_counters(&mut model(), &mut opt)), sgd_want());
}

#[test]
fn eager_noises_every_row_every_step() {
    let _serial = serial();
    for threads in [1, 2] {
        let opt = EagerDpSgd::new(dp(threads), ClipStyle::Fast, CounterNoise::new(5));
        assert_eq!(
            trainer_counts(model(), opt),
            eager_want(),
            "width {threads}"
        );
    }
}

#[test]
fn lazydp_noises_only_the_next_batchs_rows() {
    let _serial = serial();
    let want = lazydp_want(true);
    let mlp = mlp_params(&model());
    // The batches overlap but do not coincide, so the two formulas pin
    // different sets.
    assert!(want.iter().all(|&(g, w)| (g - mlp) / DIM as u64 != w));
    for threads in [1, 2] {
        let cfg = LazyDpConfig::new(dp(threads), true);
        let opt = LazyDpOptimizer::new(cfg, &model(), CounterNoise::new(5));
        assert_eq!(trainer_counts(model(), opt), want, "width {threads}");
    }
}

#[test]
fn lazydp_without_ans_draws_once_per_missed_iteration() {
    let _serial = serial();
    let (with_ans, want) = (lazydp_want(true), lazydp_want(false));
    // From step 2 on some flushed row has missed more than one
    // iteration, so the two variants' formulas differ.
    assert!(want.iter().zip(&with_ans).skip(1).all(|(w, a)| w.0 > a.0));
    for threads in [1, 2] {
        let cfg = LazyDpConfig::new(dp(threads), false);
        let opt = LazyDpOptimizer::new(cfg, &model(), CounterNoise::new(5));
        assert_eq!(trainer_counts(model(), opt), want, "width {threads}");
    }
}

#[test]
fn eana_noises_each_batchs_distinct_rows() {
    let _serial = serial();
    let mlp = mlp_params(&model());
    let want: Vec<_> = sgd_want()
        .into_iter()
        .map(|(_, rows)| (rows * DIM as u64 + mlp, rows))
        .collect();
    for threads in [1, 2] {
        let mut opt = EanaOptimizer::new(dp(threads), CounterNoise::new(5));
        let got = per_step(&loop_counters(&mut model(), &mut opt));
        assert_eq!(got, want, "width {threads}");
    }
}

#[test]
fn select_all_adafest_noises_every_row_and_counts_every_partition() {
    let _serial = serial();
    let partitions = TABLES as u64 * ROWS.div_ceil(PARTITION_ROWS as u64);
    let want: Vec<_> = eager_want()
        .into_iter()
        .map(|(g, rows)| (g + partitions, rows))
        .collect();
    for threads in [1, 2] {
        let cfg = AdaFestConfig::new(dp(threads), 1.0, 0.0, PARTITION_ROWS).select_all();
        let opt = AdaFestOptimizer::new(cfg, CounterNoise::new(5));
        assert_eq!(trainer_counts(model(), opt), want, "width {threads}");
    }
}

#[test]
fn stored_tables_count_like_memory() {
    let _serial = serial();
    let mut sgd = SgdOptimizer::for_storage(0.05);
    let got = per_step(&loop_counters(&mut stored_model(), &mut sgd));
    assert_eq!(got, sgd_want(), "SGD");
    let eager = EagerDpSgd::for_storage(dp(1), CounterNoise::new(5));
    assert_eq!(trainer_counts(stored_model(), eager), eager_want(), "eager");
    let cfg = LazyDpConfig::new(dp(1), true);
    let lazy = LazyDpOptimizer::new(cfg, &model(), CounterNoise::new(5));
    assert_eq!(
        trainer_counts(stored_model(), lazy),
        lazydp_want(true),
        "LazyDP"
    );
}

#[test]
fn release_flush_counts_by_formula() {
    let _serial = serial();
    let b = batches();
    let mut history = History::new();
    for i in 0..STEPS {
        history.flush(i as u64 + 1, &b[i + 1]);
    }
    let delays: Vec<u64> = history
        .0
        .concat()
        .iter()
        .map(|&h| STEPS as u64 - h)
        .collect();
    let owing = delays.iter().filter(|&&d| d > 0).count() as u64;
    let missed: u64 = delays.iter().sum();
    assert!(missed > owing, "some row must owe more than one iteration");
    for ans in [true, false] {
        let vectors = if ans { owing } else { missed };
        let want = KernelCounters {
            gaussian_samples: vectors * DIM as u64,
            table_rows_written: owing,
            table_rows_read: owing,
            history_reads: TABLES as u64 * ROWS,
            history_writes: owing,
            ..KernelCounters::default()
        };
        let mut m = model();
        let cfg = LazyDpConfig::new(dp(1), ans);
        let mut opt = LazyDpOptimizer::new(cfg, &m, CounterNoise::new(5));
        let trained = loop_counters(&mut m, &mut opt)[STEPS];
        opt.finalize_model(&mut m);
        let released = opt.counters();
        assert_eq!(released.delta_since(&trained), want, "ans={ans}");
        let model_bits = |m: &Dlrm| -> Vec<u32> {
            let rows = m.tables.iter().flat_map(|t| t.as_slice());
            rows.map(|w| w.to_bits()).collect()
        };
        let before = model_bits(&m);
        opt.finalize_model(&mut m);
        let again = KernelCounters {
            history_reads: TABLES as u64 * ROWS,
            ..KernelCounters::default()
        };
        assert_eq!(opt.counters().delta_since(&released), again, "ans={ans}");
        assert!(
            model_bits(&m) == before,
            "ans={ans}: a second release moved a row"
        );
    }
}

#[test]
fn a_second_release_on_stored_tables_touches_no_page() {
    let _serial = serial();
    let mut m = stored_model();
    let cfg = LazyDpConfig::new(dp(1), true);
    let mut opt = LazyDpOptimizer::new(cfg, &model(), CounterNoise::new(5));
    let _ = loop_counters(&mut m, &mut opt);
    opt.finalize_model(&mut m);
    let before = capture_metrics();
    opt.finalize_model(&mut m);
    let delta = capture_metrics().delta_since(&before);
    for counter in ["store.hits", "store.misses", "store.write_backs"] {
        assert_eq!(delta.counter(counter), 0, "{counter}");
    }
}

/// The executor regions of one eager step on this shape outside its
/// table sweeps — the forward, the clipped backward and the MLP's noisy
/// update — as measured; no formula is kept for them.
const EAGER_MLP_REGIONS: u64 = 16;

#[test]
fn eager_regions_per_step_are_pinned() {
    let _serial = serial();
    for threads in [1, 2] {
        let mut m = model();
        let mut opt = EagerDpSgd::new(dp(threads), ClipStyle::Fast, CounterNoise::new(5));
        let b = batches();
        for (i, batch) in b.iter().take(STEPS).enumerate() {
            let before = capture_metrics();
            opt.step(&mut m, batch, None);
            let regions = capture_metrics()
                .delta_since(&before)
                .counter("exec.par_regions");
            assert_eq!(
                regions,
                TABLES as u64 + EAGER_MLP_REGIONS,
                "width {threads}, step {i}"
            );
        }
    }
}

/// The executor regions of one LazyDP step on this shape — one flush
/// sampling region per table beside the regions eager's MLP half counts
/// — as measured at both widths; no formula is kept for them.
const LAZYDP_REGIONS: u64 = 19;

#[test]
fn lazydp_regions_and_plan_rows_per_step_are_pinned() {
    let _serial = serial();
    let b = batches();
    let mut history = History::new();
    let plan_rows: Vec<u64> = (0..STEPS)
        .map(|i| history.flush(i as u64 + 1, &b[i + 1]).0)
        .collect();
    for threads in [1, 2] {
        let mut m = model();
        let cfg = LazyDpConfig::new(dp(threads), true);
        let mut opt = LazyDpOptimizer::new(cfg, &m, CounterNoise::new(5));
        for (i, &rows) in plan_rows.iter().enumerate() {
            let before = capture_metrics();
            opt.step(&mut m, &b[i], Some(&b[i + 1]));
            let delta = capture_metrics().delta_since(&before);
            assert_eq!(
                (
                    delta.counter("exec.par_regions"),
                    delta.counter("trainer.noise_plan_rows")
                ),
                (LAZYDP_REGIONS, rows),
                "width {threads}, step {i}"
            );
        }
    }
}
