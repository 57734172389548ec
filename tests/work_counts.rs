//! Work counts pinned per step, by formula.
//!
//! The noise bits may change on purpose (a new counter hash re-pins the
//! release digests); the work a step does must not. For SGD, eager
//! DP-SGD(F) and LazyDP (ANS), on a small fixed shape, three steps at
//! executor widths 1 and 2 must each draw and write exactly:
//!
//! | algorithm | `gaussian_samples`                          | `table_rows_written`                    |
//! |-----------|---------------------------------------------|-----------------------------------------|
//! | SGD       | 0                                           | the batch's distinct rows               |
//! | eager     | all table rows × dim + MLP parameters       | all table rows                          |
//! | LazyDP    | the next batch's distinct rows × dim + MLP  | distinct rows of current ∪ next batch   |
//!
//! (LazyDP with ANS draws one aggregated vector per row it flushes,
//! and it flushes each of the next batch's distinct rows once a step.)
//! Every count is summed over tables.

use lazydp::data::{BatchSource, FixedBatchLoader, LookaheadLoader, MiniBatch};
use lazydp::data::{SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{ClipStyle, DpConfig, EagerDpSgd, KernelCounters, Optimizer, SgdOptimizer};
use lazydp::lazy::{AccountedOptimizer, LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

const TABLES: usize = 3;
const ROWS: u64 = 64;
const DIM: usize = 8;
const BATCH: usize = 16;
const STEPS: usize = 3;

fn model() -> Dlrm {
    Dlrm::new(
        DlrmConfig::tiny(TABLES, ROWS, DIM),
        &mut Xoshiro256PlusPlus::seed_from(29),
    )
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
fn trainer_counts<O: AccountedOptimizer>(optimizer: O) -> Vec<(u64, u64)> {
    let mut trainer = PrivateTrainer::make_private_optimizer(
        model(),
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

fn dp(threads: usize) -> DpConfig {
    DpConfig::new(0.8, 1.0, 0.05, BATCH).with_threads(threads)
}

#[test]
fn sgd_writes_each_batchs_distinct_rows_and_draws_nothing() {
    let b = batches();
    let mut m = model();
    let mut opt = SgdOptimizer::new(0.05);
    let mut counters = vec![opt.counters()];
    for i in 0..STEPS {
        opt.step(&mut m, &b[i], Some(&b[i + 1]));
        counters.push(opt.counters());
    }
    let want: Vec<_> = (0..STEPS).map(|i| (0, distinct_rows(&[&b[i]]))).collect();
    assert_eq!(per_step(&counters), want);
}

#[test]
fn eager_noises_every_row_every_step() {
    let m = model();
    let all_rows: u64 = m.tables.iter().map(|t| t.rows() as u64).sum();
    let want = vec![(all_rows * DIM as u64 + mlp_params(&m), all_rows); STEPS];
    for threads in [1, 2] {
        let opt = EagerDpSgd::new(dp(threads), ClipStyle::Fast, CounterNoise::new(5));
        assert_eq!(trainer_counts(opt), want, "width {threads}");
    }
}

#[test]
fn lazydp_noises_only_the_next_batchs_rows() {
    let b = batches();
    let m = model();
    let want: Vec<_> = (0..STEPS)
        .map(|i| {
            let flushed = distinct_rows(&[&b[i + 1]]);
            let written = distinct_rows(&[&b[i], &b[i + 1]]);
            (flushed * DIM as u64 + mlp_params(&m), written)
        })
        .collect();
    // The batches overlap but do not coincide, so the two formulas pin
    // different sets.
    assert!(want
        .iter()
        .all(|&(g, w)| (g - mlp_params(&m)) / DIM as u64 != w));
    for threads in [1, 2] {
        let cfg = LazyDpConfig::new(dp(threads), true);
        let opt = LazyDpOptimizer::new(cfg, &m, CounterNoise::new(5));
        assert_eq!(trainer_counts(opt), want, "width {threads}");
    }
}
