//! A spill device that dies in the middle of a whole-table sweep.
//!
//! Eager DP-SGD(F)'s step and LazyDP's `finalize_model` each write every
//! row of a `StoredTable` in one page-ordered sweep. Here the device
//! fails persistently partway through — its reads in one plan, its
//! writes in the other — and every table must degrade to its resident
//! backend and still release, bitwise, what the in-memory tables
//! release: no row the sweep updated before the failure, or after it,
//! is lost.
//!
//! The tables start as `StoredTable::lazy_uniform`, so nothing is
//! written before the sweep and the failures land at fixed points of
//! it whatever page cache `LAZYDP_STORE_PAGES` forces (at least two
//! frames):
//!
//! * reads: the sweep's first page read succeeds and every later one
//!   fails, so the device dies at page 1 with no page written yet;
//! * writes: the sweep's first eviction write-back lands and every later
//!   one fails, so one page must come back from the device and the
//!   rest from the cache and the fill.

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{DpConfig, EagerDpSgd, Optimizer};
use lazydp::embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp::fault::{FaultKind, FaultPlan, Site};
use lazydp::lazy::{HistoryTable, LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::{Prng, Xoshiro256PlusPlus};
use lazydp::store::{StorageConfig, StoredTable};

const TABLES: usize = 2;
/// Ten pages of four rows per table.
const ROWS: u64 = 40;
const PAGE_ROWS: usize = 4;
const DIM: usize = 4;
const BATCH: usize = 8;

/// The device's reads die at the sweep's second page; every page fits
/// in the cache, so none is written before.
fn dead_reads() -> (FaultPlan, usize) {
    let plan = FaultPlan::new(0).rule(Site::PageRead, 1, FaultKind::Persistent);
    (plan, ROWS as usize / PAGE_ROWS)
}

/// The device's writes die at the sweep's second eviction write-back.
fn dead_writes() -> (FaultPlan, usize) {
    let plan = FaultPlan::new(0).rule(Site::PageWrite, 1, FaultKind::Persistent);
    (plan, 2)
}

fn config() -> DlrmConfig {
    DlrmConfig::tiny(TABLES, ROWS, DIM)
}

/// A uniform-initialised table whose pages nothing has written.
fn lazy_table(rows: usize, dim: usize, rng: &mut Xoshiro256PlusPlus, cache: usize) -> StoredTable {
    let scfg = StorageConfig::new()
        .with_page_rows(PAGE_ROWS)
        .with_cache_pages(cache);
    StoredTable::lazy_uniform(rows, dim, rng.next_u64(), &scfg).expect("spill dir must be writable")
}

/// The same model twice, from the same draws: in memory, and on lazy
/// `StoredTable`s whose spill files follow `plan`.
fn twin_models((plan, cache): (FaultPlan, usize)) -> (Dlrm, Dlrm<StoredTable>) {
    let rng = Xoshiro256PlusPlus::seed_from(8);
    let memory = Dlrm::try_new_with(config(), &mut rng.clone(), |rows, dim, rng| {
        Ok::<_, std::convert::Infallible>(lazy_table(rows, dim, rng, cache).to_dense_table())
    })
    .expect("infallible");
    let stored = lazydp::fault::scoped(plan, || {
        Dlrm::try_new_with(config(), &mut rng.clone(), |rows, dim, rng| {
            Ok::<_, std::convert::Infallible>(lazy_table(rows, dim, rng, cache))
        })
        .expect("infallible")
    });
    (memory, stored)
}

/// Asserts every stored table degraded and holds the memory table's
/// bits, and that the sweep moved exactly the rows `owes` names.
fn assert_degraded_with_the_same_bits(
    stored: &Dlrm<StoredTable>,
    memory: &Dlrm,
    before: &Dlrm,
    owes: impl Fn(usize) -> bool,
) {
    let bits = |t: &EmbeddingTable| t.as_slice().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    for (t, (s, m)) in stored.tables.iter().zip(&memory.tables).enumerate() {
        assert!(s.degraded(), "table {t} must degrade");
        assert!(
            bits(&s.to_dense_table()) == bits(m),
            "table {t} released other bits"
        );
        for r in 0..m.rows() {
            let moved = m.row(r) != before.tables[t].row(r);
            assert_eq!(moved, owes(r), "table {t} row {r}");
        }
    }
}

fn batch() -> MiniBatch {
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, BATCH));
    ds.batch_of(&(0..BATCH).collect::<Vec<_>>())
}

/// One eager DP-SGD(F) step on each twin; an empty (Poisson) batch
/// still noises every row.
fn eager_step(plan: (FaultPlan, usize), batch: &MiniBatch) {
    let (mut memory, mut stored) = twin_models(plan);
    let before = memory.clone();
    let dp = DpConfig::new(0.9, 1.0, 0.05, BATCH);
    let mut on_memory = EagerDpSgd::for_storage(dp, CounterNoise::new(3));
    let mut on_stored = EagerDpSgd::for_storage(dp, CounterNoise::new(3));
    Optimizer::<EmbeddingTable>::step(&mut on_memory, &mut memory, batch, None);
    Optimizer::<StoredTable>::step(&mut on_stored, &mut stored, batch, None);
    assert_degraded_with_the_same_bits(&stored, &memory, &before, |_| true);
}

#[test]
fn dead_reads_mid_eager_sweep_degrade_bitwise() {
    // No forward: the sweep's reads are the step's only reads.
    eager_step(dead_reads(), &MiniBatch::default());
}

#[test]
fn dead_writes_mid_eager_sweep_degrade_bitwise() {
    eager_step(dead_writes(), &batch());
}

/// LazyDP's release at iteration 6 from a history in which row `r` was
/// last flushed at `r % 7` (rows with `r % 7 == 6` owe nothing), on each
/// twin, with and without ANS.
fn lazy_finalize(plan: fn() -> (FaultPlan, usize)) {
    let iter = 6u64;
    let history = || {
        let last = (0..ROWS as u32).map(|r| r % 7).collect::<Vec<_>>();
        vec![HistoryTable::from_raw(last); TABLES]
    };
    for ans in [true, false] {
        let (mut memory, mut stored) = twin_models(plan());
        let before = memory.clone();
        let cfg = LazyDpConfig::new(DpConfig::new(0.9, 1.0, 0.05, BATCH), ans);
        let opt =
            || LazyDpOptimizer::from_state(cfg.clone(), CounterNoise::new(5), history(), iter);
        opt().finalize_model(&mut memory);
        opt().finalize_model(&mut stored);
        assert_degraded_with_the_same_bits(&stored, &memory, &before, |r| r % 7 != 6);
    }
}

#[test]
fn dead_reads_mid_release_flush_degrade_bitwise() {
    lazy_finalize(dead_reads);
}

#[test]
fn dead_writes_mid_release_flush_degrade_bitwise() {
    lazy_finalize(dead_writes);
}
