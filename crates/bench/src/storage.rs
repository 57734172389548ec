//! Out-of-core storage experiment: cache-capacity sweep of the paged
//! embedding backend on a Zipf trace.
//!
//! For cache capacities of {100%, 50%, 25%, 10%} of the table's pages,
//! the sweep trains the same LazyDP run once in memory and once on the
//! `lazydp_store::StoredTable` backend, recording step wall-clock, page
//! hit rate, and bytes spilled (dirty write-back traffic). Every
//! storage run's released model is asserted bitwise identical to the
//! in-memory reference — the tentpole invariant — so this experiment
//! doubles as an end-to-end check at realistic trace skew.
//!
//! Run at full scale (release) with:
//! `cargo run --release -p lazydp_bench --bin figures -- storage`.

use crate::table::Table;
use lazydp_core::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp_data::{
    AccessDistribution, FixedBatchLoader, PrefetchLoader, SyntheticConfig, SyntheticDataset,
};
use lazydp_dpsgd::DpConfig;
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_obs::MetricsSnapshot;
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;
use lazydp_store::{StorageConfig, StoredTable};
use std::time::Instant;

/// Cache capacities measured, as a fraction of the table's total pages
/// (the {100%, 50%, 25%, 10%} sweep of the issue's acceptance
/// criteria).
pub const CACHE_FRACTIONS: [f64; 4] = [1.0, 0.5, 0.25, 0.10];

/// Builds the model and a Zipf-skewed dataset matching `cfg`'s
/// geometry. Skew is what makes paging interesting: the hot head of the
/// trace stays cached while the cold tail pages in and out.
fn setup(cfg: &DlrmConfig, batch: usize, steps: usize) -> (Dlrm, SyntheticDataset) {
    let mut rng = Xoshiro256PlusPlus::seed_from(29);
    let model = Dlrm::new(cfg.clone(), &mut rng);
    let scfg = SyntheticConfig {
        num_dense: cfg.num_dense,
        table_rows: cfg.table_rows.clone(),
        pooling: cfg.pooling,
        num_samples: batch * (steps + 2),
        distributions: cfg
            .table_rows
            .iter()
            .map(|&r| AccessDistribution::zipf(r, 0.9))
            .collect(),
        seed: 0xcafe,
    };
    (model, SyntheticDataset::new(scfg))
}

/// One storage-backed training run: returns (mean step seconds, the
/// run's `store.*` registry delta, released model). The cache's own
/// counters are not read (rule O1 keeps hot-path state write-only);
/// instead the run is bracketed by two `lazydp_obs` snapshots under
/// `lazydp_fault::exclusive()`, so the delta is exactly this run's
/// traffic. That lock serializes every section of the process that
/// drives a `StoredTable` — the other storage runs (the registry is
/// global; concurrent runs would bleed into each other's counters) and
/// the `faults` experiment, whose process-wide fault plans would
/// otherwise fail this run's spill.
fn stored_run(
    model0: &Dlrm,
    ds: &SyntheticDataset,
    batch: usize,
    steps: usize,
    storage: StorageConfig,
) -> (f64, MetricsSnapshot, Dlrm) {
    let _serial = lazydp_fault::exclusive();
    let cfg = LazyDpConfig::new(DpConfig::paper_default(batch), true);
    let loader = FixedBatchLoader::new(ds.clone(), batch);
    let before = lazydp_obs::snapshot::capture_metrics();
    let model = model0
        .clone()
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &storage))
        .expect("spill dir must be writable");
    let optimizer = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(7));
    let mut trainer = PrivateTrainer::make_private_optimizer(
        model,
        optimizer,
        PrefetchLoader::new(loader),
        batch as f64 / ds.len() as f64,
    );
    let t0 = Instant::now();
    let _ = trainer.train_steps(steps);
    let secs = t0.elapsed().as_secs_f64() / steps as f64;
    let released = trainer.finish();
    let dense = released.map_tables(|_, t: StoredTable| t.to_dense());
    let delta = lazydp_obs::snapshot::capture_metrics().delta_since(&before);
    (secs, delta, dense)
}

/// Hit rate out of a registry delta (0.0 when no faults were counted,
/// e.g. under `LAZYDP_OBS=off`).
fn delta_hit_rate(delta: &MetricsSnapshot) -> f64 {
    let hits = delta.counter("store.hits");
    let faults = hits + delta.counter("store.misses");
    if faults == 0 {
        0.0
    } else {
        hits as f64 / faults as f64
    }
}

/// The in-memory reference run (released model only).
fn memory_run(model0: &Dlrm, ds: &SyntheticDataset, batch: usize, steps: usize) -> Dlrm {
    let cfg = LazyDpConfig::new(DpConfig::paper_default(batch), true);
    let loader = FixedBatchLoader::new(ds.clone(), batch);
    let optimizer = LazyDpOptimizer::new(cfg, model0, CounterNoise::new(7));
    let mut trainer = PrivateTrainer::make_private_optimizer(
        model0.clone(),
        optimizer,
        PrefetchLoader::new(loader),
        batch as f64 / ds.len() as f64,
    );
    let _ = trainer.train_steps(steps);
    trainer.finish()
}

/// The cache-capacity sweep on an explicit model configuration.
///
/// # Panics
///
/// Panics if any storage-backed run's released model differs from the
/// in-memory reference (the bitwise tentpole invariant).
#[must_use]
pub fn storage_sweep_with(cfg: &DlrmConfig, batch: usize, timed_steps: usize) -> Table {
    let page_rows = 16usize;
    let (model0, ds) = setup(cfg, batch, timed_steps);
    let total_pages: usize = cfg
        .table_rows
        .iter()
        .map(|&r| (r as usize).div_ceil(page_rows))
        .sum();
    let pages_per_table = (cfg.table_rows[0] as usize).div_ceil(page_rows);
    let mut t = Table::new(
        "storage",
        "Out-of-core storage — LazyDP step wall-clock, hit rate, and spill traffic vs page-cache capacity (Zipf trace)",
        &[
            "cache (% of pages)",
            "cache pages/table",
            "step (ms)",
            "hit rate",
            "bytes spilled",
            "bytes loaded",
            "max abs diff vs memory",
        ],
    )
    .with_note(&format!(
        "Paged StoredTable backend ({page_rows} rows/page, {total_pages} pages across all \
         tables) vs the in-memory backend on the same Zipf-0.9 trace; every row of this \
         table asserts a bitwise-identical released model. Disk traffic is counted by the \
         clock-eviction page cache (write-backs = bytes spilled). On this container the \
         spill file usually sits in the OS page cache, so wall-clock deltas understate \
         real disk; re-run on a machine with a cold spill device for I/O-bound numbers. \
         Full-scale release run: cargo run --release -p lazydp_bench --bin figures -- \
         storage (batch {batch}, {timed_steps} timed steps)."
    ));
    let reference = memory_run(&model0, &ds, batch, timed_steps);
    for &frac in &CACHE_FRACTIONS {
        let cache_pages = ((pages_per_table as f64 * frac).round() as usize).max(1);
        let storage = StorageConfig::new()
            .with_page_rows(page_rows)
            .with_cache_pages(cache_pages);
        let (secs, delta, released) = stored_run(&model0, &ds, batch, timed_steps, storage);
        let mut diff = 0.0f32;
        for (a, b) in reference.tables.iter().zip(released.tables.iter()) {
            diff = diff.max(a.max_abs_diff(b));
        }
        assert_eq!(
            diff, 0.0,
            "storage backend at {frac}×cache must release the identical model"
        );
        t.push_row(vec![
            format!("{:.0}%", frac * 100.0),
            cache_pages.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.3}", delta_hit_rate(&delta)),
            delta.counter("store.bytes_spilled").to_string(),
            delta.counter("store.bytes_loaded").to_string(),
            format!("{diff}"),
        ]);
    }
    t
}

/// The registered experiment. Release builds measure a scaled-down
/// MLPerf-shaped model; debug builds (the test registry) use a tiny
/// model so the suite stays fast.
#[must_use]
pub fn storage_sweep() -> Table {
    if cfg!(debug_assertions) {
        storage_sweep_with(&DlrmConfig::tiny(2, 512, 16), 8, 2)
    } else {
        // 16k rows × 16 rows/page = 1024 pages per table, so the
        // {100, 50, 25, 10}% capacities are genuinely distinct.
        storage_sweep_with(&DlrmConfig::tiny(2, 16_384, 16), 64, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_fractions_and_proves_identity() {
        let t = storage_sweep_with(&DlrmConfig::tiny(2, 256, 8), 8, 1);
        assert_eq!(t.rows.len(), CACHE_FRACTIONS.len());
        for row in &t.rows {
            let ms: f64 = row[2].parse().expect("numeric step time");
            assert!(ms >= 0.0);
            let hit: f64 = row[3].parse().expect("numeric hit rate");
            assert!((0.0..=1.0).contains(&hit), "hit rate {hit}");
            assert_eq!(row[6], "0", "bitwise identity recorded in the table");
        }
        // Shrinking the cache can only increase loads from disk: the
        // 100% row never evicts, so its load count (distinct pages
        // touched) is the structural minimum. Skipped when
        // LAZYDP_STORE_PAGES pins every row to the same capacity —
        // concurrent-prefetch jitter then makes the rows incomparable —
        // and under LAZYDP_OBS=off, where the counter columns are zero.
        if std::env::var(lazydp_store::CACHE_PAGES_ENV).is_err() && lazydp_obs::counters_enabled() {
            let loads: Vec<u64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
            assert!(
                loads[0] <= *loads.last().unwrap(),
                "a 10% cache cannot load less than a 100% cache: {loads:?}"
            );
        }
    }
}
