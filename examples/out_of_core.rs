//! Out-of-core training: embedding tables bigger than their page cache.
//!
//! The storage tentpole end to end: a DLRM whose embedding tables are
//! spilled to disk pages (`lazydp_store::StoredTable`) with a page
//! cache deliberately sized to ~12% of each table, trained through the
//! full LazyDP pipeline (the lookahead flush, whose view of step
//! *t+1*'s rows also drives page prefetch), then released and compared
//! against the in-memory run:
//!
//! * the released models must be **bitwise identical** — paging changes
//!   where rows live, never their values;
//! * the cache counters show the table genuinely did not fit (evictions
//!   and dirty write-backs are non-zero).
//!
//! Run with: `cargo run --release --example out_of_core`

use lazydp::data::{AccessDistribution, FixedBatchLoader, SyntheticConfig, SyntheticDataset};
use lazydp::embedding::EmbeddingStorage;
use lazydp::lazy::{LazyDpConfig, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;
use lazydp::store::{StorageConfig, StoredTable};

fn main() {
    let tables = 2usize;
    let rows = 4096u64;
    let batch = 64usize;
    let samples = 2048usize;
    let steps = 12usize;

    let mut rng = Xoshiro256PlusPlus::seed_from(13);
    let model = Dlrm::new(DlrmConfig::tiny(tables, rows, 16), &mut rng);
    let make_loader = || {
        let cfg = SyntheticConfig::small(tables, rows, samples).with_distributions(
            (0..tables)
                .map(|_| AccessDistribution::zipf(rows, 0.9))
                .collect(),
        );
        FixedBatchLoader::new(SyntheticDataset::new(cfg), batch)
    };
    let q = batch as f64 / samples as f64;

    // 16-row pages → 256 pages per table; a 32-page cache keeps at most
    // ~12% of each table resident.
    let storage = StorageConfig::new().with_page_rows(16).with_cache_pages(32);
    let cfg = LazyDpConfig::paper_default(batch);

    // In-memory reference.
    let mut mem = PrivateTrainer::make_private(
        model.clone(),
        cfg.clone(),
        make_loader(),
        CounterNoise::new(5),
        q,
    );
    let _ = mem.train_steps(steps);
    let mem_model = mem.finish();

    // Disk-backed run: same model spilled to the paged storage engine,
    // same batches, same noise seed.
    let model = model
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &storage))
        .expect("spill directory must be writable");
    let mut stored =
        PrivateTrainer::make_private(model, cfg, make_loader(), CounterNoise::new(5), q);
    let _ = stored.train_steps(steps);
    let stored_model = stored.finish();

    println!("trained {steps} steps on both backends:\n");
    let mut worst = 0.0f32;
    for (t, (st, mt)) in stored_model
        .tables
        .iter()
        .zip(mem_model.tables.iter())
        .enumerate()
    {
        let footprint = st.bytes();
        let resident_cap = (st.cache_pages() * st.page_rows() * st.dim() * 4) as u64;
        assert!(
            st.cache_pages() < st.total_pages(),
            "the example must configure a cache smaller than the table \
             ({} pages cached of {})",
            st.cache_pages(),
            st.total_pages()
        );
        println!(
            "  table {t}: {:>4} KiB logical, ≤{:>3} KiB resident ({} of {} pages)",
            footprint / 1024,
            resident_cap / 1024,
            st.cache_pages(),
            st.total_pages(),
        );
        worst = worst.max(st.to_dense_table().max_abs_diff(mt));
    }
    // Cache traffic (hits, misses, evictions, spilled/loaded bytes) for
    // the whole run, straight from the lazydp_obs registry: every
    // per-table `PageCache` mirrors its counters into the shared
    // `store.*` metrics, and the exporter is the sanctioned way to
    // surface them outside the bench harness.
    println!();
    lazydp::obs::export::print_store_summary();
    println!("\nmax |Δ| between released models (stored vs memory): {worst}");
    assert_eq!(
        worst, 0.0,
        "out-of-core training must release the bitwise-identical model"
    );
    println!("out-of-core run released the bitwise-identical model ✓");
}
