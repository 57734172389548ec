//! LazyDP at the paper's **true 96 GB scale** — the real optimizer, on a
//! laptop.
//!
//! Eager DP-SGD's dense noisy update is the reason the paper needed a
//! 256 GB server: every iteration touches all 187,767,399 embedding
//! rows (24 billion Gaussian draws + a 96 GB stream). LazyDP touches
//! `O(batch)` rows — so the full-size MLPerf DLRM (26 Criteo tables,
//! dim 128) is built here on `StoredTable::init_uniform` tables, whose
//! rows are a pure function of `(seed, row)` until training dirties
//! their page, and trained with the same `LazyDpOptimizer` +
//! `PrivateTrainer` every test and benchmark drives: forward, fused
//! clipped backward, MLP noise, lookahead flush with ANS, the 751 MB
//! HistoryTable, and the accountant's ε.
//!
//! The run stops without `finalize`: releasing the model means flushing
//! the pending noise of every row — the one dense sweep LazyDP owes, and
//! 96 GB of spill here. What eager DP-SGD would have paid per step is
//! reported instead, priced at the Gaussian rate this run measures.
//!
//! Run with: `cargo run --release --example terabyte_scale`

use lazydp::data::{
    AccessDistribution, LookaheadLoader, PoissonLoader, SyntheticConfig, SyntheticDataset,
};
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::obs::clock::Stopwatch;
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::{RowNoise, Xoshiro256PlusPlus};
use lazydp::store::{StorageConfig, StoredTable};

const BATCH: usize = 2048;
const STEPS: usize = 20;
/// Dataset length: Poisson sampling at `q = BATCH / SAMPLES = 1/2000`.
const SAMPLES: usize = BATCH * 2000;
const DELTA: f64 = 1e-6;

/// Peak resident set of this process in MB (`VmHWM`), where the OS
/// reports one.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn main() {
    let config = DlrmConfig::mlperf(1);
    // 2 KiB pages (4 rows) keep the write-back of a uniformly-touched
    // row close to the row itself; ≤ 16 MiB of cache per table.
    let storage = StorageConfig::new()
        .with_page_rows(4)
        .with_cache_pages(8192);

    println!("building the full-size MLPerf DLRM on lazily-initialised stored tables…");
    let t0 = Stopwatch::start();
    let mut rng = Xoshiro256PlusPlus::seed_from(1);
    let model = Dlrm::try_new_with(config.clone(), &mut rng, |rows, dim, rng| {
        StoredTable::init_uniform(rows, dim, rng, &storage)
    })
    .expect("spill directory must be writable");
    println!(
        "  {} tables, {} rows × {} = {:.1} GB logical, built in {:?}",
        config.num_tables(),
        config.total_rows(),
        config.embedding_dim,
        config.embedding_bytes() as f64 / 1e9,
        t0.elapsed()
    );
    let optimizer = LazyDpOptimizer::new(
        LazyDpConfig::paper_default(BATCH),
        &model,
        CounterNoise::new(7),
    );
    println!(
        "  HistoryTable: {:.0} MB (paper §7.2: 751 MB)\n",
        optimizer.history_bytes() as f64 / 1e6
    );

    let dataset = SyntheticDataset::new(SyntheticConfig {
        num_dense: config.num_dense,
        table_rows: config.table_rows.clone(),
        pooling: config.pooling,
        num_samples: SAMPLES,
        distributions: config
            .table_rows
            .iter()
            .map(|&rows| AccessDistribution::uniform(rows))
            .collect(),
        seed: 0xC0FFEE,
    });
    let loader = PoissonLoader::new(dataset, BATCH, 3);
    let q = loader.sampling_rate();
    let mut trainer =
        PrivateTrainer::make_private_optimizer(model, optimizer, LookaheadLoader::new(loader), q);

    let t0 = Stopwatch::start();
    let _ = trainer.train_steps(STEPS - 1);
    let before_last = trainer.counters();
    let _ = trainer.train_steps(1);
    let train_time = t0.elapsed();
    let counters = trainer.counters();
    let (eps, order) = trainer.epsilon(DELTA);
    assert!(eps.is_finite() && eps > 0.0, "ε = {eps}");

    println!("{STEPS} LazyDP steps @ batch {BATCH} in {train_time:?}");
    println!("  per step: {:?}", train_time / STEPS as u32);
    println!("  privacy spent: ε = {eps:.4} at δ = {DELTA:e} (q = {q:.1e}, RDP order {order})");

    // Every row the last lookahead flushed is up to date; all others
    // still owe noise (no `finalize`, see the module docs).
    let up_to_date = counters.delta_since(&before_last).history_writes;
    println!("\nwork done (counted by the optimizer):");
    println!("  Gaussian draws:      {:>16}", counters.gaussian_samples);
    println!("  table rows written:  {:>16}", counters.table_rows_written);
    println!(
        "  rows owing noise:    {:>16}  of {} (settled at release, not per step)",
        config.total_rows() - up_to_date,
        config.total_rows()
    );

    println!("\nmemory and disk (measured):");
    match peak_rss_mb() {
        Some(mb) => println!("  peak RSS:            {mb:>13.0} MB"),
        None => println!("  peak RSS:            n/a on this OS"),
    }
    lazydp::obs::export::print_store_summary();

    // The Gaussian rate of this host, from re-drawing one step's worth
    // of the run's own samples through the same per-row kernel.
    let dim = config.embedding_dim;
    let redraw_rows = counters.gaussian_samples / STEPS as u64 / dim as u64;
    let mut noise = CounterNoise::new(7);
    let mut buf = vec![0.0f32; dim];
    let t0 = Stopwatch::start();
    for row in 0..redraw_rows {
        noise.fill_unit(0, row, 1, &mut buf);
        std::hint::black_box(&buf);
    }
    let rate = (redraw_rows * dim as u64) as f64 / t0.elapsed().as_secs_f64();

    let eager = (u128::from(config.total_rows()) * dim as u128 + u128::from(config.mlp_params()))
        * STEPS as u128;
    println!("\nwhat eager DP-SGD would have needed for the same {STEPS} steps:");
    println!(
        "  Gaussian draws:      {eager:>16}  ({}× more)",
        eager / u128::from(counters.gaussian_samples.max(1))
    );
    println!(
        "  sampling time alone: {:>13.0} s  (at the {:.1} Msamples/s measured just now)",
        eager as f64 / rate,
        rate / 1e6
    );
    println!("  plus a 96 GB dense noisy-gradient stream per step — unrunnable here.");
    println!("\n✔ the paper's thesis, executed by the optimizer the tests pin: private");
    println!("  training cost tracks the batch, not the table.");
}
