//! Functional LazyDP at the paper's **true 96 GB scale** — on a laptop.
//!
//! Eager DP-SGD's dense noisy update is the reason the paper needed a
//! 256 GB server: every iteration touches all 187,727,727 embedding
//! rows (24 billion Gaussian draws + a 96 GB stream). LazyDP touches
//! `O(batch)` rows — so with lazily-materialized virtual tables the
//! *real algorithm* (real Box–Muller draws, real ANS, the real 751 MB
//! HistoryTable) runs here at full logical scale.
//!
//! This example trains the embedding side of the full-size MLPerf DLRM
//! (26 Criteo tables, 187.7 M rows, dim 128) for 20 LazyDP iterations at
//! batch 2048, then reports what eager DP-SGD would have had to do.
//!
//! Run with: `cargo run --release --example terabyte_scale`

use lazydp::data::AccessDistribution;
use lazydp::dpsgd::DpConfig;
use lazydp::embedding::{SparseGrad, VirtualTable};
use lazydp::lazy::TerabyteLazyEmbedding;
use lazydp::model::config::CRITEO_TB_CAPPED_ROWS;
use lazydp::obs::clock::Stopwatch;
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

const DIM: usize = 128;
const BATCH: usize = 2048;
const STEPS: usize = 20;

fn main() {
    let dp = DpConfig::paper_default(BATCH);
    let mut rng = Xoshiro256PlusPlus::seed_from(1);

    println!("building 26 virtual Criteo tables (logical 96 GB) + HistoryTables…");
    let t0 = Stopwatch::start();
    let mut tables: Vec<TerabyteLazyEmbedding<CounterNoise>> = CRITEO_TB_CAPPED_ROWS
        .iter()
        .enumerate()
        .map(|(t, &rows)| {
            TerabyteLazyEmbedding::new(
                VirtualTable::new(rows, DIM, 0xC0FFEE + t as u64),
                dp,
                true, // ANS on
                CounterNoise::new(7),
                t as u32,
            )
        })
        .collect();
    let dists: Vec<AccessDistribution> = CRITEO_TB_CAPPED_ROWS
        .iter()
        .map(|&r| AccessDistribution::uniform(r))
        .collect();
    let history_gb: u64 = tables.iter().map(|t| t.history_bytes()).sum();
    println!(
        "  ready in {:?} — HistoryTables: {:.0} MB (paper §7.2: 751 MB)\n",
        t0.elapsed(),
        history_gb as f64 / 1e6
    );

    // Pre-draw the access trace (batch 2048, pooling 1 per table).
    let draw_batch = |rng: &mut Xoshiro256PlusPlus| -> Vec<Vec<u64>> {
        dists.iter().map(|d| d.sample_many(rng, BATCH)).collect()
    };
    let mut cur = draw_batch(&mut rng);
    let t0 = Stopwatch::start();
    for _ in 0..STEPS {
        let next = draw_batch(&mut rng);
        for (t, table) in tables.iter_mut().enumerate() {
            // Synthetic clipped+scaled gradient for the current rows
            // (the MLP side of the model is not the bottleneck and is
            // omitted here; `private_dlrm` covers full training).
            let mut grad = SparseGrad::new(DIM);
            for &r in &cur[t] {
                let e = grad.push_zeros(r);
                e.fill(1e-4);
            }
            let _ = grad.coalesce();
            table.step(&grad, &next[t]);
        }
        cur = next;
    }
    let train_time = t0.elapsed();

    let drawn: u64 = tables.iter().map(|t| t.counters().gaussian_samples).sum();
    let eager: u128 = tables.iter().map(|t| t.eager_equivalent_samples()).sum();
    let resident: u64 = tables.iter().map(|t| t.table().physical_bytes()).sum();
    let touched: usize = tables.iter().map(|t| t.table().materialized_rows()).sum();
    let logical: u64 = tables.iter().map(|t| t.table().logical_bytes()).sum();

    println!("{STEPS} LazyDP iterations @ batch {BATCH} in {train_time:?}");
    println!("  per-iteration: {:?}", train_time / STEPS as u32);
    println!("\nwork done (real, counted):");
    println!("  Gaussian draws:      {drawn:>16}");
    println!(
        "  rows materialized:   {touched:>16}  ({:.1} MB of {:.1} GB logical)",
        resident as f64 / 1e6,
        logical as f64 / 1e9
    );
    println!("\nwhat eager DP-SGD would have needed for the same {STEPS} iterations:");
    println!(
        "  Gaussian draws:      {eager:>16}  ({}× more)",
        eager / u128::from(drawn.max(1))
    );
    // Price the eager draws with this machine's own measured Box–Muller
    // rate (~15 ns/sample, see EXPERIMENTS.md §3).
    let eager_secs = eager as f64 * 15e-9;
    println!(
        "  sampling time alone: {:>13.0} s  (at this host's measured 15 ns/draw)",
        eager_secs
    );
    println!("  plus a 96 GB dense noisy-gradient stream per iteration — unrunnable here.");

    // Row-level release: settle pending noise for a served row.
    let before = tables[0].table().read_row(12345);
    let after = tables[0].flush_row(12345);
    println!("\nrow-level release (flush_row): row 12345 of table 0");
    println!(
        "  pending-noise settled: value moved by {:.2e}",
        lazydp::tensor::vecops::max_abs_diff(&before, &after)
    );
    println!("\n✔ the paper's thesis, executed: private training cost tracks the batch,");
    println!("  not the table — 96 GB of logical model, megabytes of physical state.");
}
