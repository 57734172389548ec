//! DP-AdaFEST walkthrough — sparsity-preserving private training as
//! the repo's fourth algorithm.
//!
//! Three things are demonstrated on one skewed workload:
//!
//! 1. **Sparse noise traffic.** DP-AdaFEST privately selects the
//!    embedding partitions a step actually touched (noisy partition
//!    counts vs a threshold) and adds gradient noise *only there* —
//!    unselected partitions are dropped entirely, so noise work tracks
//!    touched partitions instead of table rows.
//! 2. **Honest accounting.** The selection itself is a release: the
//!    [`PrivateTrainer`] charges the composed `SelectThenNoise`
//!    mechanism each step, so ε reflects both queries.
//! 3. **The differential anchor.** With the threshold at −∞ every
//!    partition is always selected and DP-AdaFEST degenerates —
//!    bit-for-bit — into eager DP-SGD(F). That equivalence is what the
//!    differential-testing harness pins; here it is shown live.
//!
//! Run with: `cargo run --release --example adafest`

use lazydp::data::{
    AccessDistribution, FixedBatchLoader, LookaheadLoader, SkewLevel, SyntheticConfig,
    SyntheticDataset,
};
use lazydp::dpsgd::{AdaFestConfig, AdaFestOptimizer, ClipStyle, DpConfig, EagerDpSgd, Optimizer};
use lazydp::lazy::PrivateTrainer;
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

const TABLES: usize = 3;
const ROWS: u64 = 4096;
const DIM: usize = 16;
const BATCH: usize = 64;
const STEPS: usize = 20;
const DELTA: f64 = 1e-6;

fn fresh_model() -> Dlrm {
    let mut rng = Xoshiro256PlusPlus::seed_from(404);
    Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng)
}

fn dataset() -> SyntheticDataset {
    let dists = (0..TABLES)
        .map(|_| AccessDistribution::for_skew(ROWS, SkewLevel::High))
        .collect();
    let cfg = SyntheticConfig::small(TABLES, ROWS, BATCH * (STEPS + 2)).with_distributions(dists);
    SyntheticDataset::new(cfg)
}

fn main() {
    let ds = dataset();
    let dp = DpConfig::paper_default(BATCH);
    let q = BATCH as f64 / ds.len() as f64;
    let total_rows: u64 = ROWS * TABLES as u64;

    // --- 1+2: sparse noise traffic under honest accounting --------------
    // Partition counts on this mod-S sharding are small, so the
    // selection needs a sharp σ_select; the trainer charges for it.
    // σ_select is relative to the count query's sensitivity — Δ = √3
    // for three one-hot tables — so the realized per-count noise std is
    // 0.15·√3 ≈ 0.26.
    let cfg = AdaFestConfig::new(dp, 0.15, 0.5, 16);
    let mut trainer = PrivateTrainer::make_private_optimizer(
        fresh_model(),
        AdaFestOptimizer::new(cfg, CounterNoise::new(7)),
        LookaheadLoader::new(FixedBatchLoader::new(ds.clone(), BATCH)),
        q,
    );
    trainer.train_steps(STEPS);
    let c = trainer.counters();
    let (eps, order) = trainer.epsilon(DELTA);
    println!("DP-AdaFEST, {STEPS} steps on a Zipf-High trace:");
    println!(
        "  rows noised {:>8} of {} table-rows × {STEPS} steps ({:.1}% of dense)",
        c.table_rows_written,
        total_rows,
        100.0 * c.table_rows_written as f64 / (total_rows * STEPS as u64) as f64,
    );
    println!("  ε = {eps:.2} at δ = {DELTA:.0e} (RDP order {order}, SelectThenNoise)");

    // --- 3: the select-all differential anchor --------------------------
    let mut eager_model = fresh_model();
    let mut eager = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(7));
    let mut ada_model = fresh_model();
    let all_cfg = AdaFestConfig::paper_default(BATCH).select_all();
    let mut ada = AdaFestOptimizer::new(all_cfg, CounterNoise::new(7));
    for i in 0..STEPS {
        let b = ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>());
        eager.step(&mut eager_model, &b, None);
        ada.step(&mut ada_model, &b, None);
    }
    let mut worst = 0.0f32;
    for t in 0..TABLES {
        worst = worst.max(eager_model.tables[t].max_abs_diff(&ada_model.tables[t]));
    }
    println!("select-all AdaFEST vs eager DP-SGD(F): max |Δ| = {worst:e} (must be 0)");
    assert_eq!(worst, 0.0, "select-all differential must be bitwise");
}
