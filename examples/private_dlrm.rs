//! Full private-training walkthrough on a scaled-down MLPerf DLRM.
//!
//! Trains the paper's default model architecture (26 Criteo tables,
//! bottom MLP 13-512-256-128, top MLP 479-…-1, dot interaction) at
//! 20,000× reduced table size, comparing:
//!
//! * non-private SGD,
//! * eager DP-SGD(F) (the paper's strongest baseline),
//! * LazyDP (this paper's contribution),
//!
//! on loss, privacy budget, and measured kernel work — the functional
//! miniature of the paper's Fig. 10.
//!
//! Run with: `cargo run --release --example private_dlrm`

use lazydp::data::{FixedBatchLoader, LookaheadLoader, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{ClipStyle, DpConfig, EagerDpSgd, Optimizer, SgdOptimizer};
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::obs::clock::Stopwatch;
use lazydp::privacy::RdpAccountant;
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

const BATCH: usize = 64;
const STEPS: usize = 30;

fn fresh_model() -> Dlrm {
    let mut rng = Xoshiro256PlusPlus::seed_from(2024);
    // 20,000× scale-down of the 96 GB model ⇒ ≈ 4.8 MB of embeddings.
    Dlrm::new(DlrmConfig::mlperf(20_000), &mut rng)
}

fn dataset() -> SyntheticDataset {
    let cfg = DlrmConfig::mlperf(20_000);
    let mut sc = SyntheticConfig::small(cfg.num_tables(), 1, BATCH * (STEPS + 2));
    sc.table_rows = cfg.table_rows.clone();
    sc.distributions = cfg
        .table_rows
        .iter()
        .map(|&r| lazydp::data::AccessDistribution::uniform(r))
        .collect();
    SyntheticDataset::new(sc)
}

fn main() {
    let ds = dataset();
    let eval = ds.batch_of(&(0..256).collect::<Vec<_>>());
    let dp = DpConfig::paper_default(BATCH);

    // --- non-private SGD ------------------------------------------------
    let mut sgd_model = fresh_model();
    let mut sgd = SgdOptimizer::new(0.05);
    let before = sgd_model.loss(&eval);
    let t0 = Stopwatch::start();
    let mut loader = LookaheadLoader::new(FixedBatchLoader::new(ds.clone(), BATCH));
    for _ in 0..STEPS {
        let (cur, _) = loader.advance();
        let cur = cur.clone();
        sgd.step(&mut sgd_model, &cur, None);
        let _ = loader.finish_iteration();
    }
    let sgd_time = t0.elapsed();
    println!(
        "SGD:        loss {before:.4} -> {:.4} | {:>10} noise samples | {:?}",
        sgd_model.loss(&eval),
        sgd.counters().gaussian_samples,
        sgd_time
    );

    // --- eager DP-SGD(F) --------------------------------------------------
    let mut f_model = fresh_model();
    let mut dpf = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(3));
    let t0 = Stopwatch::start();
    let mut loader = LookaheadLoader::new(FixedBatchLoader::new(ds.clone(), BATCH));
    for _ in 0..STEPS {
        let (cur, _) = loader.advance();
        let cur = cur.clone();
        dpf.step(&mut f_model, &cur, None);
        let _ = loader.finish_iteration();
    }
    let f_time = t0.elapsed();
    println!(
        "DP-SGD(F):  loss {before:.4} -> {:.4} | {:>10} noise samples | {:?}",
        f_model.loss(&eval),
        dpf.counters().gaussian_samples,
        f_time
    );

    // --- LazyDP -----------------------------------------------------------
    let mut l_model = fresh_model();
    let cfg = LazyDpConfig::new(dp, true);
    let mut lazy = LazyDpOptimizer::new(cfg, &l_model, CounterNoise::new(3));
    let t0 = Stopwatch::start();
    let mut loader = LookaheadLoader::new(FixedBatchLoader::new(ds, BATCH));
    for _ in 0..STEPS {
        let (cur, next) = loader.advance();
        let (cur, next) = (cur.clone(), next.clone());
        lazy.step(&mut l_model, &cur, Some(&next));
        let _ = loader.finish_iteration();
    }
    lazy.finalize_model(&mut l_model);
    let l_time = t0.elapsed();
    println!(
        "LazyDP:     loss {before:.4} -> {:.4} | {:>10} noise samples | {:?}",
        l_model.loss(&eval),
        lazy.counters().gaussian_samples,
        l_time
    );

    // --- privacy accounting (identical for DP-SGD(F) and LazyDP) ----------
    let mut acc = RdpAccountant::new();
    let q = BATCH as f64 / (BATCH * (STEPS + 2)) as f64;
    acc.compose(dp.noise_multiplier, q, STEPS as u64);
    let (eps, order) = acc.epsilon(1e-6);
    println!("\nprivacy spent: ε = {eps:.3} at δ = 1e-6 (best order α = {order})");
    println!(
        "noise-sampling reduction (LazyDP vs eager): {:.0}×",
        dpf.counters().gaussian_samples as f64 / lazy.counters().gaussian_samples as f64
    );
    println!("(at the paper's 96 GB scale the same ratio reaches ~1000× — run `figures e13`)");
}
