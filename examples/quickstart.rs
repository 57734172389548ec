//! Quickstart: privately train a small DLRM with LazyDP in ~30 lines.
//!
//! Mirrors the paper's Fig. 9(a) user interface: build a model, wrap it
//! with `make_private`, train, read off the (ε, δ) guarantee, and
//! `finish()` to flush pending noise before releasing the model.
//!
//! Run with: `cargo run --release --example quickstart`

use lazydp::data::{PoissonLoader, SyntheticConfig, SyntheticDataset};
use lazydp::lazy::{LazyDpConfig, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

fn main() {
    // A small DLRM: 4 embedding tables × 1k rows, 16-dim embeddings.
    let mut rng = Xoshiro256PlusPlus::seed_from(7);
    let model = Dlrm::new(DlrmConfig::tiny(4, 1000, 16), &mut rng);

    // Synthetic Criteo-style dataset with a planted ground truth.
    let dataset = SyntheticDataset::new(SyntheticConfig::small(4, 1000, 4096));
    let eval = dataset.batch_of(&(0..512).collect::<Vec<_>>());
    let loader = PoissonLoader::new(dataset, 128, 42);
    let q = loader.sampling_rate();

    // LazyDP with the paper's hyper-parameters (σ=1.1, C=1.0, η=0.05).
    let cfg = LazyDpConfig::paper_default(128);
    let mut trainer = PrivateTrainer::make_private(model, cfg, loader, CounterNoise::new(1), q);

    let before = trainer.model().loss(&eval);
    for epoch in 0..4 {
        trainer.train_steps(32);
        let (eps, _) = trainer.epsilon(1e-6);
        println!(
            "epoch {epoch}: loss {:.4} | ε = {eps:.3} (δ = 1e-6)",
            trainer.model().loss(&eval)
        );
    }
    let after = trainer.model().loss(&eval);
    let counters = trainer.counters();

    // Flush all deferred noise before the model leaves the trainer
    // (threat model §3: the adversary sees the *final* model).
    let released = trainer.finish();

    println!("\nloss: {before:.4} -> {after:.4}");
    println!(
        "noise samples drawn: {} (an eager DP-SGD would have drawn {} — {}x more)",
        counters.gaussian_samples,
        // every table element + MLP params, every iteration:
        128 * (released.params()),
        128 * released.params() / counters.gaussian_samples.max(1),
    );

    // Every run records its counters and per-phase durations
    // (`phase.*_ns` histograms); write them out for inspection.
    let metrics_path = std::path::Path::new("quickstart_metrics.json");
    match lazydp::obs::export::write_snapshot_json(metrics_path) {
        Ok(()) => println!("metrics snapshot written to quickstart_metrics.json"),
        Err(e) => eprintln!("metrics export failed: {e}"),
    }
}
