//! Sharded sparse state + async input pipeline, end to end.
//!
//! Demonstrates the two scaling levers on top of the plain quickstart:
//!
//! * `LazyDpConfig::with_shards(S)` hash-partitions each table's
//!   pending-noise bookkeeping into `S` shards whose flush runs
//!   shard-parallel, overlapped with the dense compute;
//! * A `PrefetchLoader` under the trainer generates batches on a
//!   background thread (double buffering), so input generation is off
//!   the critical path and the next batch's indices are in view before
//!   each step.
//!
//! Both levers are *bitwise invisible* in the trained model — this
//! example trains every (shards, pipeline) combination and verifies all
//! of them produce the identical model.
//!
//! Run with: `cargo run --release --example sharded_pipeline`

use lazydp::data::{FixedBatchLoader, PrefetchLoader, SyntheticConfig, SyntheticDataset};
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

fn main() {
    let mut rng = Xoshiro256PlusPlus::seed_from(11);
    let model = Dlrm::new(DlrmConfig::tiny(4, 2000, 16), &mut rng);
    let make_loader = || {
        let ds = SyntheticDataset::new(SyntheticConfig::small(4, 2000, 2048));
        FixedBatchLoader::new(ds, 128)
    };
    let q = 128.0 / 2048.0;
    let steps = 24;

    let mut released: Vec<(String, Dlrm)> = Vec::new();
    for shards in [1usize, 4] {
        let cfg = LazyDpConfig::paper_default(128).with_shards(shards);
        // Synchronous pipeline.
        let mut sync = PrivateTrainer::make_private(
            model.clone(),
            cfg.clone(),
            make_loader(),
            CounterNoise::new(5),
            q,
        );
        let _ = sync.train_steps(steps);
        released.push((format!("sync,     S={shards}"), sync.finish()));
        // Async double-buffered pipeline.
        let opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(5));
        let mut pre = PrivateTrainer::make_private_optimizer(
            model.clone(),
            opt,
            PrefetchLoader::new(make_loader()),
            q,
        );
        let _ = pre.train_steps(steps);
        released.push((format!("prefetch, S={shards}"), pre.finish()));
    }

    let (base_label, base) = &released[0];
    println!(
        "trained {steps} steps under {} configurations:",
        released.len()
    );
    for (label, m) in &released {
        let mut diff = 0.0f32;
        for (a, b) in base.tables.iter().zip(m.tables.iter()) {
            diff = diff.max(a.max_abs_diff(b));
        }
        println!("  {label}: max |Δ| vs {base_label} = {diff}");
        assert_eq!(diff, 0.0, "configurations must be bitwise identical");
    }
    println!("\nall configurations released the bitwise-identical model ✓");
}
