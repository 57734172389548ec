//! Async input pipeline, end to end.
//!
//! A `PrefetchLoader` under the trainer generates batches on a
//! background thread (double buffering), so input generation is off the
//! critical path and the next batch's indices are in view before each
//! step. Prefetching changes *when* a batch is materialized, never
//! *what* the optimizer sees: this example trains the same model through
//! the synchronous `LookaheadLoader` and through the `PrefetchLoader`
//! and verifies both release the bitwise-identical model.
//!
//! Run with: `cargo run --release --example prefetch_pipeline`

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
    let cfg = LazyDpConfig::paper_default(128);

    // Synchronous pipeline.
    let mut sync = PrivateTrainer::make_private(
        model.clone(),
        cfg.clone(),
        make_loader(),
        CounterNoise::new(5),
        q,
    );
    let _ = sync.train_steps(steps);
    let sync_model = sync.finish();

    // Async double-buffered pipeline.
    let opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(5));
    let mut pre =
        PrivateTrainer::make_private_optimizer(model, opt, PrefetchLoader::new(make_loader()), q);
    let _ = pre.train_steps(steps);
    let pre_model = pre.finish();

    let mut diff = 0.0f32;
    for (a, b) in sync_model.tables.iter().zip(pre_model.tables.iter()) {
        diff = diff.max(a.max_abs_diff(b));
    }
    println!("trained {steps} steps; prefetch vs sync: max |Δ| = {diff}");
    assert_eq!(diff, 0.0, "the pipelines must be bitwise identical");
    println!("both pipelines released the bitwise-identical model ✓");
}
