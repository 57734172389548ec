//! Steady-state allocation accounting for the LazyDP training step.
//!
//! The zero-allocation contract: once the first steps have
//! sized every reusable buffer (the per-table `LookaheadFlush` buffers
//! included), `LazyDpOptimizer::step` on a single-width executor over
//! in-memory tables — the inline flush path — performs **zero heap
//! allocations**. The shared harness in
//! `alloc_common` pins that with a counting global allocator; sibling
//! files (`alloc_steady_state_eager.rs`, `_eana.rs`, `_adafest.rs`,
//! `_sgd.rs`) pin the same contract for the other algorithms.
//!
//! Since the fused ghost-clipping backward landed,
//! `LazyDpOptimizer::step` runs `Dlrm::backward_clipped_with` (ghost
//! norms + clip + clipped aggregate in one chain), so the zero-byte
//! assertion below covers the fused path — including its cached-`dz`
//! buffers, which the scratch sizes during warm-up like everything
//! else. (The macro-tiled GEMM driver may allocate per-tile panels,
//! but it only engages on multi-thread executors; this test pins the
//! sequential path.)

mod alloc_common;

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{DpConfig, Optimizer};
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

#[test]
fn steady_state_lazydp_step_allocates_zero_bytes() {
    let mut rng = Xoshiro256PlusPlus::seed_from(17);
    let model_cfg = DlrmConfig::tiny(3, 64, 8);
    let mut model = Dlrm::new(model_cfg, &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, 128));
    let batch_size = 16usize;
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();

    let cfg = LazyDpConfig::new(
        DpConfig::new(0.8, 1.0, 0.05, batch_size).with_threads(1),
        true,
    );
    let mut opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(23));

    alloc_common::assert_steady_state_zero_alloc("LazyDP", 8, 4, |i| {
        let cur = &batches[i % batches.len()];
        let next = &batches[(i + 1) % batches.len()];
        opt.step(&mut model, cur, Some(next));
    });
}
