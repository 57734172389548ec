//! Steady-state allocation accounting for non-private SGD.
//!
//! `SgdOptimizer` owns the same step scratch as the DP optimizers, so
//! once warm-up has sized it a step allocates **zero** heap bytes: the
//! forward, the plain backward (`Dlrm::backward_with` →
//! `Mlp::backward_into` on the scratch's named buffers), the coalesce,
//! and the sparse update all reuse caller-owned buffers. See
//! `alloc_common` for the harness; this file holds exactly one test so
//! no concurrent thread pollutes the counters.

mod alloc_common;

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{Optimizer, SgdOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::Xoshiro256PlusPlus;

#[test]
fn steady_state_sgd_step_allocates_zero_bytes() {
    let mut rng = Xoshiro256PlusPlus::seed_from(37);
    let mut model = Dlrm::new(DlrmConfig::tiny(3, 64, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, 128));
    let batch_size = 16usize;
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();

    let mut opt = SgdOptimizer::new(0.05);

    alloc_common::assert_steady_state_zero_alloc("SGD", 8, 4, |i| {
        opt.step(&mut model, &batches[i % batches.len()], None);
    });
}
