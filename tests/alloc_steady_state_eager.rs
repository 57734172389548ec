//! Steady-state allocation accounting for eager DP-SGD(F).
//!
//! The contract: with a single noise thread and in-memory tables, an
//! `EagerDpSgd::step` allocates **zero** heap bytes once warm-up has
//! sized the scratch — the dense noisy update draws every row through
//! one stack block per chunk. See `alloc_common` for the harness; this
//! file holds exactly one test so no concurrent thread pollutes the
//! counters.

mod alloc_common;

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{ClipStyle, DpConfig, EagerDpSgd, Optimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

#[test]
fn steady_state_eager_fast_step_allocates_zero_bytes() {
    let mut rng = Xoshiro256PlusPlus::seed_from(29);
    let mut model = Dlrm::new(DlrmConfig::tiny(3, 64, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, 128));
    let batch_size = 16usize;
    let batches: Vec<MiniBatch> = (0..4)
        .map(|i| ds.batch_of(&(i * batch_size..(i + 1) * batch_size).collect::<Vec<_>>()))
        .collect();

    let cfg = DpConfig::new(0.8, 1.0, 0.05, batch_size).with_threads(1);
    let mut opt = EagerDpSgd::new(cfg, ClipStyle::Fast, CounterNoise::new(31));

    alloc_common::assert_steady_state_zero_alloc("eager DP-SGD(F)", 8, 4, |i| {
        opt.step(&mut model, &batches[i % batches.len()], None);
    });
}
