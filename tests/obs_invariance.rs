//! Observability must be *observation only*: the released model is
//! bitwise identical whether `lazydp_obs` records or not.
//!
//! This is the determinism half of the `lazydp_obs` contract (the
//! privacy half is lint rule P1 at metric/span call sites): metrics are
//! relaxed atomics and spans only read the wall clock, so no mode may
//! influence a single weight. The sweep covers both instrumented
//! training algorithms end to end — LazyDP (overlap path + finalize)
//! and DP-AdaFEST (private partition selection) — plus the trainer-level
//! accounting calls. Each run's snapshot delta must also hold exactly
//! one sample per step of each front-half phase, and one `trainer.steps`
//! count per step, when counting, and none when off.
//!
//! One `#[test]` only: the obs mode is process-global, so a concurrent
//! test sweeping it would race.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use lazydp::data::{FixedBatchLoader, LookaheadLoader, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{AdaFestConfig, AdaFestOptimizer, DpConfig};
use lazydp::lazy::{LazyDpConfig, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::obs::snapshot::capture_metrics;
use lazydp::obs::{MetricsSnapshot, ObsMode};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

const STEPS: usize = 8;
const BATCH: usize = 16;

fn setup() -> (Dlrm, SyntheticDataset) {
    let mut rng = Xoshiro256PlusPlus::seed_from(67);
    let model = Dlrm::new(DlrmConfig::tiny(3, 64, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, BATCH * (STEPS + 2)));
    (model, ds)
}

fn lazydp_run(model: &Dlrm, ds: &SyntheticDataset) -> Dlrm {
    let q = BATCH as f64 / ds.len() as f64;
    // threads=2 exercises the overlap worker under every obs mode.
    let cfg = LazyDpConfig::new(DpConfig::paper_default(BATCH), true).with_threads(2);
    let mut trainer = PrivateTrainer::make_private(
        model.clone(),
        cfg,
        FixedBatchLoader::new(ds.clone(), BATCH),
        CounterNoise::new(11),
        q,
    );
    let _ = trainer.train_steps(STEPS);
    let _ = trainer.epsilon(1e-6);
    trainer.finish()
}

fn adafest_run(model: &Dlrm, ds: &SyntheticDataset) -> Dlrm {
    let q = BATCH as f64 / ds.len() as f64;
    let cfg = AdaFestConfig::new(DpConfig::paper_default(BATCH), 1.0, 2.0, 16);
    let mut trainer = PrivateTrainer::make_private_optimizer(
        model.clone(),
        AdaFestOptimizer::new(cfg, CounterNoise::new(11)),
        LookaheadLoader::new(FixedBatchLoader::new(ds.clone(), BATCH)),
        q,
    );
    let _ = trainer.train_steps(STEPS);
    trainer.finish()
}

fn assert_identical(kind: &str, mode: ObsMode, a: &Dlrm, b: &Dlrm) {
    for (t, (x, y)) in a.tables.iter().zip(b.tables.iter()).enumerate() {
        assert_eq!(
            x.max_abs_diff(y),
            0.0,
            "{kind} table {t} changed under {mode:?}"
        );
    }
    for l in 0..a.top.layers().len() {
        assert_eq!(
            a.top.layers()[l]
                .weight
                .max_abs_diff(&b.top.layers()[l].weight),
            0.0,
            "{kind} top MLP layer {l} changed under {mode:?}"
        );
    }
}

/// Runs `run` and returns its model with the registry delta it caused.
fn measured(run: impl FnOnce() -> Dlrm) -> (Dlrm, MetricsSnapshot) {
    let before = capture_metrics();
    let model = run();
    (model, capture_metrics().delta_since(&before))
}

/// Every step of a DP optimizer records each front-half phase once and
/// counts itself once in `trainer.steps`.
fn assert_phase_counts(kind: &str, mode: ObsMode, delta: &MetricsSnapshot) {
    let want = if mode == ObsMode::Counters { STEPS } else { 0 };
    for phase in ["step_forward", "step_backward_clip", "step_dense_update"] {
        let name = format!("phase.{phase}_ns");
        let got = delta.histogram(&name).expect("phase histogram").count();
        assert_eq!(got, want as u64, "{kind} `{name}` under {mode:?}");
    }
    let steps = delta.counter("trainer.steps");
    assert_eq!(steps, want as u64, "{kind} `trainer.steps` under {mode:?}");
}

#[test]
fn released_models_are_bitwise_identical_across_obs_modes() {
    let (model, ds) = setup();

    lazydp::obs::set_mode(ObsMode::Off);
    let lazy_ref = lazydp_run(&model, &ds);
    let ada_ref = adafest_run(&model, &ds);

    for mode in [ObsMode::Off, ObsMode::Counters] {
        lazydp::obs::set_mode(mode);
        let (lazy, lazy_delta) = measured(|| lazydp_run(&model, &ds));
        assert_identical("LazyDP", mode, &lazy_ref, &lazy);
        assert_phase_counts("LazyDP", mode, &lazy_delta);
        let (ada, ada_delta) = measured(|| adafest_run(&model, &ds));
        assert_identical("AdaFEST", mode, &ada_ref, &ada);
        assert_phase_counts("AdaFEST", mode, &ada_delta);
    }
    lazydp::obs::set_mode(ObsMode::Counters);
}
