//! Observability must be *observation only*: the released model is
//! bitwise identical whether `LAZYDP_OBS` is off, counters, or trace.
//!
//! This is the determinism half of the `lazydp_obs` contract (the
//! privacy half is lint rule P1 at metric/span call sites): metrics are
//! relaxed atomics and spans only read the wall clock, so no mode may
//! influence a single weight. The sweep covers both instrumented
//! training algorithms end to end — LazyDP (overlap path + finalize)
//! and DP-AdaFEST (private partition selection) — plus the trainer-level
//! accounting calls.
//!
//! One `#[test]` only: the obs mode is process-global, so a concurrent
//! test sweeping it would race.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use lazydp::data::{FixedBatchLoader, LookaheadLoader, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{AdaFestConfig, AdaFestOptimizer, DpConfig};
use lazydp::lazy::{LazyDpConfig, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::obs::ObsMode;
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

#[test]
fn released_models_are_bitwise_identical_across_obs_modes() {
    let (model, ds) = setup();

    lazydp::obs::set_mode(ObsMode::Off);
    let lazy_ref = lazydp_run(&model, &ds);
    let ada_ref = adafest_run(&model, &ds);

    for mode in [ObsMode::Counters, ObsMode::Trace] {
        lazydp::obs::set_mode(mode);
        assert_identical("LazyDP", mode, &lazy_ref, &lazydp_run(&model, &ds));
        assert_identical("AdaFEST", mode, &ada_ref, &adafest_run(&model, &ds));
    }

    // While we hold trace mode: the spans recorded above must export as
    // well-formed chrome://tracing JSON (consumed by the CI trace leg).
    let events = lazydp::obs::trace::take_trace_events();
    assert!(
        !events.is_empty(),
        "trace mode must have recorded step-phase spans"
    );
    assert!(
        events.iter().any(|e| e.name == "step.forward"),
        "forward span missing from trace"
    );
    // The step front half is one body shared by every DP optimizer, so
    // an AdaFEST-only run records the same phase spans LazyDP does (the
    // buffer was drained just above).
    let _ = adafest_run(&model, &ds);
    let events = lazydp::obs::trace::take_trace_events();
    for span in ["step.forward", "step.backward_clip", "step.dense_update"] {
        assert!(
            events.iter().any(|e| e.name == span),
            "AdaFEST step did not record `{span}`"
        );
    }
    lazydp::obs::set_mode(ObsMode::Counters);
}
