//! Observability rollup: one short private training run, reported
//! entirely through the `lazydp_obs` metrics registry.
//!
//! The experiment brackets a LazyDP run (async prefetch input pipeline)
//! and a DP-AdaFEST run with two registry snapshots and tabulates the
//! delta — exercising every instrumented subsystem in one place:
//! trainer step counters, noise-plan rows and pending-depth histogram,
//! AdaFEST partition selection, input-queue depth/stalls, executor
//! chunk fan-out, and the spent-ε gauge. It also round-trips the
//! snapshot through `MetricsSnapshot::to_json`/`from_json`, so the
//! schema-versioned exporter is checked on every run (and on the CI
//! `LAZYDP_OBS=trace` leg, which uploads this table as BENCH_obs.json).
//!
//! Under `LAZYDP_OBS=off` every delta is legitimately zero; the table
//! says so rather than failing.
//!
//! Run with: `cargo run --release -p lazydp_bench --bin figures -- obs`
//! (or `json obs > BENCH_obs.json`).

use crate::table::Table;
use lazydp_core::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp_data::{
    FixedBatchLoader, LookaheadLoader, PrefetchLoader, SyntheticConfig, SyntheticDataset,
};
use lazydp_dpsgd::{AdaFestConfig, AdaFestOptimizer, DpConfig};
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_obs::MetricsSnapshot;
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;

/// Steps trained per optimizer in the rollup run.
const STEPS: usize = 6;
const BATCH: usize = 16;

fn setup(tables: usize, rows: u64) -> (Dlrm, SyntheticDataset) {
    let mut rng = Xoshiro256PlusPlus::seed_from(41);
    let model = Dlrm::new(DlrmConfig::tiny(tables, rows, 8), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(tables, rows, BATCH * (STEPS + 2)));
    (model, ds)
}

/// Runs both optimizers and returns the registry delta across them.
/// Concurrent registry writers (parallel tests) can only inflate the
/// delta, never shrink it, so consumers treat the values as lower
/// bounds on "at least this run's work".
fn instrumented_runs() -> MetricsSnapshot {
    let before = lazydp_obs::snapshot::capture_metrics();

    // LazyDP through the async prefetch pipeline (drives the data.*
    // queue metrics as well as the trainer/exec groups).
    let (model, ds) = setup(2, 96);
    let q = BATCH as f64 / ds.len() as f64;
    let cfg = LazyDpConfig::new(DpConfig::paper_default(BATCH), true).with_threads(2);
    let optimizer = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(23));
    let loader = PrefetchLoader::new(FixedBatchLoader::new(ds, BATCH));
    let mut trainer = PrivateTrainer::make_private_optimizer(model, optimizer, loader, q);
    let _ = trainer.train_steps(STEPS);
    let _ = trainer.epsilon(1e-6);
    let _ = trainer.finish();

    // DP-AdaFEST (drives the adafest.* partition-selection counters).
    let (model, ds) = setup(2, 96);
    let q = BATCH as f64 / ds.len() as f64;
    let cfg = AdaFestConfig::new(DpConfig::paper_default(BATCH), 1.0, 2.0, 16);
    let optimizer = AdaFestOptimizer::new(cfg, CounterNoise::new(23));
    let loader = LookaheadLoader::new(FixedBatchLoader::new(ds, BATCH));
    let mut trainer = PrivateTrainer::make_private_optimizer(model, optimizer, loader, q);
    let _ = trainer.train_steps(STEPS);
    let _ = trainer.finish();

    lazydp_obs::snapshot::capture_metrics().delta_since(&before)
}

/// The registered `obs` experiment.
///
/// # Panics
///
/// Panics if the snapshot does not survive a JSON round-trip — the
/// exporter schema is part of this experiment's contract.
#[must_use]
pub fn obs_rollup() -> Table {
    let delta = instrumented_runs();

    // The schema-versioned exporter must round-trip losslessly.
    let json = delta.to_json();
    let back = MetricsSnapshot::from_json(&json).expect("snapshot JSON must parse back");
    assert_eq!(
        back.to_json(),
        json,
        "snapshot JSON round-trip must be lossless"
    );

    let mut t = Table::new(
        "obs",
        "Observability rollup — lazydp_obs registry delta across one LazyDP (prefetch) + one DP-AdaFEST run",
        &["metric", "value"],
    )
    .with_note(&format!(
        "Two {STEPS}-step private training runs bracketed by registry snapshots \
         (schema v{}). Counters are deltas; gauges are last-written values; \
         histogram rows report count/mean. All values are zero under \
         LAZYDP_OBS=off — the gate is the point, not a failure. \
         JSON export: cargo run --release -p lazydp_bench --bin figures -- \
         json obs > BENCH_obs.json.",
        lazydp_obs::snapshot::SCHEMA_VERSION,
    ));
    for (name, value) in &delta.counters {
        t.push_row(vec![name.clone(), value.to_string()]);
    }
    for (name, value) in &delta.gauges {
        t.push_row(vec![name.clone(), format!("{value:.4}")]);
    }
    for h in &delta.histograms {
        t.push_row(vec![format!("{} (count)", h.name), h.count().to_string()]);
        t.push_row(vec![
            format!("{} (mean)", h.name),
            format!("{:.3}", h.mean()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_reports_every_group_and_roundtrips() {
        let t = obs_rollup();
        for metric in [
            "trainer.steps",
            "trainer.noise_plan_rows",
            "adafest.partitions_selected",
            "data.batches_produced",
            "exec.par_regions",
            "privacy.compositions",
            "privacy.spent_epsilon",
            "trainer.pending_depth (mean)",
        ] {
            assert!(
                t.rows.iter().any(|r| r[0] == metric),
                "rollup table must list {metric}"
            );
        }
        if lazydp_obs::counters_enabled() {
            // Other tests may run concurrently and add to the global
            // registry, so these are lower bounds, never exact counts.
            let at_least = |metric: &str, floor: u64| {
                let row = t.rows.iter().find(|r| r[0] == metric).expect("row exists");
                let v: u64 = row[1].parse().expect("numeric");
                assert!(v >= floor, "{metric} = {v}, expected >= {floor}");
            };
            at_least("trainer.steps", STEPS as u64);
            at_least("privacy.compositions", 2 * STEPS as u64);
            at_least("adafest.partitions_selected", 1);
            at_least("exec.par_regions", 1);
        }
    }
}
