//! Fault-injection resilience experiment: what the storage stack
//! absorbs, what it degrades through, and what a crash costs.
//!
//! Four short disk-backed LazyDP runs, all over identical data/noise:
//!
//! 1. **clean** — an empty plan; the released model is the bitwise
//!    reference for every other run.
//! 2. **transient storm** — a deterministic rate plan fails ~5% of page
//!    reads and writes; bounded retry must absorb every one (released
//!    model bitwise identical, `fault.giveups == 0`).
//! 3. **dead spill device** — every page write fails persistently from
//!    mid-run on; retry exhausts, the table promotes itself to the
//!    in-memory backend, and training continues to the same bits.
//! 4. **kill + resume** — an injected mid-step kill, recovery from the
//!    last-good manifest entry, and replay to the end; the table
//!    reports the replay cost (steps re-run / total).
//!
//! Each run builds the objects its plan breaks inside
//! `lazydp_fault::scoped`, so the plan reaches those and nothing else
//! in the process. All numbers come from `lazydp_fault` decisions and
//! the `lazydp_obs` `fault.*` counters — no wall-clock, so the table is
//! deterministic and diffable across runs (the CI fault leg uploads it
//! as `BENCH_faults.json`).
//!
//! Run with: `cargo run --release -p lazydp_bench --bin figures -- faults`

use crate::table::Table;
use lazydp_core::{Checkpoint, CheckpointStore, LazyDpConfig, LazyDpOptimizer};
use lazydp_data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp_dpsgd::{DpConfig, Optimizer};
use lazydp_embedding::EmbeddingStorage;
use lazydp_fault::{FaultKind, FaultPlan, InjectedKill, Site};
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_obs::MetricsSnapshot;
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;
use lazydp_store::{StorageConfig, StoredTable};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

const TABLES: usize = 2;
const ROWS: u64 = 96;
const DIM: usize = 8;
const BATCH: usize = 16;
const STEPS: usize = 8;
const NOISE_SEED: u64 = 17;
const KILL_ITER: u64 = 6;

fn setup() -> (Dlrm, Vec<MiniBatch>) {
    let mut rng = Xoshiro256PlusPlus::seed_from(99);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, BATCH * (STEPS + 1)));
    let batches = (0..=STEPS)
        .map(|i| ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    (model, batches)
}

fn cfg() -> LazyDpConfig {
    LazyDpConfig::new(DpConfig::new(0.9, 1.0, 0.05, BATCH), false)
}

fn spill() -> StorageConfig {
    StorageConfig::new().with_page_rows(8).with_cache_pages(4)
}

/// One full disk-backed run whose tables and optimizer follow `plan`;
/// returns the released model (densified) and the `fault.*` counter
/// delta.
#[expect(
    clippy::disallowed_methods,
    reason = "O1: bench reads the fault counters it tabulates; nothing feeds back into training"
)]
fn stored_run(plan: FaultPlan, model0: &Dlrm, batches: &[MiniBatch]) -> (Dlrm, MetricsSnapshot) {
    let before = lazydp_obs::snapshot::capture_metrics();
    let storage = spill();
    let (mut m, mut o) = lazydp_fault::scoped(plan, || {
        let m = model0
            .clone()
            .try_map_tables(|_, t| StoredTable::from_dense(&t, &storage))
            .expect("spill tables");
        let o = LazyDpOptimizer::new(cfg(), &m, CounterNoise::new(NOISE_SEED));
        (m, o)
    });
    for i in 0..STEPS {
        o.step(&mut m, &batches[i], Some(&batches[i + 1]));
    }
    o.finalize_model(&mut m);
    let released = m.map_tables(|_, t| t.to_dense_table());
    let delta = lazydp_obs::snapshot::capture_metrics().delta_since(&before);
    (released, delta)
}

fn max_diff(a: &Dlrm, b: &Dlrm) -> f32 {
    // Plain loop, not a float fold: rule D4 pins accumulation order to
    // lazydp_tensor's primitives, and max over a handful of tables
    // doesn't warrant an exemption marker.
    let mut worst = 0.0f32;
    for (x, y) in a.tables.iter().zip(b.tables.iter()) {
        worst = worst.max(x.max_abs_diff(y));
    }
    worst
}

fn counter(delta: &MetricsSnapshot, name: &str) -> u64 {
    delta
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Kill mid-step, resume from the checkpoint store, replay; returns the
/// released model and how many steps had to be re-run.
fn kill_resume_run(model0: &Dlrm, batches: &[MiniBatch]) -> (Dlrm, usize) {
    // The kill below is expected — keep its backtrace out of the table.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedKill>().is_none() {
                prev(info);
            }
        }));
    });
    let dir = std::env::temp_dir().join(format!("lazydp-figures-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut m = model0.clone();
        let (mut store, mut o) = lazydp_fault::scoped(
            FaultPlan::new(1).rule(Site::MidStep, KILL_ITER, FaultKind::Kill),
            || {
                (
                    CheckpointStore::open(&dir).expect("open checkpoint dir"),
                    LazyDpOptimizer::new(cfg(), &m, CounterNoise::new(NOISE_SEED)),
                )
            },
        );
        for i in 0..STEPS {
            o.step(&mut m, &batches[i], Some(&batches[i + 1]));
            store.save(&Checkpoint::capture(&m, &o)).expect("save");
        }
    }));
    let payload = attempt.expect_err("the plan must kill the run");
    assert!(
        payload.downcast_ref::<InjectedKill>().is_some(),
        "payload must be the injected kill"
    );

    let store = CheckpointStore::open(&dir).expect("reopen");
    let ckpt = store
        .resume_latest()
        .expect("resume")
        .expect("a checkpoint was published");
    let (mut m, mut o) = ckpt.restore(cfg(), CounterNoise::new(NOISE_SEED));
    let replayed = STEPS - o.iteration() as usize;
    for i in o.iteration() as usize..STEPS {
        o.step(&mut m, &batches[i], Some(&batches[i + 1]));
    }
    o.finalize_model(&mut m);
    let _ = std::fs::remove_dir_all(&dir);
    (m, replayed)
}

/// The registered `faults` experiment.
///
/// # Panics
///
/// Panics if any resilience contract is violated — a non-bitwise
/// release, a retry give-up under the transient plan, or a missing
/// degradation under the dead-device plan.
#[must_use]
pub fn fault_resilience() -> Table {
    // The table reports `fault.*` deltas of the process-wide obs
    // registry, so two runs of this experiment in one process (the
    // figures tests run it from several threads) must not overlap.
    static RUNNING: Mutex<()> = Mutex::new(());
    let _one_run_at_a_time = RUNNING.lock().unwrap_or_else(PoisonError::into_inner);
    let (model0, batches) = setup();

    let (reference, _) = stored_run(FaultPlan::new(0), &model0, &batches);

    // Transient storm: ~5% of page reads and writes fail once.
    let (stormed, storm) = stored_run(
        FaultPlan::new(7)
            .rate_rule(Site::PageRead, 0.05, FaultKind::Transient)
            .rate_rule(Site::PageWrite, 0.05, FaultKind::Transient),
        &model0,
        &batches,
    );
    let storm_diff = max_diff(&reference, &stormed);
    assert_eq!(storm_diff, 0.0, "transient storm must be absorbed bitwise");
    assert_eq!(
        counter(&storm, "fault.giveups"),
        0,
        "bounded retry must absorb a 5% transient rate"
    );

    // Dead spill device: every page write fails from ordinal 24 on —
    // past the initial spill, so the failure lands mid-training.
    let (degraded, dead) = stored_run(
        FaultPlan::new(7).rule(Site::PageWrite, 24, FaultKind::Persistent),
        &model0,
        &batches,
    );
    let dead_diff = max_diff(&reference, &degraded);
    assert_eq!(dead_diff, 0.0, "degradation must be bitwise");

    // Kill + resume (in-memory model; the checkpoint store is the
    // subject here, not the page file).
    let (resumed, replayed) = kill_resume_run(&model0, &batches);
    let resume_diff = max_diff(&reference, &resumed);
    assert_eq!(resume_diff, 0.0, "kill+resume must release the same bits");

    let mut t = Table::new(
        "faults",
        "Fault-injection resilience — deterministic plans over a disk-backed LazyDP run",
        &["metric", "value"],
    )
    .with_note(&format!(
        "Four {STEPS}-step runs on identical data/noise: clean reference, \
         5% transient page-fault storm (seed 7), persistent page-write \
         failure at ordinal 24 (graceful degradation to the in-memory \
         backend), and an injected mid-step kill resumed from the \
         last-good manifest entry. Counters are lazydp_obs fault.* \
         deltas; all zero with lazydp_obs set to Off. The same plans are \
         expressible via LAZYDP_FAULTS, e.g. \
         7:page.read*0.05=transient,page.write*0.05=transient. \
         JSON export: cargo run --release -p lazydp_bench --bin figures \
         -- json faults > BENCH_faults.json.",
    ));
    t.push_row(vec!["steps per run".into(), STEPS.to_string()]);
    t.push_row(vec![
        "storm: faults injected".into(),
        counter(&storm, "fault.injected").to_string(),
    ]);
    t.push_row(vec![
        "storm: retries".into(),
        counter(&storm, "fault.retries").to_string(),
    ]);
    t.push_row(vec![
        "storm: give-ups".into(),
        counter(&storm, "fault.giveups").to_string(),
    ]);
    t.push_row(vec![
        "storm: released max |Δ| vs clean".into(),
        format!("{storm_diff}"),
    ]);
    t.push_row(vec![
        "dead device: degradations".into(),
        counter(&dead, "fault.degradations").to_string(),
    ]);
    t.push_row(vec![
        "dead device: released max |Δ| vs clean".into(),
        format!("{dead_diff}"),
    ]);
    t.push_row(vec![
        "kill+resume: steps replayed".into(),
        format!("{replayed} of {STEPS}"),
    ]);
    t.push_row(vec![
        "kill+resume: released max |Δ| vs clean".into(),
        format!("{resume_diff}"),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_resilience_contracts_hold() {
        // The experiment asserts its own contracts (bitwise releases,
        // zero give-ups, degradation fired); running it is the test.
        let t = fault_resilience();
        assert_eq!(t.id, "faults");
        assert!(t.rows.len() >= 8, "all four runs must be tabulated");
    }
}
