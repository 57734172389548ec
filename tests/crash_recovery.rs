//! Kill-and-resume recovery harness: the capstone proof that training
//! is crash-consistent.
//!
//! Each case trains a tiny DLRM with a checkpoint saved after every
//! step, its optimizer, tables and checkpoint store built under a
//! deterministic [`FaultPlan`] (`fault::scoped`) that kills the process
//! (in-process stand-in: a panic with an [`InjectedKill`] payload) at
//! one of the three most state-torn instants —
//!
//! * **mid-step** — the dense half of an optimizer step has landed, the
//!   sparse half has not;
//! * **mid-flush** — the lazy-noise flush for the next batch's rows is
//!   under way (at 4 threads it fires on whichever thread fills table
//!   0, the overlap worker or the main thread, so this also proves the
//!   panic payload survives the join; at 1 thread it fires on the main
//!   thread after its gradient, before the dense update);
//! * **mid-checkpoint** — the checkpoint file is written and synced but
//!   not yet atomically renamed into place;
//!
//! — then catches the kill, reopens the [`CheckpointStore`], resumes
//! from the last-good manifest entry, replays to the end, and asserts
//! the released model is **bitwise identical** to an uninterrupted run.
//! The grid covers threads {1,4} × {in-memory, disk-backed} embedding
//! storage, every cell run, all against one single-thread in-memory
//! reference.
//!
//! A final case injects *corruption* instead of a kill and asserts the
//! torn page is detected by its checksum at fault-in rather than
//! silently trained on.

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{DpConfig, Optimizer};
use lazydp::embedding::EmbeddingStorage;
use lazydp::fault::{self, FaultKind, FaultPlan, InjectedKill, Site};
use lazydp::lazy::{Checkpoint, CheckpointStore, LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;
use lazydp::store::{StorageConfig, StoredTable};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;

const TABLES: usize = 2;
const ROWS: u64 = 64;
const DIM: usize = 8;
const BATCH: usize = 16;
const STEPS: usize = 6;
const NOISE_SEED: u64 = 9;
/// The optimizer's iteration counter is 1-based; killing iteration 4
/// leaves checkpoints for iterations 1..=3 on disk.
const KILL_ITER: u64 = 4;

fn setup() -> (Dlrm, Vec<MiniBatch>) {
    let mut rng = Xoshiro256PlusPlus::seed_from(321);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, BATCH * (STEPS + 1)));
    let batches = (0..=STEPS)
        .map(|i| ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    (model, batches)
}

fn cfg(threads: usize) -> LazyDpConfig {
    LazyDpConfig::new(DpConfig::new(0.9, 1.0, 0.05, BATCH), false).with_threads(threads)
}

fn spill_cfg() -> StorageConfig {
    // 8-row pages, 4-page cache: the 64-row tables genuinely page.
    StorageConfig::new().with_page_rows(8).with_cache_pages(4)
}

/// A fresh, empty checkpoint directory unique to this process + tag.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lazydp-crash-harness-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Silences the default panic hook for [`InjectedKill`] payloads so the
/// harness's expected kills don't spray backtraces over the test output.
fn quiet_injected_kills() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedKill>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Bitwise equality of two released models, including MLP biases.
fn assert_bitwise(reference: &Dlrm, got: &Dlrm, label: &str) {
    for (t, (a, b)) in reference.tables.iter().zip(got.tables.iter()).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "{label}: table {t} differs from the uninterrupted run"
        );
    }
    for (i, (a, b)) in reference
        .bottom
        .layers()
        .iter()
        .chain(reference.top.layers())
        .zip(got.bottom.layers().iter().chain(got.top.layers()))
        .enumerate()
    {
        assert_eq!(
            a.weight.as_slice(),
            b.weight.as_slice(),
            "{label}: MLP layer {i} weights differ"
        );
        assert_eq!(a.bias, b.bias, "{label}: MLP layer {i} biases differ");
    }
}

/// Steps `o` from its own iteration to the end of `batches`, saving a
/// checkpoint into `store` after every step when one is given, and
/// returns the finalized release (densified).
fn run_to_end<T: EmbeddingStorage>(
    mut m: Dlrm<T>,
    mut o: LazyDpOptimizer<CounterNoise>,
    batches: &[MiniBatch],
    mut store: Option<&mut CheckpointStore>,
) -> Dlrm {
    for i in o.iteration() as usize..STEPS {
        o.step(&mut m, &batches[i], Some(&batches[i + 1]));
        if let Some(store) = store.as_deref_mut() {
            store.save(&Checkpoint::capture(&m, &o)).expect("save");
        }
    }
    o.finalize_model(&mut m);
    m.map_tables(|_, t| t.to_dense_table())
}

/// `model0` spilled to disk-paged tables.
fn spilled(model0: &Dlrm) -> Dlrm<StoredTable> {
    let storage = spill_cfg();
    model0
        .clone()
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &storage))
        .expect("spill tables")
}

/// The uninterrupted single-thread in-memory run every recovered run
/// must reproduce bit for bit.
fn reference_model(model0: &Dlrm, batches: &[MiniBatch]) -> Dlrm {
    let o = LazyDpOptimizer::new(cfg(1), model0, CounterNoise::new(NOISE_SEED));
    run_to_end(model0.clone(), o, batches, None)
}

/// Runs training-with-checkpointing under a plan that kills it, asserts
/// the kill fired at the expected site, resumes (with objects built
/// outside the plan) from the last-good manifest entry, replays to the
/// end, and returns the released (dense) model.
///
/// `stored` routes the embedding tables through the disk-paged backend
/// on both the killed attempt and the resumed run.
fn kill_and_resume(
    site: Site,
    threads: usize,
    stored: bool,
    model0: &Dlrm,
    batches: &[MiniBatch],
) -> Dlrm {
    quiet_injected_kills();
    let tag = format!(
        "{}-t{threads}-{}",
        site.name().replace('.', "-"),
        if stored { "disk" } else { "mem" }
    );
    let dir = fresh_dir(&tag);
    let cfg = cfg(threads);

    // MidCheckpoint ordinals count saves (0-based): ordinal KILL_ITER-1
    // is the save *after* step KILL_ITER, so in every case the newest
    // surviving manifest entry is iteration KILL_ITER-1.
    let ordinal = match site {
        Site::MidCheckpoint => KILL_ITER - 1,
        _ => KILL_ITER,
    };
    let plan = FaultPlan::new(1).rule(site, ordinal, FaultKind::Kill);

    // --- the doomed attempt ---------------------------------------------
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        fault::scoped(plan, || {
            let mut store = CheckpointStore::open(&dir).expect("open checkpoint dir");
            let o = LazyDpOptimizer::new(cfg.clone(), model0, CounterNoise::new(NOISE_SEED));
            if stored {
                run_to_end(spilled(model0), o, batches, Some(&mut store));
            } else {
                run_to_end(model0.clone(), o, batches, Some(&mut store));
            }
        });
    }));
    let payload = attempt.expect_err("the fault plan must kill the run");
    let kill = payload
        .downcast_ref::<InjectedKill>()
        .unwrap_or_else(|| panic!("{tag}: panic payload was not the injected kill"));
    assert_eq!(kill.site, site, "{tag}: killed at the wrong site");

    // --- recovery: reopen, sweep, resume from last-good, replay ----------
    let store = CheckpointStore::open(&dir).expect("reopen checkpoint dir");
    let _ = store.sweep_stale().expect("sweep");
    let ckpt = store
        .resume_latest()
        .expect("resume must not error")
        .expect("at least one checkpoint was published before the kill");
    assert_eq!(
        ckpt.iteration,
        KILL_ITER - 1,
        "{tag}: resumed from the wrong checkpoint"
    );

    let noise = CounterNoise::new(NOISE_SEED);
    let released = if stored {
        let (m, o) = ckpt
            .restore_stored(cfg, noise, &spill_cfg())
            .expect("restore onto disk-backed tables");
        run_to_end(m, o, batches, None)
    } else {
        let (m, o) = ckpt.restore(cfg, noise);
        run_to_end(m, o, batches, None)
    };
    let _ = std::fs::remove_dir_all(&dir);
    released
}

/// The full grid for one kill site.
fn grid(site: Site) {
    let (model0, batches) = setup();
    let reference = reference_model(&model0, &batches);
    for threads in [1usize, 4] {
        for stored in [false, true] {
            let released = kill_and_resume(site, threads, stored, &model0, &batches);
            assert_bitwise(
                &reference,
                &released,
                &format!("{site} kill, threads={threads} stored={stored}"),
            );
        }
    }
}

#[test]
fn kill_mid_step_resumes_bitwise_across_the_grid() {
    grid(Site::MidStep);
}

#[test]
fn kill_mid_flush_resumes_bitwise_across_the_grid() {
    grid(Site::MidFlush);
}

#[test]
fn kill_mid_checkpoint_resumes_bitwise_across_the_grid() {
    grid(Site::MidCheckpoint);
}

/// A kill between checkpoint sync and rename leaves a `*.tmp` orphan;
/// `sweep_stale` collects it and the manifest never points at it.
#[test]
fn mid_checkpoint_kill_leaves_no_stale_files_after_sweep() {
    quiet_injected_kills();
    let (model0, batches) = setup();
    let dir = fresh_dir("sweep-check");
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut store = fault::scoped(
            FaultPlan::new(1).rule(Site::MidCheckpoint, 1, FaultKind::Kill),
            || CheckpointStore::open(&dir).expect("open"),
        );
        let mut m = model0.clone();
        let mut o = LazyDpOptimizer::new(cfg(1), &m, CounterNoise::new(NOISE_SEED));
        for i in 0..3 {
            o.step(&mut m, &batches[i], Some(&batches[i + 1]));
            store.save(&Checkpoint::capture(&m, &o)).expect("save");
        }
    }));
    assert!(attempt.is_err(), "second save must die pre-rename");

    let orphans = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .expect("read ckpt dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count()
    };
    assert_eq!(orphans(&dir), 1, "the killed save leaves its tmp behind");
    let store = CheckpointStore::open(&dir).expect("reopen");
    store.sweep_stale().expect("sweep");
    assert_eq!(orphans(&dir), 0, "sweep must collect the orphan");
    assert_eq!(
        store.iterations(),
        vec![1],
        "manifest holds only the published save"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected page corruption is caught by the per-page checksum at
/// fault-in — training panics with a corruption report instead of
/// silently continuing on torn weights.
#[test]
fn injected_page_corruption_is_detected_not_trained_on() {
    let (model0, batches) = setup();
    // Corrupt the 5th page write-back of each table; some later fault-in
    // of that page must detect it. (Corruption is not retryable and not
    // degradable — the only safe response is to stop.)
    let plan = FaultPlan::new(1).rule(Site::PageWrite, 4, FaultKind::Corrupt);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let m = fault::scoped(plan, || spilled(&model0));
        let o = LazyDpOptimizer::new(cfg(1), &m, CounterNoise::new(NOISE_SEED));
        run_to_end(m, o, &batches, None)
    }));
    let payload = attempt.expect_err("corrupted page must abort training");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("checksum mismatch"),
        "the abort must name the checksum failure, got: {msg}"
    );
}
