//! The untraced run: the end-to-end metrics, measured from outside
//! through the call a user makes (`PrivateTrainer::train_steps(1)`; for
//! SGD one `Optimizer::step` loop), closed loop, one client.

use crate::env::{peak_rss_mib, SpillDir};
use crate::json::Json;
use crate::outcome::{Check, Outcome, RunArgs};
use crate::session::{build_session, dp_config, own_epsilon, Seeds, Session};
use crate::spec::{DATASET_SAMPLES, ROUNDS, SETUPS, T8_ROWS};
use crate::stats::median;
use crate::verify::verify_pass;
use lazydp::dpsgd::KernelCounters;
use lazydp::obs::snapshot::capture_metrics;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Steps a smoke run may time.
pub const SMOKE_MAX_STEPS: usize = 8;

/// The counts of the fixed warm-up window — the same steps on the same
/// inputs in every repeat at one seed, so they must repeat exactly
/// (check 4), which the time-boxed rounds' counts cannot.
fn window_counts(k: &KernelCounters, regions: u64, chunks: u64, plan_rows: u64) -> Json {
    Json::obj()
        .with("steps", Json::UInt(k.steps))
        .with("gaussian_samples", Json::UInt(k.gaussian_samples))
        .with("table_rows_written", Json::UInt(k.table_rows_written))
        .with("table_rows_read", Json::UInt(k.table_rows_read))
        .with("rows_gathered", Json::UInt(k.rows_gathered))
        .with("duplicates_removed", Json::UInt(k.duplicates_removed))
        .with("history_reads", Json::UInt(k.history_reads))
        .with("history_writes", Json::UInt(k.history_writes))
        .with("exec_par_regions", Json::UInt(regions))
        .with("exec_par_chunks", Json::UInt(chunks))
        .with("noise_plan_rows", Json::UInt(plan_rows))
}

/// Builds the session and runs its warm-up steps; returns it with the
/// elapsed time and the warm-up window's exact counts.
fn set_up(args: &RunArgs, spill: &SpillDir) -> (Box<dyn Session>, f64, Json) {
    let before = capture_metrics();
    let t0 = Instant::now();
    let mut session = build_session(args.workload, args.smoke, args.seed, spill.path());
    for _ in 0..args.workload.warmup_steps {
        let _ = session.step();
    }
    let secs = t0.elapsed().as_secs_f64();
    let obs = capture_metrics().delta_since(&before);
    let counts = window_counts(
        &session.counters(),
        obs.counter("exec.par_regions"),
        obs.counter("exec.par_chunks"),
        obs.counter("trainer.noise_plan_rows"),
    );
    (session, secs, counts)
}

/// Release: deferred noise lands, then every weight is read out once
/// (the digest) — what a user waits for between the last step and a
/// model they can publish. On eager/SGD `finalize` is empty and this is
/// the read-out alone. Returns the seconds taken and the digest.
fn release(session: &mut dyn Session) -> (f64, u64) {
    let t0 = Instant::now();
    session.finalize();
    let digest = session.digest();
    (t0.elapsed().as_secs_f64(), digest)
}

/// Runs the workload untraced and reports the end-to-end metrics.
///
/// # Panics
///
/// Panics if the spill directory cannot be created.
#[must_use]
pub fn run_untraced(args: &RunArgs) -> Outcome {
    let w = args.workload;
    let spill = SpillDir::create().expect("create the spill directory");
    let mut checks = Vec::new();

    // The session that is trained is the first one built in the process,
    // and `peak_rss_mib` is read before the repeat set-ups, so that it is
    // the footprint of one set-up, training and release on a fresh heap.
    // A model built where another was dropped sits on whatever the
    // allocator kept of it (44–94 MiB of `table_stored`'s 16 KiB page
    // frames, never the same amount twice), and its peak is not a
    // property of the program.
    let setups = if args.smoke { 1 } else { SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut release_secs = Vec::with_capacity(setups);
    let mut windows: Vec<Json> = Vec::with_capacity(setups);
    let mut warm_digests: Vec<u64> = Vec::with_capacity(setups);
    let (mut session, secs, counts) = set_up(args, &spill);
    setup_secs.push(secs);
    windows.push(counts);

    // Timed rounds. Round r ends at (r+1)/R of the measuring time, so a
    // slow step in one round shortens the next instead of stretching
    // the run; every round times at least one step.
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let max_steps = if args.smoke {
        SMOKE_MAX_STEPS
    } else {
        usize::MAX
    };
    let mut step_ms: Vec<f64> = Vec::with_capacity(4096);
    let mut round_rates: Vec<f64> = Vec::with_capacity(rounds);
    let mut failed = 0u64;
    let t_start = Instant::now();
    'rounds: for r in 0..rounds {
        let deadline = Duration::from_secs_f64(args.seconds * (r + 1) as f64 / rounds as f64);
        let round_t0 = Instant::now();
        let mut samples = 0usize;
        loop {
            let t0 = Instant::now();
            let stepped = catch_unwind(AssertUnwindSafe(|| session.step()));
            step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match stepped {
                Ok(realized) => samples += realized,
                Err(_) => {
                    // The trainer's state after a panic is unknown:
                    // count the step and stop measuring.
                    failed += 1;
                    break 'rounds;
                }
            }
            if t_start.elapsed() >= deadline || step_ms.len() >= max_steps {
                break;
            }
        }
        round_rates.push(samples as f64 / round_t0.elapsed().as_secs_f64());
        if step_ms.len() >= max_steps {
            break;
        }
    }
    let attempted = step_ms.len() as u64;

    let mut digest = 0u64;
    let mut loss = f64::NAN;
    if failed == 0 {
        let (secs, d) = release(session.as_mut());
        release_secs.push(secs);
        digest = d;
    }
    let rss = peak_rss_mib();
    if failed == 0 {
        let seeds = Seeds::derive(args.seed);
        let eval: Vec<usize> = (0..w.batch.min(DATASET_SAMPLES)).collect();
        loss = session.loss(&w.dataset(args.smoke, seeds.data).batch_of(&eval));
        if !loss.is_finite() {
            failed = attempted;
        }
    }

    // Check 3: the ε the trainer reports is the ε of (σ, q, steps).
    let total_steps = w.warmup_steps as u64 + attempted;
    if let (Some(eps), true) = (session.epsilon(), failed == 0) {
        let dp = dp_config(w.batch);
        let q = w.batch as f64 / DATASET_SAMPLES as f64;
        let own = own_epsilon(dp.noise_multiplier, q, total_steps);
        checks.push(Check::new(
            "epsilon_matches_own_accountant",
            (eps - own).abs() <= 1e-9 * own.abs(),
            format!(
                "trainer {eps:.12} vs own {own:.12} (sigma {}, q {q}, {total_steps} steps)",
                dp.noise_multiplier
            ),
        ));
    }
    drop(session);

    // Set-up, several more times: one set-up is a single sample of a
    // noisy quantity (page faults of a 256 MiB model, spill-file writes),
    // and the contract gates its median. Each session is dropped before
    // the next is built. These are released straight after warm-up, which
    // gives `finalize_s` its extra samples: with ANS every row gets one
    // aggregated draw at finalize however long it waited, so a release
    // after three steps costs what a release after three hundred does.
    while setup_secs.len() < setups {
        let (mut session, secs, counts) = set_up(args, &spill);
        setup_secs.push(secs);
        windows.push(counts);
        let (secs, digest) = release(session.as_mut());
        release_secs.push(secs);
        warm_digests.push(digest);
    }
    if setups > 1 {
        checks.push(Check::new(
            "exact_counts_repeat",
            windows.iter().all(|c| *c == windows[0]),
            format!(
                "{} warm-up step(s) x {setups} set-ups: {}",
                w.warmup_steps,
                windows[0].to_compact()
            ),
        ));
        checks.push(Check::new(
            "warmup_release_digest_repeats",
            warm_digests.iter().all(|d| *d == warm_digests[0]),
            format!(
                "{:016x} x {} releases after warm-up",
                warm_digests[0],
                warm_digests.len()
            ),
        ));
    }

    // Checks 1 and 2 on the fixed-step verify pass (shrunk ÷16 here;
    // `run` adds one at full T8).
    let verify_rows = T8_ROWS / if args.smoke { 256 } else { 16 };
    let (verify_checks, verify_digest) = verify_pass(verify_rows, args.seed, spill.path());
    checks.extend(verify_checks);

    let metrics = vec![
        ("setup_s", median(&setup_secs)),
        ("step_ms_p50", median(&step_ms)),
        ("samples_per_s", median(&round_rates)),
        ("finalize_s", median(&release_secs)),
        ("peak_rss_mib", rss),
    ];
    let extra = Json::obj()
        .with("timed_steps", Json::UInt(attempted))
        .with("rounds", Json::UInt(round_rates.len() as u64))
        .with("setups", Json::UInt(setups as u64))
        .with(
            "setup_s_each",
            Json::Arr(setup_secs.iter().map(|&s| Json::Num(s)).collect()),
        )
        .with(
            "finalize_s_each",
            Json::Arr(release_secs.iter().map(|&s| Json::Num(s)).collect()),
        )
        .with(
            "samples_per_s_each",
            Json::Arr(round_rates.iter().map(|&s| Json::Num(s)).collect()),
        )
        .with(
            "ops_failed_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        )
        .with("eval_loss", Json::Num(loss))
        .with("release_digest", Json::str(format!("{digest:016x}")))
        .with("verify_digest", Json::str(verify_digest))
        .with("warmup_window", windows.swap_remove(0));
    Outcome {
        args: *args,
        metrics,
        attempted,
        failed,
        checks,
        extra,
    }
}
