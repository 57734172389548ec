//! The traced run: the per-layer metrics.
//!
//! The harness holds the session's parts itself and drives the body of
//! `PrivateTrainer::train_steps` — advance, step, finish_iteration,
//! compose — with a span around each call, all under one per-step id
//! and a root `core.step` span. The four child spans tile the root (one
//! clock read per boundary), so the root has no self time to report.
//! Spans live in a preallocated buffer and are written out with the
//! results. Steps alternate between that traced body and the same body
//! untraced, so the tracing overhead is measured in the same process. Counts (`KernelCounters`, the obs
//! registry) are taken at the same boundaries as the spans. Then the
//! layer probes run on the batches the loop recorded.
//!
//! Spans *inside* the library are a later issue (ROADMAP 5); here a
//! layer's time inside `optimizer.step` is estimated from its probe:
//! work per step (exact counts) ÷ probed throughput.

use crate::env::SpillDir;
use crate::json::Json;
use crate::outcome::{Check, Outcome, RunArgs};
use crate::probes::{
    exec_probe, gemm_flops_per_step, memory_table_probes, model_probes, rng_probes, store_probes,
    tensor_probes, ModelProbe, RecordedRows,
};
use crate::session::{table_rows, with_parts, BenchOptimizer, Parts, PartsVisitor};
use crate::spec::{Algo, Backend, Workload, EXEC_WIDTH, PER_LAYER};
use crate::stats::{median, percentile};
use crate::untraced::SMOKE_MAX_STEPS;
use lazydp::data::MiniBatch;
use lazydp::dpsgd::KernelCounters;
use lazydp::embedding::EmbeddingStorage;
use lazydp::obs::snapshot::capture_metrics;
use lazydp::obs::MetricsSnapshot;
use lazydp::privacy::{Mechanism, RdpAccountant};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Batches kept for the replay probes.
const RECORDED_BATCHES: usize = 8;

/// Span names, in the order of the `train_steps` body. Index 0 is the
/// root; the others are its children.
const SPAN_NAMES: [&str; 5] = [
    "core.step",
    "data.advance",
    "core.optimizer_step",
    "data.finish_iteration",
    "privacy.compose",
];

const ROOT: u8 = 0;
const ADVANCE: u8 = 1;
const OPTIMIZER_STEP: u8 = 2;
const FINISH_ITERATION: u8 = 3;
const COMPOSE: u8 = 4;

/// One recorded span: `(name index, step id, start ns, end ns)`. The
/// parent of every non-root span is the root span of the same step id.
type Span = (u8, u32, u64, u64);

/// The in-memory span buffer.
struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn with_capacity(spans: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Durations in µs of every span of one name, in step order.
    fn durations_us(&self, name: u8) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| (s.3 - s.2) as f64 / 1e3)
            .collect()
    }
}

/// The DP accounting the trainer would do, held by the harness.
struct Accounting {
    accountant: RdpAccountant,
    mechanism: Mechanism,
}

impl<O: BenchOptimizer<T>, T: EmbeddingStorage + 'static> Parts<O, T> {
    /// One pass through the `train_steps` body. With `log`, the clock
    /// is read at each call boundary and the five spans are recorded;
    /// without, the same calls run bare. A DP session clones both
    /// batches exactly as `train_steps` does (inside `data.advance`);
    /// SGD steps on the loader's own batches, as its untraced loop does.
    fn body(
        &mut self,
        acct: &mut Option<Accounting>,
        mut log: Option<(&mut SpanLog, u32)>,
        keep: Option<&mut Vec<MiniBatch>>,
    ) -> usize {
        let mut marks = [0u64; 5];
        let mut mark = |i: usize, log: &Option<(&mut SpanLog, u32)>| {
            if let Some((l, _)) = log {
                marks[i] = l.now();
            }
        };
        mark(0, &log);
        let (cur, next) = self.loader.advance();
        let owned = acct.is_some().then(|| (cur.clone(), next.clone()));
        mark(1, &log);
        let stats = match &owned {
            Some((cur, next)) => self.opt.step(&mut self.model, cur, Some(next)),
            None => self.opt.step(&mut self.model, cur, Some(next)),
        };
        mark(2, &log);
        let consumed = self.loader.finish_iteration();
        mark(3, &log);
        if let Some(a) = acct.as_mut() {
            a.accountant.compose_mechanism(&a.mechanism, self.q, 1);
        }
        mark(4, &log);
        if let Some((l, step)) = log.as_mut() {
            l.spans.push((ROOT, *step, marks[0], marks[4]));
            for name in ADVANCE..=COMPOSE {
                let i = usize::from(name);
                l.spans.push((name, *step, marks[i - 1], marks[i]));
            }
        }
        if let Some(keep) = keep {
            if keep.len() < RECORDED_BATCHES && !consumed.is_empty() {
                keep.push(consumed);
            }
        }
        stats.realized_batch
    }
}

struct Traced<'a> {
    args: &'a RunArgs,
    spill: &'a SpillDir,
}

impl PartsVisitor for Traced<'_> {
    type Out = Outcome;

    fn visit<O: BenchOptimizer<T>, T: EmbeddingStorage + 'static>(
        self,
        mut parts: Parts<O, T>,
    ) -> Outcome {
        run_traced_on(self.args, self.spill, &mut parts)
    }
}

/// Runs the workload traced and reports the per-layer metrics.
///
/// # Panics
///
/// Panics if the spill directory cannot be created.
#[must_use]
pub fn run_traced(args: &RunArgs) -> Outcome {
    let spill = SpillDir::create().expect("create the spill directory");
    with_parts(
        args.workload,
        args.smoke,
        args.seed,
        spill.path(),
        Traced {
            args,
            spill: &spill,
        },
    )
}

fn run_traced_on<O: BenchOptimizer<T>, T: EmbeddingStorage + 'static>(
    args: &RunArgs,
    spill: &SpillDir,
    parts: &mut Parts<O, T>,
) -> Outcome {
    let w = args.workload;
    let mut acct = parts.opt.dp_mechanism().map(|mechanism| Accounting {
        accountant: RdpAccountant::new(),
        mechanism,
    });
    for _ in 0..w.warmup_steps {
        let _ = parts.body(&mut acct, None, None);
    }

    // Loop phase: 40 % of the measuring time, alternating one bare and
    // one traced body, so both see the same cache and history states.
    let max_steps = if args.smoke {
        SMOKE_MAX_STEPS
    } else {
        usize::MAX
    };
    let phase = Duration::from_secs_f64(args.seconds * 0.4);
    let mut log = SpanLog::with_capacity(1 << 16);
    let mut recorded: Vec<MiniBatch> = Vec::with_capacity(RECORDED_BATCHES);
    let mut bare_ms: Vec<f64> = Vec::new();
    let mut samples = 0usize;
    let obs_before = capture_metrics();
    let counters_before = parts.opt.counters();
    let mut step = 0u32;
    let t0 = Instant::now();
    while step < 2 || (t0.elapsed() < phase && (step as usize) < max_steps) {
        if step % 2 == 1 {
            samples += parts.body(&mut acct, Some((&mut log, step)), Some(&mut recorded));
        } else {
            let s0 = Instant::now();
            samples += parts.body(&mut acct, None, Some(&mut recorded));
            bare_ms.push(s0.elapsed().as_secs_f64() * 1e3);
        }
        step += 1;
    }
    let obs = capture_metrics().delta_since(&obs_before);
    let counters = parts.opt.counters().delta_since(&counters_before);

    let mut m = Metrics::new();
    let root_ms: Vec<f64> = log.durations_us(ROOT).iter().map(|us| us / 1e3).collect();
    let opt_ms: Vec<f64> = log
        .durations_us(OPTIMIZER_STEP)
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let advance_us = log.durations_us(ADVANCE);
    let finish_us = log.durations_us(FINISH_ITERATION);
    let compose_us = log.durations_us(COMPOSE);
    let step_ms = median(&opt_ms);
    m.insert("core.optimizer_step_ms", step_ms);
    m.insert("core.step_ms_p90", percentile(&root_ms, 90.0));
    m.insert("data.advance_us", median(&advance_us) + median(&finish_us));
    m.insert("privacy.compose_us", median(&compose_us));
    m.insert(
        "bench.trace_overhead_pct",
        (median(&root_ms) / median(&bare_ms) - 1.0) * 100.0,
    );
    m.insert("bench.traced_steps", root_ms.len() as f64);

    count_metrics(&mut m, &counters, &obs, f64::from(step));

    // A mid-training checkpoint, once: the stall a periodic checkpoint
    // would add.
    let t0 = Instant::now();
    let bytes = parts
        .opt
        .checkpoint(&parts.model)
        .map_or(0, |ck| ck.to_bytes().len());
    m.insert(
        "core.checkpoint_save_s",
        if bytes == 0 {
            0.0
        } else {
            t0.elapsed().as_secs_f64()
        },
    );
    m.insert("core.checkpoint_bytes", bytes as f64);

    // Probes: 45 % of the measuring time over fifteen timed kernels.
    let budget = Duration::from_secs_f64(args.seconds * 0.45 / 15.0);
    let cfg = parts.model.config().clone();
    let model_probe = model_probes(&parts.model, &recorded, budget);
    m.insert("model.forward_ms", model_probe.forward_ms);
    m.insert("model.backward_clip_ms", model_probe.backward_clip_ms);
    m.insert(
        "model.gemm_flops_per_step",
        gemm_flops_per_step(&cfg, w.batch),
    );

    let t0 = Instant::now();
    parts.opt.finalize(&mut parts.model);
    let finalize_s = t0.elapsed().as_secs_f64();
    let total_rows = table_rows(&parts.model);
    let deferred = w.algo == Algo::LazyDp;
    m.insert(
        "core.finalize_flush_s",
        if deferred { finalize_s } else { 0.0 },
    );
    m.insert(
        "core.finalize_mrows_s",
        if deferred {
            total_rows as f64 / finalize_s / 1e6
        } else {
            0.0
        },
    );
    let loss = recorded.first().map_or(0.0, |b| parts.model.loss(b));

    let rows = RecordedRows::from_batches(&recorded, args.smoke);
    m.extend(tensor_probes(&cfg, w.batch, budget));
    m.extend(rng_probes(&rows, args.seed, budget));
    m.extend(memory_table_probes(&rows, args.seed, budget));
    m.extend(store_probes(&rows, args.seed, spill.path(), budget));
    let (name, value) = exec_probe(budget);
    m.insert(name, value);

    share_metrics(&mut m, w, &model_probe, total_rows as f64);

    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|p| {
            (
                p.name,
                *m.get(p.name)
                    .unwrap_or_else(|| panic!("metric {} not measured", p.name)),
            )
        })
        .collect();
    let failed = if loss.is_finite() { 0 } else { u64::from(step) };
    let checks = vec![Check::new(
        "traced_spans_complete",
        root_ms.len() == opt_ms.len() && !root_ms.is_empty(),
        format!(
            "{} root spans, {} optimizer spans, {} bare steps",
            root_ms.len(),
            opt_ms.len(),
            bare_ms.len()
        ),
    )];
    let extra = Json::obj()
        .with("timed_steps", Json::UInt(u64::from(step)))
        .with("samples", Json::UInt(samples as u64))
        .with("eval_loss", Json::Num(loss))
        .with(
            "span_names",
            Json::Arr(SPAN_NAMES.iter().map(|n| Json::str(*n)).collect()),
        )
        .with(
            "spans",
            Json::Arr(
                log.spans
                    .iter()
                    .map(|&(n, s, a, b)| {
                        Json::Arr(vec![
                            Json::UInt(u64::from(n)),
                            Json::UInt(u64::from(s)),
                            Json::UInt(a),
                            Json::UInt(b),
                        ])
                    })
                    .collect(),
            ),
        );
    Outcome {
        args: *args,
        metrics,
        attempted: u64::from(step),
        failed,
        checks,
        extra,
    }
}

type Metrics = BTreeMap<&'static str, f64>;

/// The exact counts of the traced phase, per step.
fn count_metrics(m: &mut Metrics, counters: &KernelCounters, obs: &MetricsSnapshot, steps: f64) {
    let (hits, misses) = (obs.counter("store.hits"), obs.counter("store.misses"));
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    m.insert("store.hit_rate", hit_rate);
    for (name, count) in [
        ("dpsgd.gaussian_samples_per_step", counters.gaussian_samples),
        ("dpsgd.rows_written_per_step", counters.table_rows_written),
        ("dpsgd.rows_gathered_per_step", counters.rows_gathered),
        (
            "dpsgd.duplicates_removed_per_step",
            counters.duplicates_removed,
        ),
        ("core.history_reads_per_step", counters.history_reads),
        (
            "core.flush_rows_per_step",
            obs.counter("trainer.noise_plan_rows"),
        ),
        ("exec.par_regions_per_step", obs.counter("exec.par_regions")),
        ("exec.par_chunks_per_step", obs.counter("exec.par_chunks")),
        ("store.misses_per_step", misses),
        (
            "store.bytes_loaded_per_step",
            obs.counter("store.bytes_loaded"),
        ),
        (
            "store.bytes_spilled_per_step",
            obs.counter("store.bytes_spilled"),
        ),
    ] {
        m.insert(name, count as f64 / steps);
    }
}

/// Shares of `core.optimizer_step_ms`, each a probe-priced estimate:
/// work per step (exact counts) ÷ probed rate, single-thread kernel
/// rates ÷ the executor width they run at (README, "Shares"). LazyDP's
/// flush overlaps the dense half on a second thread, so its shares may
/// sum past 100 %.
fn share_metrics(m: &mut Metrics, w: &Workload, model_probe: &ModelProbe, total_rows: f64) {
    let ms = |count: f64, mega_per_s: f64| {
        if mega_per_s > 0.0 {
            count / mega_per_s / 1e3
        } else {
            0.0
        }
    };
    let stored = w.backend == Backend::Stored;
    let (gather_rate, update_rate) = if stored {
        (m["store.gather_mrows_s"], m["store.sparse_update_mrows_s"])
    } else {
        (
            m["embedding.gather_mrows_s"],
            m["embedding.sparse_update_mrows_s"],
        )
    };
    let gather_ms = ms(m["dpsgd.rows_gathered_per_step"], gather_rate);
    let update_ms = match w.algo {
        // Eager's table pass is the dense noisy update, priced below.
        Algo::Eager => 0.0,
        Algo::LazyDp | Algo::Sgd => ms(m["dpsgd.rows_written_per_step"], update_rate),
    };
    // On the store the two rates above are the hit path; each miss adds
    // a page read, and a write-back of about the same size for every
    // page spilled (in training almost every evicted page is dirty).
    let miss_ms = if stored && m["store.bytes_loaded_per_step"] > 0.0 {
        let spilled_per_loaded =
            m["store.bytes_spilled_per_step"] / m["store.bytes_loaded_per_step"];
        m["store.misses_per_step"] * m["store.miss_us"] * (1.0 + spilled_per_loaded) / 1e3
    } else {
        0.0
    };
    let table_ms = gather_ms + update_ms + miss_ms;
    // The forward replay contains the gathers, and on a stored model
    // the misses they cause without the step's prefetch; neither is
    // tensor/model time.
    let replay_table_ms = gather_ms + model_probe.store_misses * m["store.miss_us"] / 1e3;
    let dense_ms =
        (model_probe.forward_ms + model_probe.backward_clip_ms - replay_table_ms).max(0.0);
    let width = EXEC_WIDTH as f64;
    let noise_ms = match w.algo {
        Algo::Eager => ms(total_rows, m["dpsgd.dense_noisy_update_mrows_s"]) / width,
        Algo::LazyDp => {
            ms(
                m["dpsgd.gaussian_samples_per_step"],
                m["rng.fill_row_msamples_s"],
            ) / width
        }
        Algo::Sgd => 0.0,
    };
    let step_ms = m["core.optimizer_step_ms"];
    let pct = |part: f64| {
        if step_ms > 0.0 {
            part / step_ms * 100.0
        } else {
            0.0
        }
    };
    m.insert("bench.share_tensor_model_pct", pct(dense_ms));
    m.insert("bench.share_rng_dpsgd_pct", pct(noise_ms));
    m.insert(
        "bench.share_store_pct",
        if stored { pct(table_ms) } else { 0.0 },
    );
    m.insert(
        "bench.share_embedding_pct",
        if stored { 0.0 } else { pct(table_ms) },
    );
    m.insert("bench.probe_cover_pct", pct(dense_ms + noise_ms + table_ms));
}
