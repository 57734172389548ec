//! The benchmark's fixed vocabulary: workload names and shapes, metric
//! names, units, directions, bounds and floors. `BENCHMARK.json` at the
//! repo root repeats the names, units and bounds (the smoke test checks
//! the two agree); later issues quote these names verbatim.

use lazydp::data::{AccessDistribution, SyntheticConfig, SyntheticDataset};
use lazydp::model::DlrmConfig;

/// Executor width every workload runs at — a constant, not `nproc`, so
/// numbers compare across hosts.
pub const EXEC_WIDTH: usize = 2;

/// Rounds the timed section is cut into; `samples_per_s` is the median
/// of the per-round rates.
pub const ROUNDS: usize = 5;

/// Untimed set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// δ of the reported (ε, δ) statement.
pub const DELTA: f64 = 1e-6;

/// Rows of one `T8` table.
pub const T8_ROWS: u64 = 131_072;

/// Which training algorithm a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `LazyDpOptimizer` (ANS on) under a `PrivateTrainer`.
    LazyDp,
    /// `EagerDpSgd` with `ClipStyle::Fast` under a `PrivateTrainer`.
    Eager,
    /// Non-private `SgdOptimizer`, driven by the harness's own loop.
    Sgd,
}

/// Where the embedding rows live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `EmbeddingTable`.
    Memory,
    /// `StoredTable`, 64-row pages, cache = half the pages.
    Stored,
}

/// The model shape a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `DlrmConfig::mlperf(4000)`: MLPerf MLP widths, tiny tables.
    Dense,
    /// `T8`: 8 tables × 131 072 rows × dim 64, pooling 4, `rmc1` MLPs.
    T8,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as `BENCHMARK.json` and later issues spell it.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Algorithm.
    pub algo: Algo,
    /// Embedding backend.
    pub backend: Backend,
    /// Model shape.
    pub shape: Shape,
    /// Nominal (Poisson-mean) batch size.
    pub batch: usize,
    /// Untimed warm-up steps per set-up (the fixed window the exact
    /// counts are taken over).
    pub warmup_steps: usize,
}

/// The five workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dense_lazydp",
        why: "MLPerf MLP widths, tiny tables: GEMM, fused-clip backward and executor regions do the work; \
              rng and store must not move it",
        algo: Algo::LazyDp,
        backend: Backend::Memory,
        shape: Shape::Dense,
        batch: 128,
        warmup_steps: 3,
    },
    Workload {
        name: "table_lazydp",
        why: "the paper's system at T8: lookahead dedup, sharded history, ANS per-row noise fills, \
              lazy sparse update, deferred flush at finalize",
        algo: Algo::LazyDp,
        backend: Backend::Memory,
        shape: Shape::T8,
        batch: 256,
        warmup_steps: 3,
    },
    Workload {
        name: "table_eager",
        why: "the paper's baseline, eager DP-SGD(F) at T8: table-sized Gaussian sampling and dense noisy \
              update; same shape and seed as table_lazydp",
        algo: Algo::Eager,
        backend: Backend::Memory,
        shape: Shape::T8,
        batch: 256,
        warmup_steps: 1,
    },
    Workload {
        name: "table_stored",
        why: "LazyDP at T8 on StoredTable with half the pages cached: page faults, dirty write-back, \
              checksums and prefetch hand-off; bypassed by the memory workloads",
        algo: Algo::LazyDp,
        backend: Backend::Stored,
        shape: Shape::T8,
        batch: 256,
        warmup_steps: 3,
    },
    Workload {
        name: "table_sgd",
        why: "non-private SGD at T8: the plain baseline; everything DP adds is the gap to this row",
        algo: Algo::Sgd,
        backend: Backend::Memory,
        shape: Shape::T8,
        batch: 256,
        warmup_steps: 3,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The model configuration; `smoke` divides table rows by 16.
    #[must_use]
    pub fn model_config(&self, smoke: bool) -> DlrmConfig {
        let div = if smoke { 16 } else { 1 };
        match self.shape {
            Shape::Dense => DlrmConfig::mlperf(4000 * div),
            Shape::T8 => t8_config(T8_ROWS / div),
        }
    }

    /// The synthetic dataset behind the Poisson loader: 16 384 samples
    /// whose lookups follow Zipf(0.9) over each table, seeded from the
    /// benchmark seed.
    #[must_use]
    pub fn dataset(&self, smoke: bool, seed: u64) -> SyntheticDataset {
        dataset_for(&self.model_config(smoke), seed)
    }
}

/// The `T8` shape at a given rows-per-table (the verify pass and smoke
/// mode shrink it).
#[must_use]
pub fn t8_config(rows: u64) -> DlrmConfig {
    DlrmConfig::rmc1(1)
        .with_table_rows(vec![rows; 8])
        .with_pooling(4)
}

/// Samples in every benchmark dataset.
pub const DATASET_SAMPLES: usize = 16_384;

/// A Zipf(0.9) dataset matching `cfg`'s tables and pooling.
#[must_use]
pub fn dataset_for(cfg: &DlrmConfig, seed: u64) -> SyntheticDataset {
    SyntheticDataset::new(SyntheticConfig {
        num_dense: cfg.num_dense,
        table_rows: cfg.table_rows.clone(),
        pooling: cfg.pooling,
        distributions: cfg
            .table_rows
            .iter()
            .map(|&r| AccessDistribution::zipf(r, 0.9))
            .collect(),
        num_samples: DATASET_SAMPLES,
        seed,
    })
}

/// Whether a smaller or a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, memory.
    Lower,
    /// Rates.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and its regression rule: a change is a
/// regression only past `max(bound × base, floor)`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative bound (share of the base's median).
    pub bound: f64,
    /// Absolute floor, in the metric's unit.
    pub floor: f64,
}

/// The end-to-end metrics every workload reports.
///
/// The time bounds sit at the contract's cap (25 %): on the 2-vCPU
/// hosts this runs on, back-to-back runs of one binary drift by 10–15 %
/// for minutes at a time (README, "Noise"), and a gate that flaps is
/// worse than a wide one.
///
/// `ops_failed_share` is not in this list because the contract bans
/// metrics that are normally 0; it travels as `attempted` / `failed`
/// and `compare` gates any rise.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.2,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.2,
    },
    EndToEnd {
        name: "samples_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "finalize_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        floor: 8.0,
    },
];

/// A per-layer metric: name (prefixed with the crate it measures),
/// unit and direction. Per-layer metrics carry no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction an optimisation would move it.
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics the traced run reports, on every workload.
pub const PER_LAYER: [PerLayer; 44] = [
    pl("tensor.matmul_gflops", "GFLOP/s", Better::Higher),
    pl("tensor.t_matmul_gflops", "GFLOP/s", Better::Higher),
    pl("tensor.matmul_t_gflops", "GFLOP/s", Better::Higher),
    pl("tensor.fma_peak_gflops", "GFLOP/s", Better::Higher),
    pl("model.forward_ms", "ms", Better::Lower),
    pl("model.backward_clip_ms", "ms", Better::Lower),
    pl("model.gemm_flops_per_step", "count", Better::Lower),
    pl("rng.fill_dense_msamples_s", "Msamples/s", Better::Higher),
    pl("rng.fill_row_msamples_s", "Msamples/s", Better::Higher),
    pl(
        "dpsgd.dense_noisy_update_mrows_s",
        "Mrows/s",
        Better::Higher,
    ),
    pl(
        "dpsgd.sparse_noisy_update_mrows_s",
        "Mrows/s",
        Better::Higher,
    ),
    pl("dpsgd.gaussian_samples_per_step", "count", Better::Lower),
    pl("dpsgd.rows_written_per_step", "count", Better::Lower),
    pl("dpsgd.rows_gathered_per_step", "count", Better::Lower),
    pl("dpsgd.duplicates_removed_per_step", "count", Better::Lower),
    pl("core.optimizer_step_ms", "ms", Better::Lower),
    pl("core.step_ms_p90", "ms", Better::Lower),
    pl("core.flush_rows_per_step", "count", Better::Lower),
    pl("core.history_reads_per_step", "count", Better::Lower),
    pl("core.finalize_flush_s", "s", Better::Lower),
    pl("core.finalize_mrows_s", "Mrows/s", Better::Higher),
    pl("core.checkpoint_save_s", "s", Better::Lower),
    pl("core.checkpoint_bytes", "B", Better::Lower),
    pl("embedding.gather_mrows_s", "Mrows/s", Better::Higher),
    pl("embedding.sparse_update_mrows_s", "Mrows/s", Better::Higher),
    pl("store.hit_rate", "ratio", Better::Higher),
    pl("store.misses_per_step", "count", Better::Lower),
    pl("store.bytes_loaded_per_step", "B", Better::Lower),
    pl("store.bytes_spilled_per_step", "B", Better::Lower),
    pl("store.gather_mrows_s", "Mrows/s", Better::Higher),
    pl("store.sparse_update_mrows_s", "Mrows/s", Better::Higher),
    pl("store.miss_us", "us", Better::Lower),
    pl("data.advance_us", "us", Better::Lower),
    pl("exec.region_overhead_us", "us", Better::Lower),
    pl("exec.par_regions_per_step", "count", Better::Lower),
    pl("exec.par_chunks_per_step", "count", Better::Lower),
    pl("privacy.compose_us", "us", Better::Lower),
    pl("bench.trace_overhead_pct", "%", Better::Lower),
    pl("bench.probe_cover_pct", "%", Better::Higher),
    pl("bench.share_tensor_model_pct", "%", Better::Lower),
    pl("bench.share_rng_dpsgd_pct", "%", Better::Lower),
    pl("bench.share_store_pct", "%", Better::Lower),
    pl("bench.share_embedding_pct", "%", Better::Lower),
    pl("bench.traced_steps", "count", Better::Higher),
];

/// Seconds one contract run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json` as this vocabulary defines it. The committed file
/// at the repo root must equal this document (the package's test
/// compares them), so the names the driver gates on are the names the
/// harness reports.
#[must_use]
pub fn benchmark_json() -> crate::json::Json {
    use crate::json::Json;
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj()
        .with("command", strs(&["bash", "benchmark/run.sh"]))
        .with("paths", strs(&["benchmark"]))
        .with("run_seconds", Json::UInt(RUN_SECONDS))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .with("name", Json::str(w.name))
                            .with("why", Json::str(w.why))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", Json::str(m.name))
                            .with("unit", Json::str(m.unit))
                            .with("better", Json::str(m.better.as_str()))
                            .with("bound", Json::Num(m.bound))
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", Json::str(m.name))
                            .with("unit", Json::str(m.unit))
                            .with("better", Json::str(m.better.as_str()))
                    })
                    .collect(),
            ),
        )
}
