//! Layer probes: each times one public kernel of one crate from
//! outside, on inputs recorded from the workload's own batches, so a
//! layer's throughput is known in the same run and the same process as
//! the step time it is supposed to explain.
//!
//! Table probes run on a standard `T8`-shaped table (one table of the
//! `T8` shape, ÷16 in smoke mode) whatever the workload, so
//! `dpsgd.*`, `embedding.*` and `store.*` rates are comparable across
//! workloads; tensor and model probes take the workload's own shapes.

use crate::session::{storage_config, Noise};
use crate::spec::{EXEC_WIDTH, T8_ROWS};
use crate::stats::median;
use lazydp::data::MiniBatch;
use lazydp::dpsgd::clip_weights_into;
use lazydp::dpsgd::noise_update::{dense_noisy_update_with, sparse_noisy_update_with};
use lazydp::dpsgd::KernelCounters;
use lazydp::embedding::{EmbeddingStorage, EmbeddingTable, SparseGrad};
use lazydp::exec::Executor;
use lazydp::model::{Dlrm, DlrmCache, DlrmConfig, DlrmGrads, DlrmScratch};
use lazydp::obs::snapshot::capture_metrics;
use lazydp::rng::{GaussianSampler, RowNoise, Xoshiro256PlusPlus};
use lazydp::store::StoredTable;
use lazydp::tensor::Matrix;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Embedding dimension of the standard probe table.
const PROBE_DIM: usize = 64;

/// Runs `f` once untimed, then repeatedly until `budget` is spent (at
/// least three times); returns the median seconds per call.
fn time_reps(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let mut secs = Vec::new();
    let start = Instant::now();
    while secs.len() < 3 || (start.elapsed() < budget && secs.len() < 100_000) {
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// A deterministic, non-trivial matrix (values in (-0.5, 0.5)).
fn probe_matrix(rows: usize, cols: usize, salt: u32) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i as u32)
            .wrapping_mul(2_654_435_761)
            .wrapping_add((j as u32).wrapping_mul(40_503))
            .wrapping_add(salt);
        (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
    })
}

/// `(in, out)` of the widest MLP layer (largest weight matrix).
#[must_use]
pub fn widest_layer(cfg: &DlrmConfig) -> (usize, usize) {
    let chain = |first: usize, widths: &[usize]| {
        let mut prev = first;
        widths
            .iter()
            .map(|&w| {
                let pair = (prev, w);
                prev = w;
                pair
            })
            .collect::<Vec<_>>()
    };
    chain(cfg.num_dense, &cfg.bottom_layers)
        .into_iter()
        .chain(chain(cfg.top_input_dim(), &cfg.top_layers))
        .max_by_key(|(i, o)| i * o)
        .expect("a DLRM has MLP layers")
}

/// GEMM FLOPs of one training step computed from the config: `2·b·in·out`
/// per layer for the forward product and for each of the fused clipped
/// backward's two products.
#[must_use]
pub fn gemm_flops_per_step(cfg: &DlrmConfig, batch: usize) -> f64 {
    let mut macs = 0usize;
    let mut prev = cfg.num_dense;
    for &w in &cfg.bottom_layers {
        macs += prev * w;
        prev = w;
    }
    let mut prev = cfg.top_input_dim();
    for &w in &cfg.top_layers {
        macs += prev * w;
        prev = w;
    }
    (3 * 2 * batch * macs) as f64
}

/// `tensor.{matmul,t_matmul,matmul_t}_gflops` at the widest layer ×
/// batch, and `tensor.fma_peak_gflops` from register-resident `mul_add`
/// chains in the same run, so a ratio has a same-run denominator.
#[must_use]
pub fn tensor_probes(cfg: &DlrmConfig, batch: usize, budget: Duration) -> [(&'static str, f64); 4] {
    let (k, n) = widest_layer(cfg);
    let m = batch;
    let x = probe_matrix(m, k, 1);
    let w = probe_matrix(k, n, 2);
    let d = probe_matrix(m, n, 3);
    let flops = (2 * m * k * n) as f64;
    let mut y = Matrix::zeros(m, n);
    let fwd = time_reps(budget, || x.matmul_into(black_box(&w), &mut y));
    let mut dw = Matrix::zeros(k, n);
    let wgrad = time_reps(budget, || x.t_matmul_into(black_box(&d), &mut dw));
    let mut dx = Matrix::zeros(m, k);
    let xgrad = time_reps(budget, || d.matmul_t_into(black_box(&w), &mut dx));
    black_box((&y, &dw, &dx));

    // Eight independent 8-lane chains cover FMA latency × ports on any
    // current x86 core (the repo's roofline experiment uses the same
    // bundle), so this is issue rate, not dependency latency.
    #[inline(never)]
    fn fma_chains(acc: &mut [[f32; 8]; 8], iters: usize) {
        for _ in 0..iters {
            for chain in acc.iter_mut() {
                for v in chain.iter_mut() {
                    *v = v.mul_add(0.999, 1e-7);
                }
            }
        }
    }
    let iters = 1 << 20;
    let mut acc = [[1.0f32; 8]; 8];
    let peak = time_reps(budget, || fma_chains(black_box(&mut acc), iters));
    black_box(&acc);
    [
        ("tensor.matmul_gflops", flops / fwd / 1e9),
        ("tensor.t_matmul_gflops", flops / wgrad / 1e9),
        ("tensor.matmul_t_gflops", flops / xgrad / 1e9),
        (
            "tensor.fma_peak_gflops",
            (iters * 64 * 2) as f64 / peak / 1e9,
        ),
    ]
}

/// What [`model_probes`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelProbe {
    /// `model.forward_ms`.
    pub forward_ms: f64,
    /// `model.backward_clip_ms`.
    pub backward_clip_ms: f64,
    /// Page-cache misses per replayed batch (0 on a memory model): the
    /// replay runs without the step's prefetch, so on a stored model
    /// its forward time contains store traffic the shares must not
    /// book under `tensor`/`model`.
    pub store_misses: f64,
}

/// `model.forward_ms` and `model.backward_clip_ms`: the workload's own
/// model replaying the workload's recorded batches through
/// `Dlrm::forward_with` / `backward_clipped_with` (clip at `C = 1`).
#[must_use]
pub fn model_probes<T: EmbeddingStorage>(
    model: &Dlrm<T>,
    batches: &[MiniBatch],
    budget: Duration,
) -> ModelProbe {
    let batches: Vec<&MiniBatch> = batches.iter().filter(|b| !b.is_empty()).collect();
    if batches.is_empty() {
        return ModelProbe::default();
    }
    let mut cache = DlrmCache::default();
    let mut scratch = DlrmScratch::default();
    let mut grads = DlrmGrads::default();
    let mut logit_g = Vec::new();
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let before = capture_metrics();
    let start = Instant::now();
    let mut rep = 0usize;
    // The first pass over the batches sizes the scratch; it is not kept.
    while rep < batches.len() + 3 || start.elapsed() < 2 * budget {
        let batch = batches[rep % batches.len()];
        let t0 = Instant::now();
        model.forward_with(batch, &mut cache, &mut scratch);
        let t1 = Instant::now();
        Dlrm::logit_grads_into(&cache, &batch.labels, false, &mut logit_g);
        model.backward_clipped_with(
            &cache,
            batch,
            &logit_g,
            |norms, weights| clip_weights_into(norms, 1.0, weights),
            &mut grads,
            &mut scratch,
        );
        let t2 = Instant::now();
        if rep >= batches.len() {
            fwd.push((t1 - t0).as_secs_f64() * 1e3);
            bwd.push((t2 - t1).as_secs_f64() * 1e3);
        }
        rep += 1;
    }
    black_box(&grads);
    let misses = capture_metrics()
        .delta_since(&before)
        .counter("store.misses");
    ModelProbe {
        forward_ms: median(&fwd),
        backward_clip_ms: median(&bwd),
        store_misses: misses as f64 / rep as f64,
    }
}

/// The rows the recorded batches look up in table 0, folded into the
/// standard probe table: every lookup in order, and the sorted distinct
/// set.
#[derive(Debug, Clone)]
pub struct RecordedRows {
    /// Rows of the standard probe table.
    pub table_rows: usize,
    /// Every lookup, in batch order.
    pub lookups: Vec<u64>,
    /// Sorted, duplicate-free.
    pub distinct: Vec<u64>,
}

impl RecordedRows {
    /// Extracts table 0's lookups from `batches`.
    #[must_use]
    pub fn from_batches(batches: &[MiniBatch], smoke: bool) -> Self {
        let table_rows = (T8_ROWS / if smoke { 16 } else { 1 }) as usize;
        Self::fold(
            table_rows,
            batches
                .iter()
                .filter_map(|b| b.sparse.first())
                .flat_map(|s| s.flat_indices().iter().map(|&r| r % table_rows as u64)),
        )
    }

    /// The recorded-rows view of a lookup sequence.
    fn fold(table_rows: usize, lookups: impl Iterator<Item = u64>) -> Self {
        let lookups: Vec<u64> = lookups.collect();
        let mut distinct = lookups.clone();
        distinct.sort_unstable();
        distinct.dedup();
        Self {
            table_rows,
            lookups,
            distinct,
        }
    }

    /// A coalesced gradient over the distinct rows.
    fn grad(&self) -> SparseGrad {
        let mut g = SparseGrad::new(PROBE_DIM);
        for &r in &self.distinct {
            g.push(r, &[0.01; PROBE_DIM]);
        }
        debug_assert!(g.is_coalesced());
        g
    }
}

/// `rng.fill_dense_msamples_s` (one long streaming fill, eager's use)
/// and `rng.fill_row_msamples_s` (one `dim`-long addressed fill per
/// recorded row, LazyDP's use).
#[must_use]
pub fn rng_probes(rows: &RecordedRows, seed: u64, budget: Duration) -> [(&'static str, f64); 2] {
    let n = 1usize << 20;
    let mut buf = vec![0.0f32; n];
    let sampler = GaussianSampler::standard();
    let mut rng = Xoshiro256PlusPlus::seed_from(seed);
    let dense = time_reps(budget, || sampler.fill(&mut rng, black_box(&mut buf)));

    let mut noise = Noise::new(seed);
    let mut out = [0.0f32; PROBE_DIM];
    let mut iter = 0u64;
    let per_pass = time_reps(budget, || {
        iter += 1;
        for &r in &rows.distinct {
            noise.fill_unit(0, r, iter, black_box(&mut out));
        }
    });
    let row_samples = (rows.distinct.len() * PROBE_DIM) as f64;
    [
        ("rng.fill_dense_msamples_s", n as f64 / dense / 1e6),
        (
            "rng.fill_row_msamples_s",
            if rows.distinct.is_empty() {
                0.0
            } else {
                row_samples / per_pass / 1e6
            },
        ),
    ]
}

/// `dpsgd.{dense,sparse}_noisy_update_mrows_s` and
/// `embedding.{gather,sparse_update}_mrows_s` on one memory table of
/// the standard shape.
#[must_use]
pub fn memory_table_probes(
    rows: &RecordedRows,
    seed: u64,
    budget: Duration,
) -> [(&'static str, f64); 4] {
    let mut table = EmbeddingTable::zeros(rows.table_rows, PROBE_DIM);
    let grad = rows.grad();
    let mut noise = Noise::new(seed);
    let mut counters = KernelCounters::new();
    let mut buf = Vec::new();
    let mut iter = 0u64;
    let dense = time_reps(budget, || {
        iter += 1;
        dense_noisy_update_with(
            0,
            &mut table,
            &grad,
            &mut noise,
            iter,
            0.004,
            0.05,
            &mut counters,
            &mut buf,
        );
    });
    let sparse = time_reps(budget, || {
        iter += 1;
        sparse_noisy_update_with(
            0,
            &mut table,
            &grad,
            &mut noise,
            iter,
            0.004,
            0.05,
            &mut counters,
            &mut buf,
        );
    });
    let gather = time_reps(budget, || {
        black_box(EmbeddingStorage::gather(&table, black_box(&rows.lookups)));
    });
    let update = time_reps(budget, || {
        EmbeddingStorage::sparse_update(&mut table, black_box(&grad), 0.05)
    });
    black_box(&table);
    let mrows = |n: usize, secs: f64| if n == 0 { 0.0 } else { n as f64 / secs / 1e6 };
    [
        (
            "dpsgd.dense_noisy_update_mrows_s",
            mrows(rows.table_rows, dense),
        ),
        (
            "dpsgd.sparse_noisy_update_mrows_s",
            mrows(grad.len(), sparse),
        ),
        (
            "embedding.gather_mrows_s",
            mrows(rows.lookups.len(), gather),
        ),
        ("embedding.sparse_update_mrows_s", mrows(grad.len(), update)),
    ]
}

/// `store.{gather,sparse_update}_mrows_s` — the same two calls on a
/// `StoredTable` of the standard shape with half its pages cached, the
/// recorded rows folded into a quarter of the table so every access after
/// the first pass is a hit (the hit path: lock, residency lookup, copy) —
/// and `store.miss_us` from cyclic gathers of one row per page, which a
/// clock cache of half the pages misses every time (the clean-miss
/// path: page read and checksum). A training step's cost on the store
/// is hits at the first rate plus misses at the second.
///
/// # Panics
///
/// Panics on a spill-file I/O error.
#[must_use]
pub fn store_probes(
    rows: &RecordedRows,
    seed: u64,
    spill: &Path,
    budget: Duration,
) -> [(&'static str, f64); 3] {
    let cfg = storage_config(rows.table_rows as u64, spill);
    let mut rng = Xoshiro256PlusPlus::seed_from(seed);
    let mut table = StoredTable::init_uniform(rows.table_rows, PROBE_DIM, &mut rng, &cfg)
        .expect("spill the probe table");
    // Half the cache, so the hot set fits with room to spare.
    let hot_rows = (table.cache_pages() * table.page_rows() / 2).max(1) as u64;
    let hot = RecordedRows::fold(rows.table_rows, rows.lookups.iter().map(|r| r % hot_rows));
    let grad = hot.grad();
    let gather = time_reps(budget, || {
        black_box(EmbeddingStorage::gather(&table, black_box(&hot.lookups)));
    });
    let update = time_reps(budget, || {
        EmbeddingStorage::sparse_update(&mut table, black_box(&grad), 0.05)
    });

    let one_per_page: Vec<u64> = (0..table.total_pages() as u64)
        .map(|p| p * table.page_rows() as u64)
        .collect();
    // Flush the dirty frames the update probe left, so the misses below
    // pay no write-back.
    table.sync().expect("sync the probe table");
    black_box(EmbeddingStorage::gather(&table, &one_per_page));
    let before = capture_metrics();
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes < 2 || t0.elapsed() < budget {
        black_box(EmbeddingStorage::gather(&table, &one_per_page));
        passes += 1;
    }
    let cold_secs = t0.elapsed().as_secs_f64();
    let misses = capture_metrics()
        .delta_since(&before)
        .counter("store.misses");
    let mrows = |n: usize, secs: f64| if n == 0 { 0.0 } else { n as f64 / secs / 1e6 };
    [
        ("store.gather_mrows_s", mrows(hot.lookups.len(), gather)),
        ("store.sparse_update_mrows_s", mrows(grad.len(), update)),
        (
            "store.miss_us",
            if misses == 0 {
                0.0
            } else {
                cold_secs * 1e6 / misses as f64
            },
        ),
    ]
}

/// `exec.region_overhead_us`: one `par_for` region over two chunks with
/// an empty body at the benchmark's executor width — what every GEMM
/// and every noise kernel pays to enter the executor.
#[must_use]
pub fn exec_probe(budget: Duration) -> (&'static str, f64) {
    const REGIONS: usize = 200;
    let exec = Executor::new(EXEC_WIDTH);
    let mut data = [0u8; 2];
    let secs = time_reps(budget, || {
        for _ in 0..REGIONS {
            exec.par_for(black_box(&mut data), 1, |_, _| {});
        }
    });
    ("exec.region_overhead_us", secs / REGIONS as f64 * 1e6)
}
