//! Real-hardware kernel benchmarks: the paper's §4.3 bottleneck claims
//! demonstrated live on this machine.
//!
//! * Box–Muller Gaussian sampling is compute-bound: throughput is flat
//!   in buffer size and far below the memcpy rate.
//! * The dense noisy update streams the whole table: its time scales
//!   linearly with table size.
//! * LazyDP's lazy+ANS update touches only the next batch's unique rows:
//!   its time is *independent* of table size (the paper's Fig. 13(a)
//!   flatness, at functional scale).
//! * ANS replaces `delays` draws with one: sampling time drops by ≈ the
//!   delay factor (§5.2.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lazydp_dpsgd::counters::KernelCounters;
use lazydp_dpsgd::noise_update::dense_noisy_update_with;
use lazydp_embedding::{EmbeddingTable, SparseGrad};
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::{fill_standard_normal, GaussianSampler, Prng, Xoshiro256PlusPlus};
use lazydp_tensor::{set_gemm_mode, GemmMode, Matrix};
use std::hint::black_box;
use std::time::Duration;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
}

/// The three GEMM variants at small/medium DLRM shapes, blocked
/// micro-kernels vs the naive reference kernels — the local regression
/// guard for the kernel layer (both are bitwise identical; only
/// wall-clock may differ).
fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mk = |rows: usize, cols: usize, seed: u32| {
        Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u32)
                .wrapping_mul(2_654_435_761)
                .wrapping_add((j as u32).wrapping_mul(40_503))
                .wrapping_add(seed);
            // ReLU-like zeros so the reference zero-skip path is live.
            if x.is_multiple_of(3) {
                0.0
            } else {
                ((x % 1000) as f32 - 500.0) / 250.0
            }
        })
    };
    for &(label, m, k, n) in &[
        ("small-64x128x64", 64usize, 128usize, 64usize),
        ("medium-256x512x512", 256, 512, 512),
    ] {
        let a = mk(m, k, 1);
        let b = mk(k, n, 2);
        let at = mk(k, m, 3);
        let bt = mk(n, k, 4);
        let flops = (2 * m * k * n) as u64;
        group.throughput(Throughput::Elements(flops));
        for (mode, tag) in [
            (GemmMode::Blocked, "blocked"),
            (GemmMode::Reference, "reference"),
        ] {
            let mut out = Matrix::zeros(0, 0);
            group.bench_function(&format!("matmul/{tag}/{label}"), |bch| {
                set_gemm_mode(mode);
                bch.iter(|| {
                    black_box(&a).matmul_into(black_box(&b), &mut out);
                    black_box(out.as_slice()[0]);
                });
            });
            group.bench_function(&format!("t_matmul/{tag}/{label}"), |bch| {
                set_gemm_mode(mode);
                bch.iter(|| {
                    black_box(&at).t_matmul_into(black_box(&b), &mut out);
                    black_box(out.as_slice()[0]);
                });
            });
            group.bench_function(&format!("matmul_t/{tag}/{label}"), |bch| {
                set_gemm_mode(mode);
                bch.iter(|| {
                    black_box(&a).matmul_t_into(black_box(&bt), &mut out);
                    black_box(out.as_slice()[0]);
                });
            });
        }
    }
    set_gemm_mode(GemmMode::Blocked);
    group.finish();
}

/// Gaussian sampling throughput across buffer sizes (compute-bound ⇒
/// roughly constant ns/element).
fn bench_noise_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("noise_sampling");
    for &n in &[1usize << 14, 1 << 17, 1 << 20] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("box_muller_fill", n), &n, |b, &n| {
            let mut rng = Xoshiro256PlusPlus::seed_from(1);
            let mut buf = vec![0.0f32; n];
            b.iter(|| {
                fill_standard_normal(&mut rng, black_box(&mut buf));
                black_box(buf[0]);
            });
        });
    }
    group.finish();
}

/// ANS vs per-step draws: one aggregated draw replaces `delays` draws.
fn bench_ans(c: &mut Criterion) {
    let mut group = c.benchmark_group("ans_vs_repeated_draws");
    let dim = 128usize;
    for &delays in &[1u64, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("repeated", delays),
            &delays,
            |b, &delays| {
                let mut rng = Xoshiro256PlusPlus::seed_from(2);
                let sampler = GaussianSampler::new(0.0, 0.01);
                let mut acc = vec![0.0f32; dim];
                b.iter(|| {
                    acc.fill(0.0);
                    for _ in 0..delays {
                        sampler.accumulate(&mut rng, 1.0, black_box(&mut acc));
                    }
                    black_box(acc[0]);
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("aggregated", delays),
            &delays,
            |b, &delays| {
                let mut rng = Xoshiro256PlusPlus::seed_from(2);
                let std = 0.01 * (delays as f32).sqrt();
                let sampler = GaussianSampler::new(0.0, std);
                let mut acc = vec![0.0f32; dim];
                b.iter(|| {
                    acc.fill(0.0);
                    sampler.accumulate(&mut rng, 1.0, black_box(&mut acc));
                    black_box(acc[0]);
                });
            },
        );
    }
    group.finish();
}

/// Dense noisy update (time ∝ table size) vs LazyDP-style sparse noisy
/// update (time ∝ batch, flat in table size) — the crux of the paper.
fn bench_table_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_update");
    let dim = 64usize;
    let batch_rows = 256u64; // unique rows the batch touches
    for &rows in &[4096usize, 32_768, 131_072] {
        let grad = {
            let mut g = SparseGrad::new(dim);
            for r in 0..batch_rows {
                let _ = g.push_zeros(r * (rows as u64 / batch_rows));
            }
            g.coalesce();
            g
        };
        group.bench_with_input(
            BenchmarkId::new("dense_noisy_update", rows),
            &rows,
            |b, &rows| {
                let mut table = EmbeddingTable::zeros(rows, dim);
                let mut noise = CounterNoise::new(3);
                let mut counters = KernelCounters::new();
                let mut buf = Vec::new();
                let mut iter = 0u64;
                b.iter(|| {
                    iter += 1;
                    dense_noisy_update_with(
                        0,
                        black_box(&mut table),
                        &grad,
                        &mut noise,
                        iter,
                        1e-4,
                        0.05,
                        &mut counters,
                        &mut buf,
                    );
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lazy_sparse_update", rows),
            &rows,
            |b, &rows| {
                let mut table = EmbeddingTable::zeros(rows, dim);
                let mut rng = Xoshiro256PlusPlus::seed_from(5);
                let mut buf = vec![0.0f32; dim];
                b.iter(|| {
                    // One ANS draw + scatter per touched row (delays=16).
                    let std = 1e-4f32 * 4.0;
                    for r in 0..batch_rows {
                        fill_standard_normal(&mut rng, &mut buf);
                        let row = table.row_mut(((r * 17) % rows as u64) as usize);
                        for (w, &n) in row.iter_mut().zip(buf.iter()) {
                            *w -= 0.05 * std * n;
                        }
                    }
                    black_box(table.row(0)[0]);
                });
            },
        );
    }
    group.finish();
}

/// Random row gather vs sequential copy of the same number of bytes,
/// over a table far larger than the LLC (random rows pay DRAM-page
/// penalties that sequential streams do not — the reason `sysmodel`
/// prices gathers at a degraded bandwidth).
fn bench_gather_vs_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("gather_vs_stream");
    let dim = 128usize;
    let rows = 1 << 20; // 512 MB table: well beyond any cache here
    let table = EmbeddingTable::zeros(rows, dim);
    let mut rng = Xoshiro256PlusPlus::seed_from(7);
    let indices: Vec<u64> = (0..4096).map(|_| rng.next_below(rows as u64)).collect();
    let mut out = vec![0.0f32; 4096 * dim];
    group.bench_function("random_gather_4096_rows", |b| {
        b.iter(|| {
            for (i, &idx) in indices.iter().enumerate() {
                out[i * dim..(i + 1) * dim].copy_from_slice(table.row(idx as usize));
            }
            black_box(out[0]);
        });
    });
    group.bench_function("sequential_copy_same_bytes", |b| {
        let n = 4096 * dim;
        let mut offset = 0usize;
        b.iter(|| {
            // Walk the table so successive iterations touch cold regions.
            offset = (offset + n) % (rows * dim - n);
            out.copy_from_slice(&table.as_slice()[offset..offset + n]);
            black_box(out[0]);
        });
    });
    group.finish();
}

/// Parallel Box–Muller fill: thread scaling of the §6 multi-threaded
/// noise kernel (the paper uses TBB/OpenMP across 20 cores; this host
/// has fewer, but the per-thread efficiency shape still shows).
fn bench_parallel_noise(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_noise");
    let n = 1usize << 20;
    for &threads in &[1usize, 2, 4] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("par_fill", threads),
            &threads,
            |b, &threads| {
                let mut buf = vec![0.0f32; n];
                b.iter(|| {
                    lazydp_rng::par_fill_standard_normal(7, black_box(&mut buf), threads);
                    black_box(buf[0]);
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_gemm, bench_noise_sampling, bench_ans, bench_table_update, bench_gather_vs_stream, bench_parallel_noise
}
criterion_main!(benches);
