//! Kernel-layer experiment: before/after throughput of the PR's three
//! optimizations, measured live on this machine.
//!
//! * **GEMM** — single-thread GFLOP/s of the register-blocked
//!   micro-kernels versus the naive reference kernels (the pre-blocking
//!   loop structure), on small and medium DLRM-shaped products. The
//!   two implementations are bitwise identical (see
//!   `lazydp_tensor::gemm`), so the speedup column is pure wall-clock.
//! * **DP backward** — the fused ghost-clipping backward (one chain:
//!   ghost norms + clip + clipped aggregate, clip factors applied in
//!   the weight-grad GEMM epilogue) versus the two-pass
//!   ghost-norms-then-reweighted-backward it replaces. Bitwise
//!   identical outputs; 2 GEMMs per layer instead of 3.
//! * **Gaussian sampling** — single-pass `GaussianSampler::fill`
//!   (affine folded into the Box–Muller conversion, batched uniforms)
//!   versus the historical two-pass fill-then-scale sweep.
//! * **Training step** — LazyDP step wall-clock (and ns per sample)
//!   with the reference kernels versus the blocked kernels, steady
//!   state (arena warm), single thread.
//!
//! Run at full scale (release) with
//! `cargo run --release -p lazydp_bench --bin figures -- kernels`
//! (JSON: `figures -- json kernels`). A local experiment: the
//! committed per-layer trajectory is `benchmark/results/`.

use crate::table::Table;
use lazydp_core::{LazyDpConfig, LazyDpOptimizer};
use lazydp_data::{AccessDistribution, MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp_dpsgd::{DpConfig, Optimizer};
use lazydp_model::{Dlrm, DlrmConfig, Mlp, MlpGrads};
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::{fill_standard_normal, GaussianSampler, Xoshiro256PlusPlus};
use lazydp_tensor::{set_gemm_mode, GemmMode, Matrix};
use std::time::Instant;

/// Timing rounds per measurement; the minimum round is reported
/// (standard best-of-N, which rejects scheduler/neighbour noise — this
/// container shares one CPU).
const TIMING_ROUNDS: usize = 5;

/// Best-of-[`TIMING_ROUNDS`] mean seconds per call of `f` (one untimed
/// warm-up call).
fn time_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..TIMING_ROUNDS {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn bench_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i as u32)
            .wrapping_mul(2_654_435_761)
            .wrapping_add((j as u32).wrapping_mul(40_503))
            .wrapping_add(seed);
        let v = ((x % 1000) as f32 - 500.0) / 250.0;
        // ReLU-like sparsity so the reference kernels' zero-skip fast
        // path gets its best case.
        if x.is_multiple_of(3) {
            0.0
        } else {
            v
        }
    })
}

/// One GEMM variant timed in both kernel modes at one shape; returns
/// `(reference GFLOP/s, blocked GFLOP/s)`.
fn gemm_point(flops: f64, reps: usize, mut run: impl FnMut(&mut Matrix)) -> (f64, f64) {
    let mut out = Matrix::zeros(0, 0);
    set_gemm_mode(GemmMode::Reference);
    let t_ref = time_per_call(reps, || run(&mut out));
    set_gemm_mode(GemmMode::Blocked);
    let t_blk = time_per_call(reps, || run(&mut out));
    (flops / t_ref / 1e9, flops / t_blk / 1e9)
}

/// Builds the LazyDP step workload used for the before/after step
/// timing (same construction as the `scaling` experiment: a uniform
/// trace matching the model's table geometry).
fn step_workload(cfg: &DlrmConfig, batch: usize, steps: usize) -> (Dlrm, Vec<MiniBatch>) {
    let mut rng = Xoshiro256PlusPlus::seed_from(29);
    let model = Dlrm::new(cfg.clone(), &mut rng);
    let scfg = SyntheticConfig {
        num_dense: cfg.num_dense,
        table_rows: cfg.table_rows.clone(),
        pooling: cfg.pooling,
        num_samples: batch * (steps + 2),
        distributions: cfg
            .table_rows
            .iter()
            .map(|&r| AccessDistribution::uniform(r))
            .collect(),
        seed: 0xfeed,
    };
    let ds = SyntheticDataset::new(scfg);
    let batches = (0..steps + 2)
        .map(|i| ds.batch_of(&(i * batch..(i + 1) * batch).collect::<Vec<_>>()))
        .collect();
    (model, batches)
}

/// Mean seconds per steady-state LazyDP step under the current GEMM
/// mode (2 arena warm-up steps, then `timed` timed steps, 1 thread).
fn step_seconds(model0: &Dlrm, batches: &[MiniBatch], batch: usize, timed: usize) -> f64 {
    let dp = DpConfig::new(0.8, 1.0, 0.05, batch).with_threads(1);
    let cfg = LazyDpConfig::new(dp, true);
    let mut model = model0.clone();
    let mut opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(5));
    opt.step(&mut model, &batches[0], Some(&batches[1]));
    opt.step(&mut model, &batches[1], Some(&batches[2]));
    let t0 = Instant::now();
    for i in 0..timed {
        let cur = &batches[2 + (i % (batches.len() - 3))];
        let next = &batches[3 + (i % (batches.len() - 3))];
        opt.step(&mut model, cur, Some(next));
    }
    t0.elapsed().as_secs_f64() / timed as f64
}

/// The `kernels` experiment (registry id `kernels`).
#[must_use]
pub fn kernel_throughput() -> Table {
    let mut t = Table::new(
        "kernels",
        "Kernel layer — blocked GEMM micro-kernels, single-pass noise fills, \
         zero-allocation step (before/after, this machine, 1 thread)",
        &["kernel", "shape", "before", "after", "speedup", "unit"],
    )
    .with_note(
        "\"before\" = naive reference kernels / two-pass fill; \"after\" = register-blocked \
         micro-kernels (packed B panels, MR×NR mul_add block) / single-pass fill with batched \
         uniforms. Both GEMM modes are bitwise identical, so the speedup is pure wall-clock. \
         Gaussian fill is compute-bound in the Box–Muller transform (the paper's Fig. 6 point: \
         81% of AVX peak), so removing the second sweep is within noise on a warm cache — the \
         single-pass form wins structurally (one pass, batched draws), not arithmetically. \
         Step rows are steady-state (scratch arena warm ⇒ zero allocations per step), MLPerf \
         MLP widths. Single-threaded; this container exposes 1 CPU — multi-core hosts \
         additionally scale through the executor. Acceptance target: ≥ 2× blocked-vs-reference \
         matmul on the medium shape in release.",
    );

    // GEMM sweep runs single-threaded (the acceptance metric) and
    // restores the executor width afterwards.
    let prev_threads = lazydp_exec::global_threads();
    lazydp_exec::set_global_threads(1);
    let (shapes, gemm_reps, fill_len, fill_reps, step_cfg, step_batch, step_timed) =
        if cfg!(debug_assertions) {
            // Debug builds only smoke the machinery (the test registry
            // renders every experiment); numbers are not meaningful.
            (
                vec![("small", 16usize, 32usize, 16usize), ("medium", 24, 48, 24)],
                2usize,
                1usize << 10,
                4usize,
                DlrmConfig::tiny(2, 64, 8),
                4usize,
                2usize,
            )
        } else {
            (
                // DLRM MLP shapes: small ≈ bottom-MLP layer at batch 64,
                // medium ≈ a 512-wide top-MLP layer at batch 256.
                vec![
                    ("small", 64usize, 128usize, 64usize),
                    ("medium", 256, 512, 512),
                ],
                30usize,
                1usize << 20,
                60usize,
                // MLPerf MLP widths (the GEMM-heavy per-step cost at this
                // scale), tables scaled far down — as in `scaling`.
                DlrmConfig::mlperf(1_000_000),
                64usize,
                4usize,
            )
        };

    for (label, m, k, n) in shapes {
        let a = bench_matrix(m, k, 1);
        let b = bench_matrix(k, n, 2);
        let at = bench_matrix(k, m, 3);
        let bt = bench_matrix(n, k, 4);
        let flops = (2 * m * k * n) as f64;
        let shape = format!("{m}x{k}x{n}");
        let (r, bl) = gemm_point(flops, gemm_reps, |out| a.matmul_into(&b, out));
        t.push_row(vec![
            "matmul".into(),
            format!("{label} {shape}"),
            format!("{r:.2}"),
            format!("{bl:.2}"),
            format!("{:.2}x", bl / r),
            "GFLOP/s".into(),
        ]);
        let (r, bl) = gemm_point(flops, gemm_reps, |out| at.t_matmul_into(&b, out));
        t.push_row(vec![
            "t_matmul".into(),
            format!("{label} {shape}"),
            format!("{r:.2}"),
            format!("{bl:.2}"),
            format!("{:.2}x", bl / r),
            "GFLOP/s".into(),
        ]);
        let (r, bl) = gemm_point(flops, gemm_reps, |out| a.matmul_t_into(&bt, out));
        t.push_row(vec![
            "matmul_t".into(),
            format!("{label} {shape}"),
            format!("{r:.2}"),
            format!("{bl:.2}"),
            format!("{:.2}x", bl / r),
            "GFLOP/s".into(),
        ]);
    }

    // DP backward: two-pass ghost-norms + reweighted backward versus
    // the fused clipped backward (bitwise-identical outputs; the fused
    // pass runs 2 GEMMs per layer instead of 3 by reusing the ghost
    // chain's activation gradients).
    let (dp_shapes, dp_reps) = if cfg!(debug_assertions) {
        (
            vec![
                ("small", 8usize, 16usize, vec![16usize, 1]),
                ("medium", 12, 24, vec![24, 1]),
            ],
            2usize,
        )
    } else {
        (
            // Same DLRM MLP scales as the GEMM sweep: small ≈ the
            // bottom MLP at batch 64, medium ≈ the top MLP at batch 256.
            vec![
                ("small", 64, 128, vec![128, 64, 1]),
                ("medium", 256, 512, vec![512, 256, 1]),
            ],
            15usize,
        )
    };
    for (label, batch, in_dim, widths) in dp_shapes {
        let mut rng = Xoshiro256PlusPlus::seed_from(31);
        let mlp = Mlp::new(in_dim, &widths, &mut rng);
        let x = bench_matrix(batch, in_dim, 9);
        let cache = mlp.forward(&x);
        let g = bench_matrix(batch, *widths.last().expect("non-empty widths"), 10);
        let clip = |n: &[f64], w: &mut Vec<f32>| {
            w.clear();
            w.extend(n.iter().map(|&v| {
                let l2 = v.sqrt();
                if l2 <= 1.0 {
                    1.0
                } else {
                    (1.0 / l2) as f32
                }
            }));
        };
        let mut grads = MlpGrads::default();
        let mut grad_in = Matrix::zeros(0, 0);
        let mut arena = lazydp_tensor::ScratchArena::new();
        let mut nbuf = Vec::new();
        let mut wbuf = Vec::new();
        let t_two = time_per_call(dp_reps, || {
            mlp.backward_ghost_norms_into(&cache, &g, &mut nbuf, &mut grad_in, &mut arena);
            clip(&nbuf, &mut wbuf);
            mlp.backward_weighted_into(&cache, &g, &wbuf, &mut grads, &mut grad_in, &mut arena);
        });
        let mut dz = Vec::new();
        let t_fused = time_per_call(dp_reps, || {
            mlp.backward_clipped_into(
                &cache,
                &g,
                clip,
                &mut grads,
                &mut grad_in,
                &mut dz,
                &mut arena,
            );
        });
        let widths_str = widths
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("-");
        t.push_row(vec![
            "dp_backward".into(),
            format!("{label} batch {batch}, MLP {in_dim}-{widths_str}"),
            format!("{:.3}", t_two * 1e3),
            format!("{:.3}", t_fused * 1e3),
            format!("{:.2}x", t_two / t_fused),
            "ms/pass".into(),
        ]);
    }

    // Gaussian fill: two-pass reference vs the single-pass kernel.
    let sampler = GaussianSampler::new(0.5, 0.3);
    let mut buf = vec![0.0f32; fill_len];
    let mut rng = Xoshiro256PlusPlus::seed_from(7);
    let t_two = time_per_call(fill_reps, || {
        fill_standard_normal(&mut rng, &mut buf);
        for x in &mut buf {
            *x = 0.5 + 0.3 * *x;
        }
    });
    let t_one = time_per_call(fill_reps, || {
        sampler.fill(&mut rng, &mut buf);
    });
    let to_ms = |s: f64| fill_len as f64 / s / 1e6;
    t.push_row(vec![
        "gaussian_fill".into(),
        format!("{fill_len} samples, N(0.5, 0.3²)"),
        format!("{:.1}", to_ms(t_two)),
        format!("{:.1}", to_ms(t_one)),
        format!("{:.2}x", t_two / t_one),
        "Msamples/s".into(),
    ]);

    // Steady-state LazyDP step, reference vs blocked kernels.
    let (model0, batches) = step_workload(&step_cfg, step_batch, step_timed.max(2) * 2);
    set_gemm_mode(GemmMode::Reference);
    let s_ref = step_seconds(&model0, &batches, step_batch, step_timed);
    set_gemm_mode(GemmMode::Blocked);
    let s_blk = step_seconds(&model0, &batches, step_batch, step_timed);
    t.push_row(vec![
        "lazydp_step".into(),
        format!("{} tables, batch {step_batch}", step_cfg.table_rows.len()),
        format!("{:.2}", s_ref * 1e3),
        format!("{:.2}", s_blk * 1e3),
        format!("{:.2}x", s_ref / s_blk),
        "ms/step".into(),
    ]);
    t.push_row(vec![
        "lazydp_step".into(),
        "per training sample".into(),
        format!("{:.0}", s_ref / step_batch as f64 * 1e9),
        format!("{:.0}", s_blk / step_batch as f64 * 1e9),
        format!("{:.2}x", s_ref / s_blk),
        "ns/sample".into(),
    ]);

    lazydp_exec::set_global_threads(prev_threads);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_experiment_renders_with_sane_numbers() {
        let t = kernel_throughput();
        assert!(
            t.rows.len() >= 10,
            "expected GEMM + DP-backward + fill + step rows"
        );
        for row in &t.rows {
            let before: f64 = row[2].parse().expect("numeric before");
            let after: f64 = row[3].parse().expect("numeric after");
            assert!(before > 0.0 && after > 0.0, "{row:?}");
            assert!(row[4].ends_with('x'), "{row:?}");
        }
        // Every GEMM variant and the DP backward appear at both shapes.
        for kernel in ["matmul", "t_matmul", "matmul_t", "dp_backward"] {
            assert_eq!(t.rows.iter().filter(|r| r[0] == kernel).count(), 2);
        }
    }
}
