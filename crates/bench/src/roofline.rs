//! Roofline experiment: measured GFLOP/s of the MLP forward, backward,
//! and fused-clipped backward against this machine's attainable FMA
//! peak (registry id `roofline`).
//!
//! The Criterion camel-curve microbenchmark (`benches/roofline.rs`)
//! demonstrates the paper's Fig. 6 *shape* — memory-bound ramp to
//! compute-bound plateau. This experiment answers the kernel-layer
//! question that curve raises: how close do the actual training GEMMs
//! run to the plateau? The peak is measured, not quoted from a
//! datasheet: a register-resident bundle of independent FMA chains
//! (eight 8-lane accumulators, enough to cover FMA latency × ports)
//! is timed in the same harness, giving the best sustained
//! multiply-add rate plain `mul_add` loops can reach on this core —
//! the honest ceiling for kernels built from the same instruction.
//!
//! Run at full scale (release) with
//! `cargo run --release -p lazydp_bench --bin figures -- roofline`
//! (JSON: `figures -- json roofline`). A local experiment: the
//! committed per-layer trajectory is `benchmark/results/`.

use crate::table::Table;
use lazydp_model::{Mlp, MlpGrads};
use lazydp_rng::Xoshiro256PlusPlus;
use lazydp_tensor::{Matrix, ScratchArena};
use std::time::Instant;

/// Timing rounds per measurement (best-of-N, as in the `kernels`
/// experiment — this container shares one CPU).
const ROUNDS: usize = 5;

/// Independent FMA chains per peak-measurement pass: 8 accumulators of
/// 8 lanes. Eight independent 8-wide chains are enough to cover the
/// FMA latency×throughput product of any current x86 core (e.g. 2
/// ports × 4–5 cycles), so the loop sustains the core's FMA issue rate
/// rather than its dependency latency.
const CHAINS: usize = 8;

/// Lanes per chain — one AVX2 `f32` vector.
const WIDTH: usize = 8;

fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One peak-measurement pass: `iters` steps of [`CHAINS`]·[`WIDTH`]
/// independent `mul_add`s. `inline(never)` keeps the accumulator block
/// in registers and the timing loop honest.
#[inline(never)]
fn fma_chains(acc: &mut [[f32; WIDTH]; CHAINS], iters: usize) {
    let a = 0.999_f32;
    let b = 1e-7_f32;
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = v.mul_add(a, b);
            }
        }
    }
}

/// Measured attainable FMA GFLOP/s (2 FLOPs per `mul_add`).
fn measured_peak(iters: usize) -> f64 {
    let mut acc = [[1.0f32; WIDTH]; CHAINS];
    let secs = best_of(ROUNDS, || fma_chains(&mut acc, iters));
    std::hint::black_box(&acc);
    (iters * CHAINS * WIDTH * 2) as f64 / secs / 1e9
}

fn bench_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i as u32)
            .wrapping_mul(2_654_435_761)
            .wrapping_add((j as u32).wrapping_mul(40_503))
            .wrapping_add(seed);
        ((x % 1000) as f32 - 500.0) / 250.0
    })
}

/// Nominal GEMM FLOPs of one forward pass (`2·B·in·out` per layer;
/// bias adds and activations are excluded, which only *understates*
/// the achieved fraction of peak).
fn forward_flops(batch: usize, dims: &[usize]) -> f64 {
    let mut total = 0.0;
    for w in dims.windows(2) {
        total += 2.0 * batch as f64 * w[0] as f64 * w[1] as f64;
    }
    total
}

/// The `roofline` experiment (registry id `roofline`).
#[must_use]
pub fn roofline() -> Table {
    let mut t = Table::new(
        "roofline",
        "Roofline — measured GFLOP/s of forward / backward / fused-clipped backward \
         vs attainable FMA peak (this machine, 1 thread)",
        &[
            "pass",
            "shape",
            "GFLOP/s",
            "peak GFLOP/s",
            "of peak",
            "unit",
        ],
    )
    .with_note(
        "Peak is measured on this core: 8 independent 8-lane mul_add chains, register-resident \
         — the sustained FMA rate of the instruction the kernels are built from, not a \
         datasheet number. FLOP counts are nominal GEMM flops (2mnk per product; activations, \
         bias adds, row norms and clip-factor math are excluded, so every fraction is an \
         underestimate). backward = plain batch backward (2 GEMMs/layer beyond forward); \
         fused_clipped = ghost norms + clip + clipped aggregate in one chain (2 GEMMs/layer, \
         vs 3 for the two-pass path it replaced — same bits, fewer flops, so its *useful* \
         throughput column counts only the fused pass's own GEMMs). Single-threaded; this \
         container exposes 1 CPU. The camel-curve companion lives in benches/roofline.rs.",
    );

    let prev_threads = lazydp_exec::global_threads();
    lazydp_exec::set_global_threads(1);
    let (shapes, peak_iters) = if cfg!(debug_assertions) {
        // Debug builds only smoke the machinery; numbers are noise.
        (
            vec![
                ("small", 8usize, 16usize, vec![16usize, 1]),
                ("medium", 12, 24, vec![24, 1]),
            ],
            1usize << 12,
        )
    } else {
        (
            // The kernels-experiment DLRM MLP scales: small ≈ bottom
            // MLP at batch 64, medium ≈ top MLP at batch 256.
            vec![
                ("small", 64, 128, vec![128, 64, 1]),
                ("medium", 256, 512, vec![512, 256, 1]),
            ],
            1usize << 24,
        )
    };
    let peak = measured_peak(peak_iters);

    for (label, batch, in_dim, widths) in shapes {
        let mut rng = Xoshiro256PlusPlus::seed_from(41);
        let mlp = Mlp::new(in_dim, &widths, &mut rng);
        let x = bench_matrix(batch, in_dim, 3);
        let cache = mlp.forward(&x);
        let g = bench_matrix(batch, *widths.last().expect("non-empty widths"), 4);
        let mut dims = vec![in_dim];
        dims.extend_from_slice(&widths);
        let fwd_flops = forward_flops(batch, &dims);
        let widths_str = dims
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("-");
        let shape = format!("{label} batch {batch}, MLP {widths_str}");

        let mut fwd_cache = mlp.forward(&x);
        let t_fwd = best_of(ROUNDS, || mlp.forward_into(&x, &mut fwd_cache));

        let mut grads = MlpGrads::default();
        let mut grad_in = Matrix::zeros(0, 0);
        let mut arena = ScratchArena::new();
        let t_bwd = best_of(ROUNDS, || {
            mlp.backward_into(&cache, &g, &mut grads, &mut grad_in, &mut arena);
        });

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
        let mut dz = Vec::new();
        let t_fused = best_of(ROUNDS, || {
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

        for (pass, secs, flops) in [
            ("forward", t_fwd, fwd_flops),
            // dw + dx GEMMs: 2× the forward flops.
            ("backward", t_bwd, 2.0 * fwd_flops),
            // ghost dx chain + clipped dw epilogue: also 2× forward.
            ("fused_clipped", t_fused, 2.0 * fwd_flops),
        ] {
            let gf = flops / secs / 1e9;
            t.push_row(vec![
                pass.into(),
                shape.clone(),
                format!("{gf:.2}"),
                format!("{peak:.2}"),
                format!("{:.1}%", 100.0 * gf / peak),
                "GFLOP/s".into(),
            ]);
        }
    }

    lazydp_exec::set_global_threads(prev_threads);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_experiment_renders_with_sane_numbers() {
        let t = roofline();
        assert_eq!(t.rows.len(), 6, "3 passes x 2 shapes");
        for row in &t.rows {
            let gf: f64 = row[2].parse().expect("numeric GFLOP/s");
            let pk: f64 = row[3].parse().expect("numeric peak");
            assert!(gf > 0.0 && pk > 0.0, "{row:?}");
            assert!(row[4].ends_with('%'), "{row:?}");
        }
        for pass in ["forward", "backward", "fused_clipped"] {
            assert_eq!(t.rows.iter().filter(|r| r[0] == pass).count(), 2);
        }
    }
}
