//! The clipped backward through the public facade.
//! `Dlrm::backward_clipped_with` (ghost norms → clip closure → clipped
//! aggregate from the cached activation gradients, 2 GEMMs per MLP
//! layer) is the one composition every DP optimizer takes its clipped
//! aggregate from. Across batch sizes and clip thresholds, including the
//! all-clipped and none-clipped edges, it must
//!
//! * release the same bits at 1, 2 and 4 executor threads, and
//! * agree with the materialized DP-SGD(B) definition,
//!   `per_example_grads`, clipped and summed.

use lazydp::data::{MiniBatch, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::clip_weights_into;
use lazydp::embedding::SparseGrad;
use lazydp::model::{Dlrm, DlrmConfig, DlrmGrads, DlrmScratch, MlpGrads};
use lazydp::rng::Xoshiro256PlusPlus;

const TABLES: usize = 3;
const ROWS: u64 = 64;
const DIM: usize = 8;

fn setup(batch: usize) -> (Dlrm, MiniBatch) {
    let mut rng = Xoshiro256PlusPlus::seed_from(977);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, batch));
    let b = ds.batch_of(&(0..batch).collect::<Vec<_>>());
    (model, b)
}

/// Deterministic non-trivial logit gradient (e.g. logistic-loss-like
/// residuals of both signs and varying magnitude).
fn logit_grads(batch: usize) -> Vec<f32> {
    (0..batch)
        .map(|i| ((i as f32) * 0.37 - batch as f32 * 0.15).sin() * 0.8)
        .collect()
}

/// Every value of a coalesced gradient in a fixed order (MLP weights
/// and biases, then each table's rows ascending), and its table rows.
fn flat(g: &DlrmGrads) -> (Vec<f32>, Vec<(usize, u64)>) {
    let mut vals = Vec::new();
    let mut rows = Vec::new();
    for mlp in [&g.bottom, &g.top] {
        for l in &mlp.layers {
            vals.extend_from_slice(l.dw.as_slice());
            vals.extend_from_slice(&l.db);
        }
    }
    for (t, table) in g.tables.iter().enumerate() {
        for (row, grad) in table.iter() {
            rows.push((t, row));
            vals.extend_from_slice(grad);
        }
    }
    (vals, rows)
}

/// The DP-SGD(B) definition: per-example gradients, their norms, and
/// `Σ_i w_i · g_i` with `w = clip_weights_into(norms, c)`, coalesced.
fn materialized(model: &Dlrm, per_ex: &[DlrmGrads], c: f64) -> (Vec<f64>, DlrmGrads) {
    let norms: Vec<f64> = per_ex.iter().map(DlrmGrads::norm_sq).collect();
    let mut sum = DlrmGrads {
        bottom: MlpGrads::zeros_like(&model.bottom),
        top: MlpGrads::zeros_like(&model.top),
        tables: vec![SparseGrad::new(DIM); TABLES],
    };
    let mut w = Vec::new();
    clip_weights_into(&norms, c, &mut w);
    for (g, &wi) in per_ex.iter().zip(&w) {
        sum.bottom.axpy(wi, &g.bottom);
        sum.top.axpy(wi, &g.top);
        for (acc, gt) in sum.tables.iter_mut().zip(&g.tables) {
            for (idx, vals) in gt.iter() {
                acc.accumulate(idx, wi, vals);
            }
        }
    }
    sum.coalesce();
    (norms, sum)
}

#[test]
fn fused_clipped_backward_is_thread_invariant_and_matches_per_example_grads() {
    let initial = lazydp::exec::global_threads();
    for batch in [1usize, 5, 24] {
        let (model, b) = setup(batch);
        let cache = model.forward(&b);
        let gl = logit_grads(batch);
        let mut per_ex = model.per_example_grads(&cache, &b, &gl);
        for g in &mut per_ex {
            g.coalesce(); // per-example norms need coalesced rows
        }

        // Thresholds: all-clipped (tiny C), realistic, none-clipped
        // (huge C, every weight exactly 1.0).
        for c in [1e-6f64, 0.5, 1e9] {
            let runs: Vec<(Vec<f64>, DlrmGrads)> = [1usize, 2, 4]
                .into_iter()
                .map(|threads| {
                    lazydp::exec::set_global_threads(threads);
                    let mut norms = Vec::new();
                    let mut grads = DlrmGrads::default();
                    model.backward_clipped_with(
                        &cache,
                        &b,
                        &gl,
                        |n, w| {
                            norms.extend_from_slice(n);
                            clip_weights_into(n, c, w);
                        },
                        &mut grads,
                        &mut DlrmScratch::default(),
                    );
                    grads.coalesce();
                    (norms, grads)
                })
                .collect();
            let (norms, grads) = &runs[0];
            let (vals, rows) = flat(grads);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (threads, (n, g)) in [2, 4].iter().zip(&runs[1..]) {
                let at = format!("batch {batch}, C={c}, {threads} threads");
                let (v, r) = flat(g);
                assert_eq!(n, norms, "norms differ ({at})");
                assert_eq!(r, rows, "table rows differ ({at})");
                assert_eq!(bits(&v), bits(&vals), "grads differ ({at})");
            }

            let at = format!("batch {batch}, C={c}");
            let (want_norms, want) = materialized(&model, &per_ex, c);
            assert_eq!(norms.len(), want_norms.len(), "one norm per example");
            if c == 1e9 {
                let mut w = Vec::new();
                clip_weights_into(norms, c, &mut w);
                assert!(w.iter().all(|&x| x == 1.0), "huge C must clip nothing");
            }
            for (i, (got, want)) in norms.iter().zip(&want_norms).enumerate() {
                let rel = (got - want).abs() / want.max(1e-12);
                assert!(rel < 1e-6, "example {i} norm² {got} vs {want} ({at})");
            }
            let (want_vals, want_rows) = flat(&want);
            assert_eq!(rows, want_rows, "table rows ({at})");
            // 1e-5 of the aggregate's largest entry, so the all-clipped
            // case (entries ≈ C) is held to the same relative standard.
            let scale = want_vals.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let diff = vals
                .iter()
                .zip(&want_vals)
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                diff <= 1e-5 * scale,
                "grads off by {diff} of {scale} ({at})"
            );
        }
    }
    lazydp::exec::set_global_threads(initial);
}
