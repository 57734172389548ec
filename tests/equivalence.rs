//! Cross-crate equivalence tests: the mathematical claims that make
//! LazyDP "mathematically equivalent, differentially private" (paper
//! abstract), exercised through the public facade API.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use lazydp::data::{
    FixedBatchLoader, LookaheadLoader, MiniBatch, SyntheticConfig, SyntheticDataset,
};
use lazydp::dpsgd::noise_update::dense_noisy_update_with;
use lazydp::dpsgd::{
    clip_weights_into, AdaFestConfig, AdaFestOptimizer, ClipStyle, DpConfig, EagerDpSgd,
    EanaOptimizer, KernelCounters, Optimizer, SgdOptimizer, StepStats,
};
use lazydp::embedding::{EmbeddingStorage, SparseGrad};
use lazydp::exec::Executor;
use lazydp::fault::checksum::Fnv1a64;
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer};
use lazydp::model::{Dlrm, DlrmConfig, DlrmGrads, MlpGrads};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;
use lazydp::store::{StorageConfig, StoredTable};

const TABLES: usize = 4;
const ROWS: u64 = 96;
const DIM: usize = 8;
const BATCH: usize = 24;
const STEPS: usize = 8;

fn setup() -> (Dlrm, Vec<MiniBatch>) {
    let mut rng = Xoshiro256PlusPlus::seed_from(321);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, BATCH * (STEPS + 1)));
    let batches = (0..=STEPS)
        .map(|i| ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    (model, batches)
}

fn max_model_diff(a: &Dlrm, b: &Dlrm) -> f32 {
    let table_diff = a
        .tables
        .iter()
        .zip(b.tables.iter())
        .map(|(x, y)| x.max_abs_diff(y))
        .fold(0.0f32, f32::max);
    let mlp_diff = a
        .top
        .layers()
        .iter()
        .zip(b.top.layers().iter())
        .chain(a.bottom.layers().iter().zip(b.bottom.layers().iter()))
        .map(|(x, y)| x.weight.max_abs_diff(&y.weight))
        .fold(0.0f32, f32::max);
    table_diff.max(mlp_diff)
}

/// The paper's central claim, end to end through the facade: LazyDP
/// (without ANS, counter noise) trains the *same model* as eager
/// DP-SGD(F).
#[test]
fn lazydp_equals_eager_dpsgd_full_pipeline() {
    let (model0, batches) = setup();
    let dp = DpConfig::new(0.9, 1.0, 0.05, BATCH);

    let mut eager_model = model0.clone();
    let mut eager = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(2718));
    for b in batches.iter().take(STEPS) {
        eager.step(&mut eager_model, b, None);
    }

    let mut lazy_model = model0;
    let mut lazy = LazyDpOptimizer::new(
        LazyDpConfig::new(dp, false),
        &lazy_model,
        CounterNoise::new(2718),
    );
    for i in 0..STEPS {
        lazy.step(&mut lazy_model, &batches[i], Some(&batches[i + 1]));
    }
    lazy.finalize_model(&mut lazy_model);

    // Not bitwise — deferred draws are summed, then applied — but a few
    // ulps: 2.98e-8 measured here; the harness checks the same 1e-6.
    let d = max_model_diff(&eager_model, &lazy_model);
    assert!(d < 1e-6, "LazyDP diverged from eager DP-SGD by {d}");
}

/// One DP-SGD(B) step, the definition the eager baselines share:
/// materialized per-example gradients, each clipped to `C` and summed,
/// averaged over `B`, then the noisy update eager DP-SGD(F) applies —
/// the MLP noise under dense parameters `0..` (bottom) and `64..` (top),
/// every table row's noise at `(table, row, iter)`.
fn per_example_step(model: &mut Dlrm, batch: &MiniBatch, dp: &DpConfig, iter: u64) {
    let noise = &mut CounterNoise::new(5);
    let cache = model.forward(batch);
    let mut gl = Vec::new();
    Dlrm::logit_grads_into(&cache, &batch.labels, false, &mut gl);
    let mut per_ex = model.per_example_grads(&cache, batch, &gl);
    for g in &mut per_ex {
        g.coalesce();
    }
    let norms: Vec<f64> = per_ex.iter().map(DlrmGrads::norm_sq).collect();
    let mut w = Vec::new();
    clip_weights_into(&norms, dp.max_grad_norm, &mut w);
    let mut sum = DlrmGrads {
        bottom: MlpGrads::zeros_like(&model.bottom),
        top: MlpGrads::zeros_like(&model.top),
        tables: vec![SparseGrad::new(DIM); TABLES],
    };
    for (g, &wi) in per_ex.iter().zip(&w) {
        sum.bottom.axpy(wi, &g.bottom);
        sum.top.axpy(wi, &g.top);
        for (acc, gt) in sum.tables.iter_mut().zip(&g.tables) {
            for (idx, vals) in gt.iter() {
                acc.accumulate(idx, wi, vals);
            }
        }
    }
    sum.scale(1.0 / dp.nominal_batch as f32);
    sum.coalesce();
    let (std, lr, exec) = (dp.noise_std_per_coord(), dp.lr, Executor::new(1));
    model
        .bottom
        .apply_noisy(&sum.bottom, noise, iter, 0, std, lr, &exec);
    model
        .top
        .apply_noisy(&sum.top, noise, iter, 64, std, lr, &exec);
    let mut c = KernelCounters::new();
    for (t, (table, g)) in model.tables.iter_mut().zip(&sum.tables).enumerate() {
        dense_noisy_update_with(
            t as u32,
            table,
            g,
            noise,
            iter,
            std,
            lr,
            &mut c,
            &mut Vec::new(),
        );
    }
}

/// The eager variants coincide: DP-SGD(F)'s fused ghost-norm clipping
/// trains the model of the materialized DP-SGD(B) definition, via the
/// facade. (DP-SGD(R) shares (F)'s weighted pass and (B)'s norms.)
#[test]
fn all_eager_variants_coincide() {
    let (model0, batches) = setup();
    let dp = DpConfig::new(0.7, 0.8, 0.05, BATCH);
    let mut fast = model0.clone();
    let mut opt = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(5));
    let mut per_example = model0;
    for (i, b) in batches.iter().take(4).enumerate() {
        opt.step(&mut fast, b, None);
        per_example_step(&mut per_example, b, &dp, i as u64 + 1);
    }
    // Measured 3.7e-9: summation order only.
    let d = max_model_diff(&per_example, &fast);
    assert!(d < 1e-7, "B vs F: {d}");
}

/// FNV-1a-64 over every released weight as little-endian `f32` bytes:
/// MLP weights and biases in layer order, then every table in order.
fn release_digest(m: &Dlrm) -> u64 {
    let mut h = Fnv1a64::new();
    let layers = m.bottom.layers().iter().chain(m.top.layers());
    let params = layers.flat_map(|l| l.weight.as_slice().iter().chain(&l.bias));
    for v in params.chain(m.tables.iter().flat_map(|t| t.as_slice())) {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

/// The end-to-end known answer: four steps of each algorithm on a tiny
/// DLRM release exactly these bits, in debug and release, under
/// `target-cpu` native, `x86-64-v3` and plain `x86-64`. The kernels use
/// only correctly-rounded operations (`f32::mul_add`, the lane-wise
/// Box–Muller) in a fixed order, so vector width never shows. The
/// shapes hit the kernels' tails: batch 13 leaves a one-row
/// micro-kernel block, and widths 11 and 12 leave a `k % 8` tail in
/// `matmul_t`.
#[test]
fn release_digests_are_pinned() {
    const BATCH: usize = 13;
    let mut cfg = DlrmConfig::tiny(3, 40, 12);
    cfg.bottom_layers = vec![20, 12];
    cfg.top_layers = vec![11, 1];
    let model0 = Dlrm::new(cfg, &mut Xoshiro256PlusPlus::seed_from(2024));
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 40, BATCH * 5));
    let batches: Vec<MiniBatch> = (0..5)
        .map(|i| ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    let dp = DpConfig::new(0.9, 0.6, 0.05, BATCH);
    let noise = || CounterNoise::new(99);
    let train = |opt: &mut dyn Optimizer| {
        let mut m = model0.clone();
        for i in 0..4 {
            opt.step(&mut m, &batches[i], Some(&batches[i + 1]));
        }
        m
    };
    let eager = train(&mut EagerDpSgd::new(dp, ClipStyle::Fast, noise()));
    let eana = train(&mut EanaOptimizer::new(dp, noise()));
    let ada = AdaFestConfig::new(dp, 1.0, 0.0, 8).select_all();
    let adafest = train(&mut AdaFestOptimizer::new(ada, noise()));
    let mut lazy_opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model0, noise());
    let mut lazy = train(&mut lazy_opt);
    lazy_opt.finalize_model(&mut lazy);
    let got = [&eager, &eana, &adafest, &lazy].map(release_digest);
    // Select-all AdaFEST is eager DP-SGD(F) bit for bit, so their
    // digests agree.
    assert_eq!(
        got.map(|d| format!("{d:016x}")),
        [
            "b59a56c6c07d43bb",
            "930ae1e2db44bac7",
            "b59a56c6c07d43bb",
            "4825abbece2b9564",
        ],
        "DP-SGD(F), EANA, AdaFEST(select-all), LazyDP"
    );
}

/// The model, batches and DP parameters of `release_digests_are_pinned`.
fn pinned_setup() -> (Dlrm, Vec<MiniBatch>, DpConfig) {
    const BATCH: usize = 13;
    let mut cfg = DlrmConfig::tiny(3, 40, 12);
    cfg.bottom_layers = vec![20, 12];
    cfg.top_layers = vec![11, 1];
    let model0 = Dlrm::new(cfg, &mut Xoshiro256PlusPlus::seed_from(2024));
    let ds = SyntheticDataset::new(SyntheticConfig::small(3, 40, BATCH * 5));
    let batches = (0..5)
        .map(|i| ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    (model0, batches, DpConfig::new(0.9, 0.6, 0.05, BATCH))
}

/// Four pinned steps of `opt` from `model`, then its release, with the
/// tables read back into memory.
fn pinned_release<T: EmbeddingStorage>(
    mut model: Dlrm<T>,
    batches: &[MiniBatch],
    opt: &mut dyn Optimizer<T>,
) -> Dlrm {
    for i in 0..4 {
        opt.step(&mut model, &batches[i], Some(&batches[i + 1]));
    }
    opt.finalize(&mut model);
    model.map_tables(|_, t| t.to_dense_table())
}

/// LazyDP without ANS on the pinned run: each row's pending draws summed
/// in ascending iteration order, then applied once.
const LAZYDP_WITHOUT_ANS_DIGEST: &str = "6267e504f9e16267";

#[test]
fn lazydp_without_ans_release_digest_is_pinned() {
    let (model0, batches, dp) = pinned_setup();
    let cfg = LazyDpConfig::new(dp, false);
    let mut opt = LazyDpOptimizer::new(cfg, &model0, CounterNoise::new(99));
    let released = pinned_release(model0, &batches, &mut opt);
    assert_eq!(
        format!("{:016x}", release_digest(&released)),
        LAZYDP_WITHOUT_ANS_DIGEST
    );
}

/// Page-cache sizes of the stored pins: the whole table (7 pages of 6
/// rows, the last partly padding) and one page in ten (one frame).
const PINNED_CACHE_PAGES: [usize; 2] = [7, 1];

/// `model0` on `StoredTable`s of 6-row pages with `cache_pages` frames.
fn stored_pinned_model(model0: &Dlrm, cache_pages: usize) -> Dlrm<StoredTable> {
    let scfg = StorageConfig::new()
        .with_page_rows(6)
        .with_cache_pages(cache_pages);
    model0
        .clone()
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &scfg))
        .expect("spill dir must be writable")
}

/// Every DP algorithm releases the in-memory pinned bits on
/// `StoredTable`s at both cache sizes: the eager and AdaFEST sweeps, the
/// EANA row updates and LazyDP's release flush go through the paged
/// backend and never change a bit.
#[test]
fn stored_tables_release_the_pinned_digests() {
    let (model0, batches, dp) = pinned_setup();
    let noise = || CounterNoise::new(99);
    let ada = AdaFestConfig::new(dp, 1.0, 0.0, 8).select_all();
    let lazy = |ans| LazyDpOptimizer::new(LazyDpConfig::new(dp, ans), &model0, noise());
    for cache_pages in PINNED_CACHE_PAGES {
        let optimizers: [Box<dyn Optimizer<StoredTable>>; 5] = [
            Box::new(EagerDpSgd::for_storage(dp, noise())),
            Box::new(EanaOptimizer::new(dp, noise())),
            Box::new(AdaFestOptimizer::new(ada, noise())),
            Box::new(lazy(true)),
            Box::new(lazy(false)),
        ];
        let got = optimizers.map(|mut opt| {
            let stored = stored_pinned_model(&model0, cache_pages);
            format!(
                "{:016x}",
                release_digest(&pinned_release(stored, &batches, opt.as_mut()))
            )
        });
        assert_eq!(
            got,
            [
                "b59a56c6c07d43bb",
                "930ae1e2db44bac7",
                "b59a56c6c07d43bb",
                "4825abbece2b9564",
                LAZYDP_WITHOUT_ANS_DIGEST,
            ],
            "DP-SGD(F), EANA, AdaFEST(select-all), LazyDP, LazyDP(w/o ANS); {cache_pages} frame(s)"
        );
    }
}

/// SGD on `StoredTable`s trains bitwise the in-memory SGD model.
#[test]
fn sgd_on_stored_tables_is_bitwise_sgd_in_memory() {
    let (model0, batches, _) = pinned_setup();
    let want = release_digest(&pinned_release(
        model0.clone(),
        &batches,
        &mut SgdOptimizer::new(0.05),
    ));
    assert_ne!(want, release_digest(&model0), "SGD must move the model");
    for cache_pages in PINNED_CACHE_PAGES {
        let stored = stored_pinned_model(&model0, cache_pages);
        let mut sgd = SgdOptimizer::for_storage(0.05);
        let got = release_digest(&pinned_release(stored, &batches, &mut sgd));
        assert_eq!(got, want, "{cache_pages} frame(s)");
    }
}

/// EANA differs from DP-SGD exactly on the never-accessed rows (the
/// §2.5 information leak), and nowhere else at access time.
#[test]
fn eana_leak_signature() {
    let (model0, batches) = setup();
    let dp = DpConfig::paper_default(BATCH);
    let mut eana_model = model0.clone();
    let mut eana = EanaOptimizer::new(dp, CounterNoise::new(31));
    let mut dp_model = model0.clone();
    let mut dpf = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(31));
    eana.step(&mut eana_model, &batches[0], None);
    dpf.step(&mut dp_model, &batches[0], None);

    let accessed: std::collections::HashSet<u64> =
        batches[0].table_indices(0).iter().copied().collect();
    let mut untouched_differ = 0;
    for r in 0..ROWS as usize {
        let e = eana_model.tables[0].row(r);
        let d = dp_model.tables[0].row(r);
        let same = e.iter().zip(d.iter()).all(|(a, b)| (a - b).abs() < 1e-7);
        if accessed.contains(&(r as u64)) {
            assert!(same, "accessed row {r} must match across EANA/DP-SGD");
        } else {
            // EANA left it at init; DP-SGD noised it.
            let init = model0.tables[0].row(r);
            assert_eq!(e, init, "EANA must not touch row {r}");
            if !same {
                untouched_differ += 1;
            }
        }
    }
    assert!(
        untouched_differ > 0,
        "DP-SGD must have noised untouched rows"
    );
}

/// One real batch, then one empty Poisson batch, from the same initial
/// model: the model after each step and each step's diagnostics.
fn two_steps(
    model0: &Dlrm,
    batches: &[MiniBatch],
    opt: &mut dyn Optimizer,
) -> ([Dlrm; 2], [StepStats; 2]) {
    let empty = MiniBatch::default();
    let mut model = model0.clone();
    let s1 = opt.step(&mut model, &batches[0], Some(&empty));
    let after_real = model.clone();
    let s2 = opt.step(&mut model, &empty, Some(&batches[1]));
    ([after_real, model], [s1, s2])
}

/// Every bottom/top weight and bias, as bit patterns.
fn mlp_bits(m: &Dlrm) -> Vec<u32> {
    m.bottom
        .layers()
        .iter()
        .chain(m.top.layers())
        .flat_map(|l| l.weight.as_slice().iter().chain(l.bias.iter()))
        .map(|w| w.to_bits())
        .collect()
}

/// The shared front half, pinned from outside: forward, ghost clip,
/// MLP update and MLP noise are one body, so whatever an algorithm does
/// to the tables, its MLPs and step diagnostics are bitwise the other
/// algorithms' — on a real batch and on an empty Poisson batch.
#[test]
fn one_step_from_the_same_state_gives_bitwise_equal_mlps_for_all_four_algorithms() {
    let (model0, batches) = setup();
    let dp = DpConfig::new(0.9, 0.6, 0.05, BATCH);
    let noise = || CounterNoise::new(1618);
    let ada = AdaFestConfig::new(dp, 1.0, 1.5, 8);
    let mut algorithms: Vec<(&str, Box<dyn Optimizer>)> = vec![
        (
            "DP-SGD(F)",
            Box::new(EagerDpSgd::new(dp, ClipStyle::Fast, noise())),
        ),
        ("EANA", Box::new(EanaOptimizer::new(dp, noise()))),
        (
            "AdaFEST(select-all)",
            Box::new(AdaFestOptimizer::new(ada.select_all(), noise())),
        ),
        (
            "AdaFEST(τ=1.5)",
            Box::new(AdaFestOptimizer::new(ada, noise())),
        ),
        (
            "LazyDP",
            Box::new(LazyDpOptimizer::new(
                LazyDpConfig::new(dp, true),
                &model0,
                noise(),
            )),
        ),
    ];
    let mut runs = algorithms
        .iter_mut()
        .map(|(name, opt)| (*name, two_steps(&model0, &batches, opt.as_mut())));
    let (_, (want_models, want_stats)) = runs.next().expect("eager runs first");
    assert_eq!(want_stats[0].realized_batch, BATCH);
    assert!(
        want_stats[0].clipped_fraction > 0.0,
        "C must clip something for the comparison to have teeth"
    );
    assert_eq!(want_stats[1], StepStats::default());
    assert_ne!(mlp_bits(&want_models[0]), mlp_bits(&model0));
    assert_ne!(mlp_bits(&want_models[1]), mlp_bits(&want_models[0]));
    for (name, (models, stats)) in runs {
        assert_eq!(stats, want_stats, "{name}: step diagnostics");
        for (step, (got, want)) in models.iter().zip(want_models.iter()).enumerate() {
            assert!(
                mlp_bits(got) == mlp_bits(want),
                "{name}: MLPs differ from eager after step {step}"
            );
        }
    }
}

/// EANA is eager DP-SGD(F) restricted to the rows the batch touched:
/// bitwise eager's update on those, bitwise nothing anywhere else — so
/// an empty batch moves no table row at all.
#[test]
fn eana_is_eager_restricted_to_touched_rows() {
    let (model0, batches) = setup();
    let dp = DpConfig::new(0.9, 0.6, 0.05, BATCH);
    let mut eager = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(1618));
    let mut eana = EanaOptimizer::new(dp, CounterNoise::new(1618));
    let ([eager_model, _], _) = two_steps(&model0, &batches, &mut eager);
    let ([eana_model, eana_after_empty], _) = two_steps(&model0, &batches, &mut eana);
    let (mut touched, mut untouched) = (0, 0);
    for t in 0..TABLES {
        let accessed = batches[0].table_indices(t);
        for r in 0..ROWS as usize {
            let got = eana_model.tables[t].row(r);
            if accessed.contains(&(r as u64)) {
                assert_eq!(got, eager_model.tables[t].row(r), "table {t} row {r}");
                assert_ne!(got, model0.tables[t].row(r), "table {t} row {r}");
                touched += 1;
            } else {
                assert_eq!(got, model0.tables[t].row(r), "table {t} row {r}");
                untouched += 1;
            }
        }
        assert_eq!(
            eana_after_empty.tables[t], eana_model.tables[t],
            "the empty batch must move no row of table {t}"
        );
    }
    assert!(touched > 0 && untouched > 0, "need both kinds of row");
}

/// The LookaheadLoader driving a LazyDP run sees each batch exactly once
/// and in order, so lazy and eager runs consume identical data.
#[test]
fn lookahead_pipeline_preserves_batch_stream() {
    let ds = SyntheticDataset::new(SyntheticConfig::small(2, 64, 64));
    let mut plain = FixedBatchLoader::new(ds.clone(), 16);
    let mut look = LookaheadLoader::new(FixedBatchLoader::new(ds, 16));
    use lazydp::data::BatchSource;
    for i in 0..6 {
        let expect = plain.next_batch();
        let (cur, _next) = look.advance();
        assert_eq!(cur, &expect, "batch {i}");
        let _ = look.finish_iteration();
    }
}

/// ANS on/off changes *when and how* noise is sampled but not the
/// distribution of the released model: both runs' per-coordinate
/// displacements on a pure-noise workload (2²⁰ coordinates, every row
/// flushed at finalize) match the same theoretical normal in mean,
/// variance and KS, each bounded at 5σ.
#[test]
fn ans_toggle_is_distributionally_invisible() {
    use lazydp::rng::stats;
    // Two-sided 5σ tail probability of a normal.
    const FIVE_SIGMA_ALPHA: f64 = 5.733e-7;
    let (rows, dim) = (1u64 << 17, 8usize);
    let mut rng = Xoshiro256PlusPlus::seed_from(77);
    let model0 = Dlrm::new(DlrmConfig::tiny(1, rows, dim), &mut rng);
    let dp = DpConfig::new(1.0, 1.0, 0.1, 8);
    let steps = 7u64;
    let empty = MiniBatch::default();
    let expect_std = f64::from(dp.lr) * f64::from(dp.noise_std_per_coord()) * (steps as f64).sqrt();
    let run = |ans: bool, seed: u64| -> Vec<f64> {
        let mut m = model0.clone();
        let mut opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, ans), &m, CounterNoise::new(seed));
        for _ in 0..steps {
            opt.step(&mut m, &empty, Some(&empty));
        }
        opt.finalize_model(&mut m);
        m.tables[0]
            .as_slice()
            .iter()
            .zip(model0.tables[0].as_slice())
            .map(|(a, b)| f64::from(a - b) / expect_std)
            .collect()
    };
    for (ans, seed) in [(true, 1u64), (false, 2u64)] {
        let mut z = run(ans, seed);
        let n = z.len() as f64;
        let (mean, var) = stats::mean_var(&z);
        assert!(mean.abs() < 5.0 / n.sqrt(), "ans={ans}: mean {mean}");
        assert!(
            (var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(),
            "ans={ans}: var {var}"
        );
        let ks = stats::ks_statistic_normal(&mut z, 0.0, 1.0);
        let crit = stats::ks_critical(z.len(), FIVE_SIGMA_ALPHA);
        assert!(ks < crit, "ans={ans}: KS {ks} vs {crit}");
    }
}
