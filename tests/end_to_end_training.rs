//! End-to-end training utility tests: every optimizer in the repo must
//! actually *learn* on the synthetic Criteo-style task, and the private
//! ones must pay for privacy in the expected places (noise work, loss).

use lazydp::data::{MiniBatch, PoissonLoader, SyntheticConfig, SyntheticDataset};
use lazydp::dpsgd::{
    AdaFestConfig, AdaFestOptimizer, ClipStyle, DpConfig, EagerDpSgd, EanaOptimizer, Optimizer,
    SgdOptimizer,
};
use lazydp::lazy::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::{Dlrm, DlrmConfig};
use lazydp::rng::counter::CounterNoise;
use lazydp::rng::Xoshiro256PlusPlus;

const TABLES: usize = 3;
const ROWS: u64 = 80;
const DIM: usize = 8;
const BATCH: usize = 48;
const STEPS: usize = 36;

fn setup() -> (Dlrm, SyntheticDataset) {
    let mut rng = Xoshiro256PlusPlus::seed_from(9);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
    let ds = SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, 192));
    (model, ds)
}

fn train(opt: &mut dyn Optimizer, model: &mut Dlrm, ds: &SyntheticDataset) -> (f64, f64) {
    let eval = ds.batch_of(&(0..192).collect::<Vec<_>>());
    let before = model.loss(&eval);
    let batches: Vec<_> = (0..=STEPS)
        .map(|i| {
            let ids: Vec<usize> = (0..BATCH).map(|k| (i * BATCH + k) % 192).collect();
            ds.batch_of(&ids)
        })
        .collect();
    for i in 0..STEPS {
        opt.step(model, &batches[i], Some(&batches[i + 1]));
    }
    opt.finalize(model);
    (before, model.loss(&eval))
}

#[test]
fn every_optimizer_learns() {
    let (model0, ds) = setup();
    // Mild privacy settings so utility is measurable in few steps.
    let dp = DpConfig::new(0.25, 4.0, 0.1, BATCH);
    let mut results: Vec<(String, f64, f64)> = Vec::new();
    {
        let mut m = model0.clone();
        let mut o = SgdOptimizer::new(0.1);
        let (b, a) = train(&mut o, &mut m, &ds);
        results.push((o.name().to_owned(), b, a));
    }
    {
        let mut m = model0.clone();
        let mut o = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(11));
        let (b, a) = train(&mut o, &mut m, &ds);
        results.push((o.name().to_owned(), b, a));
    }
    {
        let mut m = model0.clone();
        let o: &mut dyn Optimizer = &mut EanaOptimizer::new(dp, CounterNoise::new(11));
        let (b, a) = train(o, &mut m, &ds);
        results.push((o.name().to_owned(), b, a));
    }
    for ans in [true, false] {
        let mut m = model0.clone();
        let mut o = LazyDpOptimizer::new(LazyDpConfig::new(dp, ans), &m, CounterNoise::new(11));
        let (b, a) = train(&mut o, &mut m, &ds);
        results.push((o.name().to_owned(), b, a));
    }
    for (name, before, after) in &results {
        assert!(
            after < before,
            "{name} failed to learn: {before:.4} -> {after:.4}"
        );
    }
}

#[test]
fn an_empty_batch_is_one_step_for_every_optimizer() {
    let (model0, _) = setup();
    let dp = DpConfig::new(0.25, 4.0, 0.1, BATCH);
    let optimizers: Vec<Box<dyn Optimizer>> = vec![
        Box::new(SgdOptimizer::new(0.1)),
        Box::new(EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(11))),
        Box::new(EanaOptimizer::new(dp, CounterNoise::new(11))),
        Box::new(AdaFestOptimizer::new(
            AdaFestConfig::new(dp, 1.0, 0.0, 8),
            CounterNoise::new(11),
        )),
        Box::new(LazyDpOptimizer::new(
            LazyDpConfig::new(dp, true),
            &model0,
            CounterNoise::new(11),
        )),
    ];
    for mut opt in optimizers {
        let mut m = model0.clone();
        let stats = opt.step(&mut m, &MiniBatch::default(), None);
        assert_eq!(stats.realized_batch, 0, "{}", opt.name());
        assert_eq!(opt.counters().steps, 1, "{}", opt.name());
    }
}

#[test]
fn more_noise_hurts_utility() {
    let (model0, ds) = setup();
    let run = |sigma: f64| -> f64 {
        let mut m = model0.clone();
        let dp = DpConfig::new(sigma, 2.0, 0.1, BATCH);
        let mut o = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &m, CounterNoise::new(13));
        let (_, after) = train(&mut o, &mut m, &ds);
        after
    };
    let quiet = run(0.05);
    let loud = run(12.0);
    assert!(
        quiet < loud,
        "σ=0.05 (loss {quiet:.4}) should beat σ=12 (loss {loud:.4})"
    );
}

#[test]
fn private_trainer_reports_consistent_budget_and_counters() {
    let (model0, ds) = setup();
    let loader = PoissonLoader::new(ds, BATCH, 3);
    let q = loader.sampling_rate();
    let cfg = LazyDpConfig::new(DpConfig::new(1.1, 1.0, 0.05, BATCH), true);
    let mut trainer = PrivateTrainer::make_private(model0, cfg, loader, CounterNoise::new(4), q);
    let stats = trainer.train_steps(12);
    assert_eq!(stats.len(), 12);
    // Realized Poisson batch sizes average near nominal.
    let mean = stats.iter().map(|s| s.realized_batch).sum::<usize>() as f64 / stats.len() as f64;
    assert!(
        (mean - BATCH as f64).abs() < BATCH as f64 * 0.6,
        "mean batch {mean}"
    );
    let (eps, _) = trainer.epsilon(1e-6);
    assert!(eps > 0.0 && eps < 50.0, "ε = {eps}");
    let c = trainer.counters();
    assert_eq!(c.steps, 12);
    assert!(c.gaussian_samples > 0);
    assert!(c.history_reads > 0);
    let _final = trainer.finish();
}

#[test]
fn lazydp_noise_work_is_orders_below_eager_at_larger_tables() {
    // The speedup mechanism, measured functionally: grow the table 64×
    // and watch eager noise work grow with it while LazyDP's does not.
    let rng = Xoshiro256PlusPlus::seed_from(15);
    let dp = DpConfig::paper_default(16);
    let work = |rows: u64, lazy: bool| -> u64 {
        let mut model = Dlrm::new(DlrmConfig::tiny(2, rows, DIM), &mut rng.clone());
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, rows, 64));
        let b0 = ds.batch_of(&(0..16).collect::<Vec<_>>());
        let b1 = ds.batch_of(&(16..32).collect::<Vec<_>>());
        if lazy {
            let mut o =
                LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, CounterNoise::new(1));
            o.step(&mut model, &b0, Some(&b1));
            o.counters().gaussian_samples
        } else {
            let mut o = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(1));
            o.step(&mut model, &b0, None);
            o.counters().gaussian_samples
        }
    };
    let eager_small = work(128, false);
    let eager_big = work(8192, false);
    assert!(
        eager_big > eager_small * 20,
        "eager noise work must track table size: {eager_small} vs {eager_big}"
    );
    let lazy_small = work(128, true);
    let lazy_big = work(8192, true);
    assert!(
        lazy_big < lazy_small * 2,
        "LazyDP noise work must not track table size: {lazy_small} vs {lazy_big}"
    );
    assert!(
        eager_big > lazy_big * 50,
        "at 8192 rows the gap should be large: {eager_big} vs {lazy_big}"
    );
}

#[test]
fn trained_model_beats_chance_on_auc() {
    use lazydp::model::{auc, log_loss};
    use lazydp::tensor::ops::sigmoid;
    let (mut model, ds) = setup();
    let eval = ds.batch_of(&(0..192).collect::<Vec<_>>());
    let probs_of = |m: &Dlrm| -> Vec<f32> {
        m.forward(&eval)
            .logits()
            .iter()
            .map(|&z| sigmoid(z))
            .collect()
    };
    let before_auc = auc(&eval.labels, &probs_of(&model));
    let mut opt = LazyDpOptimizer::new(
        LazyDpConfig::new(DpConfig::new(0.2, 4.0, 0.1, BATCH), true),
        &model,
        CounterNoise::new(3),
    );
    let batches: Vec<_> = (0..=60)
        .map(|i| {
            let ids: Vec<usize> = (0..BATCH).map(|k| (i * BATCH + k) % 192).collect();
            ds.batch_of(&ids)
        })
        .collect();
    for i in 0..60 {
        opt.step(&mut model, &batches[i], Some(&batches[i + 1]));
    }
    opt.finalize(&mut model);
    let probs = probs_of(&model);
    let after_auc = auc(&eval.labels, &probs);
    assert!(
        after_auc > 0.58,
        "trained AUC {after_auc} must clearly beat chance (started at {before_auc})"
    );
    assert!(after_auc > before_auc, "AUC must improve with training");
    assert!(log_loss(&eval.labels, &probs).is_finite());
}
