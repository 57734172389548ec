//! Privacy–utility trade-off (functional).
//!
//! The paper's §2.5 points to Denison et al.'s demonstration that
//! DP-SGD "can provide both privacy and good model accuracy for
//! RecSys"; LazyDP's role is to make that training *fast* without
//! moving a single point on the trade-off curve (the model is
//! mathematically equivalent). This experiment traces the curve on the
//! synthetic planted-ground-truth workload: noise multiplier σ vs ROC
//! AUC / log-loss, with the ε that each row's `PrivateTrainer` charged
//! for the Poisson-sampled batches it trained on.

use crate::table::Table;
use lazydp_core::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp_data::{LookaheadLoader, PoissonLoader, SyntheticConfig, SyntheticDataset};
use lazydp_dpsgd::{DpConfig, Optimizer, SgdOptimizer, StepStats};
use lazydp_model::{auc, log_loss, Dlrm, DlrmConfig};
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;

const TABLES: usize = 3;
const ROWS: u64 = 80;
const DIM: usize = 8;
const BATCH: usize = 48;
const STEPS: usize = 60;
const EVAL: usize = 256;
const SIGMAS: [f64; 4] = [0.1, 0.5, 2.0, 8.0];

fn evaluate(model: &Dlrm, ds: &SyntheticDataset) -> (f64, f64) {
    let eval = ds.batch_of(&(0..EVAL).collect::<Vec<_>>());
    let cache = model.forward(&eval);
    let probs: Vec<f32> = cache
        .logits()
        .iter()
        .map(|&z| lazydp_tensor::ops::sigmoid(z))
        .collect();
    (auc(&eval.labels, &probs), log_loss(&eval.labels, &probs))
}

type Trainer = PrivateTrainer<LookaheadLoader<PoissonLoader>, LazyDpOptimizer<CounterNoise>>;

fn dataset() -> SyntheticDataset {
    SyntheticDataset::new(SyntheticConfig::small(TABLES, ROWS, EVAL))
}

/// Trains LazyDP for `STEPS` at noise multiplier `sigma` over
/// Poisson-sampled batches, so the ε the trainer charges at
/// `q = BATCH / EVAL` bounds what it releases. Returns the trainer
/// (not yet finalized) and the per-step stats of the batches it drew.
/// `sigma = 0` is allowed (clipping only, no noise).
fn train_at(sigma: f64) -> (Trainer, Vec<StepStats>) {
    let mut rng = Xoshiro256PlusPlus::seed_from(202);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
    let loader = PoissonLoader::new(dataset(), BATCH, 303);
    let q = loader.sampling_rate();
    let cfg = LazyDpConfig::new(DpConfig::new(sigma, 4.0, 0.1, BATCH), true);
    let mut trainer = PrivateTrainer::make_private(model, cfg, loader, CounterNoise::new(77), q);
    let steps = trainer.train_steps(STEPS);
    (trainer, steps)
}

/// The released model's `(auc, log_loss)` and the ε it cost at δ = 1e-6.
fn release(trainer: Trainer) -> (f64, f64, f64) {
    let (eps, _) = trainer.epsilon(1e-6);
    let (auc, loss) = evaluate(&trainer.finish(), &dataset());
    (auc, loss, eps)
}

/// Runs the σ sweep and renders the trade-off table.
#[must_use]
pub fn utility_tradeoff() -> Table {
    let mut t = Table::new(
        "utility",
        "Privacy–utility trade-off — σ vs AUC / log-loss (functional LazyDP)",
        &["σ", "ε (60 steps, δ=1e-6)", "ROC AUC", "log-loss"],
    )
    .with_note(
        "LazyDP trains the *same* model DP-SGD would (equivalence tests), so this curve \
         is the DP-SGD trade-off, reached ~100× faster at paper scale. Untrained AUC is \
         0.5; the planted ground truth caps achievable AUC well below 1.0 (labels are \
         sampled, not deterministic).",
    );
    // Non-private reference.
    {
        let mut rng = Xoshiro256PlusPlus::seed_from(202);
        let mut model = Dlrm::new(DlrmConfig::tiny(TABLES, ROWS, DIM), &mut rng);
        let ds = dataset();
        let mut opt = SgdOptimizer::new(0.1);
        for i in 0..STEPS {
            let ids: Vec<usize> = (0..BATCH).map(|k| (i * BATCH + k) % EVAL).collect();
            opt.step(&mut model, &ds.batch_of(&ids), None);
        }
        let (a, l) = evaluate(&model, &ds);
        t.push_row(vec![
            "— (SGD)".into(),
            "∞".into(),
            format!("{a:.3}"),
            format!("{l:.4}"),
        ]);
    }
    for sigma in SIGMAS {
        let (a, l, eps) = release(train_at(sigma).0);
        t.push_row(vec![
            format!("{sigma}"),
            format!("{eps:.2}"),
            format!("{a:.3}"),
            format!("{l:.4}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_noise_beats_high_noise_and_training_beats_chance() {
        let (auc_low, loss_low, _) = release(train_at(0.1).0);
        let (auc_high, loss_high, _) = release(train_at(8.0).0);
        assert!(auc_low > 0.55, "low-noise AUC {auc_low} must beat chance");
        assert!(
            loss_low < loss_high,
            "σ=0.1 loss {loss_low} must beat σ=8 loss {loss_high}"
        );
        assert!(
            auc_low > auc_high - 0.02,
            "AUC should not improve with noise"
        );
    }

    #[test]
    fn each_sigma_row_prints_the_epsilon_its_poisson_run_spent() {
        // The printed ε assumes Poisson sampling at q = BATCH / EVAL, so
        // the run behind each row must draw variable-size batches and
        // the row must print the ε that run's trainer charged.
        let t = utility_tradeoff();
        for (row, sigma) in t.rows[1..].iter().zip(SIGMAS) {
            let (trainer, steps) = train_at(sigma);
            let sizes: Vec<usize> = steps.iter().map(|s| s.realized_batch).collect();
            assert_eq!(sizes.len(), STEPS);
            assert!(
                sizes.iter().any(|&b| b != sizes[0]),
                "σ={sigma}: fixed batches {sizes:?}"
            );
            assert_eq!(
                row[1],
                format!("{:.2}", trainer.epsilon(1e-6).0),
                "σ={sigma}"
            );
        }
    }

    #[test]
    fn tradeoff_table_has_monotone_epsilon() {
        let t = utility_tradeoff();
        // Rows after the SGD reference: ε strictly decreasing in σ.
        let eps: Vec<f64> = t.rows[1..]
            .iter()
            .map(|r| r[1].parse().expect("numeric"))
            .collect();
        for w in eps.windows(2) {
            assert!(w[1] < w[0], "ε must fall as σ grows: {eps:?}");
        }
    }
}
