//! The fixed-step verify pass: the output check that does not depend
//! on how many steps a time-boxed run happened to fit.
//!
//! Four steps at the `T8` shape (shrunk for the per-run pass, full size
//! once per `run`) through `PrivateTrainer`, released and compared:
//!
//! * LazyDP (no ANS) ≡ eager DP-SGD(F) — the paper's "mathematically
//!   equivalent". Not bitwise: LazyDP sums a row's deferred draws before
//!   applying them, eager applies them one by one, so the two round
//!   differently. The bar is far below one step's noise on one
//!   coordinate (`η·σC/B` ≈ 2·10⁻⁴), so a dropped or doubled draw fails.
//! * LazyDP (ANS) on memory ≡ LazyDP (ANS) on `StoredTable` — bitwise.
//! * LazyDP (ANS) run twice — bitwise (the determinism contract).
//!
//! Digests are compared only within a run or a commit, never pinned:
//! ROADMAP 2a may legitimately change the noise stream once.

use crate::outcome::Check;
use crate::session::{
    dp_config, loader, max_abs_diff, memory_model, release_digest, stored_model, Loader, Seeds,
};
use crate::spec::{dataset_for, t8_config};
use lazydp::dpsgd::{ClipStyle, EagerDpSgd};
use lazydp::embedding::EmbeddingStorage;
use lazydp::lazy::{AccountedOptimizer, LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp::model::Dlrm;
use lazydp::rng::counter::CounterNoise;
use std::path::Path;

/// Steps of the verify pass.
pub const VERIFY_STEPS: usize = 4;

/// Batch size of the verify pass (the `T8` workloads').
const BATCH: usize = 256;

/// Largest |Δ| allowed between LazyDP (no ANS) and eager DP-SGD(F).
const EQUIVALENCE_TOL: f32 = 1e-6;

fn release<O: AccountedOptimizer<T>, T: EmbeddingStorage>(
    model: Dlrm<T>,
    opt: O,
    (loader, q): (Loader, f64),
) -> Dlrm<T> {
    let mut trainer = PrivateTrainer::make_private_optimizer(model, opt, loader, q);
    let _ = trainer.train_steps(VERIFY_STEPS);
    trainer.finish()
}

/// Runs the verify pass at `rows` rows per table. Returns the checks
/// and the LazyDP release digest (hex) for cross-repeat comparison.
#[must_use]
pub fn verify_pass(rows: u64, seed: u64, spill: &Path) -> (Vec<Check>, String) {
    let seeds = Seeds::derive(seed);
    let cfg = t8_config(rows);
    let dp = dp_config(BATCH);
    let input = || loader(dataset_for(&cfg, seeds.data), BATCH, seeds.poisson);
    let noise = || CounterNoise::new(seeds.noise);
    let lazy =
        |ans: bool, model: &Dlrm| LazyDpOptimizer::new(LazyDpConfig::new(dp, ans), model, noise());

    let model = memory_model(&cfg, seeds.model);
    let opt = lazy(false, &model);
    let lazy_plain = release(model, opt, input());
    let eager = release(
        memory_model(&cfg, seeds.model),
        EagerDpSgd::new(dp, ClipStyle::Fast, noise()),
        input(),
    );
    let gap = max_abs_diff(&lazy_plain, &eager);
    drop((lazy_plain, eager));

    let lazy_digest = || {
        let model = memory_model(&cfg, seeds.model);
        let opt = lazy(true, &model);
        release_digest(&release(model, opt, input()))
    };
    let (first, second) = (lazy_digest(), lazy_digest());
    let stored = {
        let model = stored_model(&cfg, seeds.model, spill);
        let opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, noise());
        release_digest(&release(model, opt, input()))
    };

    let shape = format!("{VERIFY_STEPS} steps at 8x{rows}x64");
    let checks = vec![
        Check::new(
            "lazydp_equals_eager",
            gap <= EQUIVALENCE_TOL,
            format!("max |delta| {gap:e} <= {EQUIVALENCE_TOL:e}, {shape}"),
        ),
        Check::new(
            "lazydp_memory_equals_stored",
            first == stored,
            format!("digest {first:016x} vs {stored:016x}, {shape}"),
        ),
        Check::new(
            "release_digest_repeats",
            first == second,
            format!("digest {first:016x} vs {second:016x}, {shape}"),
        ),
    ];
    (checks, format!("{first:016x}"))
}
