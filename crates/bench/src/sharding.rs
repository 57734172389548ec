//! Shard-scaling experiment: wall-clock of the LazyDP training step
//! across sparse-state shard counts.
//!
//! With `DpConfig::shards = S`, each embedding table's history
//! bookkeeping and pending-noise sampling are hash-partitioned into `S`
//! independent units of executor work that run concurrently with each
//! other *and* with the step's dense forward/backward (the lookahead
//! flush only needs the next batch's indices, never the gradients — see
//! `lazydp_core::optimizer`). Because every row's noise is addressed by
//! its global id, the trained model is bitwise identical at every row
//! of this table — only wall-clock moves. The sweep drives the trainer
//! through the async `PrefetchLoader`, so batch generation is off the
//! critical path as it would be in a deployment.
//!
//! Run at full scale (release) with:
//! `cargo run --release -p lazydp_bench --bin figures -- sharding`.

use crate::table::Table;
use lazydp_core::{LazyDpConfig, LazyDpOptimizer, PrivateTrainer};
use lazydp_data::{AccessDistribution, SyntheticConfig, SyntheticDataset};
use lazydp_dpsgd::DpConfig;
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;
use std::time::Instant;

/// Shard counts the sweep measures (the S ∈ {1, 2, 4, 8} of the issue's
/// acceptance criteria).
pub const SHARD_POINTS: [usize; 4] = [1, 2, 4, 8];

/// Builds the model and a Zipf-skewed dataset matching `cfg`'s
/// geometry. A skewed trace is the interesting case for sharding: the
/// modulo hash must spread the hot rows across shards.
fn setup(cfg: &DlrmConfig, batch: usize, steps: usize) -> (Dlrm, SyntheticDataset) {
    let mut rng = Xoshiro256PlusPlus::seed_from(23);
    let model = Dlrm::new(cfg.clone(), &mut rng);
    let scfg = SyntheticConfig {
        num_dense: cfg.num_dense,
        table_rows: cfg.table_rows.clone(),
        pooling: cfg.pooling,
        num_samples: batch * (steps + 2),
        distributions: cfg
            .table_rows
            .iter()
            .map(|&r| AccessDistribution::zipf(r, 0.9))
            .collect(),
        seed: 0xfeed,
    };
    (model, SyntheticDataset::new(scfg))
}

/// Mean seconds per LazyDP step at one shard count (1 warmup step +
/// `timed_steps` timed), through the async prefetch pipeline.
fn step_seconds(
    model0: &Dlrm,
    ds: &SyntheticDataset,
    batch: usize,
    shards: usize,
    threads: usize,
    timed_steps: usize,
) -> f64 {
    let dp = DpConfig::paper_default(batch)
        .with_threads(threads)
        .with_shards(shards);
    let cfg = LazyDpConfig::new(dp, true);
    let loader = lazydp_data::FixedBatchLoader::new(ds.clone(), batch);
    let optimizer = LazyDpOptimizer::new(cfg, model0, CounterNoise::new(3));
    let mut trainer = PrivateTrainer::make_private_optimizer(
        model0.clone(),
        optimizer,
        lazydp_data::PrefetchLoader::new(loader),
        batch as f64 / ds.len() as f64,
    );
    let _ = trainer.train_steps(1); // warmup (fills the prefetch queue)
    let t0 = Instant::now();
    let _ = trainer.train_steps(timed_steps);
    t0.elapsed().as_secs_f64() / timed_steps as f64
}

/// The shard-scaling sweep on an explicit model configuration.
#[must_use]
pub fn shard_scaling_with(cfg: &DlrmConfig, batch: usize, timed_steps: usize) -> Table {
    let threads = 4usize;
    let mut t = Table::new(
        "sharding",
        "Shard scaling — LazyDP step wall-clock vs sparse-state shard count (Zipf trace, async prefetch)",
        &["shards", "step (ms)", "speedup vs 1 shard"],
    )
    .with_note(&format!(
        "Hash-partitioned sparse state: history bookkeeping + noise sampling run \
         shard-parallel and overlap the dense compute; the trained model is bitwise \
         identical at every row of this table. Executor width {threads}; host reports \
         {} available core(s) — speedup above 1.0 requires physical cores. Full-scale \
         release run: cargo run --release -p lazydp_bench --bin figures -- sharding \
         (batch {batch}, {timed_steps} timed steps).",
        lazydp_exec::available_threads(),
    ));
    let (model0, ds) = setup(cfg, batch, timed_steps);
    let base = step_seconds(&model0, &ds, batch, SHARD_POINTS[0], threads, timed_steps);
    t.push_row(vec![
        SHARD_POINTS[0].to_string(),
        format!("{:.2}", base * 1e3),
        "1.00".into(),
    ]);
    for &shards in &SHARD_POINTS[1..] {
        let secs = step_seconds(&model0, &ds, batch, shards, threads, timed_steps);
        t.push_row(vec![
            shards.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.2}", base / secs),
        ]);
    }
    t
}

/// The registered experiment. Release builds measure an MLPerf-shaped
/// model scaled down; debug builds (the test registry) use a tiny model
/// so the suite stays fast.
#[must_use]
pub fn shard_scaling() -> Table {
    if cfg!(debug_assertions) {
        shard_scaling_with(&DlrmConfig::tiny(4, 256, 16), 4, 1)
    } else {
        shard_scaling_with(&DlrmConfig::mlperf(1_000_000), 64, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_shard_points_with_sane_numbers() {
        let t = shard_scaling_with(&DlrmConfig::tiny(2, 64, 8), 8, 1);
        assert_eq!(t.rows.len(), SHARD_POINTS.len());
        for (row, shards) in t.rows.iter().zip(SHARD_POINTS.iter()) {
            assert_eq!(row[0], shards.to_string());
            let ms: f64 = row[1].parse().expect("numeric step time");
            assert!(ms >= 0.0);
            let speedup: f64 = row[2].parse().expect("numeric speedup");
            assert!(speedup > 0.0);
        }
    }
}
