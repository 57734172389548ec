//! DP-AdaFEST: sparsity-preserving DP-SGD (Ghazi et al., arXiv
//! 2311.08357), the fourth training algorithm of the workspace.
//!
//! Eager DP-SGD and LazyDP both add Gaussian noise to **every** row of
//! every embedding table each step (LazyDP merely defers when the writes
//! land), so their noise traffic is `O(table rows)`. AdaFEST instead
//! spends part of the privacy budget on a **private partition
//! selection**: the rows of each table are hash-partitioned (the same
//! `row mod S` scheme as [`ShardSpec`]), the per-partition gather counts
//! of the current batch are perturbed with Gaussian noise at
//! `σ_select`, and only partitions whose noisy count clears a threshold
//! receive gradient + noise. Unselected partitions are not touched at
//! all — their gradient contribution is *dropped*, which is what makes
//! the release sparse and private (writing grads without noise would
//! leak). Noise traffic becomes `O(touched partitions · partition
//! rows)`, i.e. it scales with the batch's access locality instead of
//! the table size.
//!
//! # Determinism contract
//!
//! Selection draws come from the deterministic dense-parameter address
//! space of [`RowNoise::fill_unit_dense`] under [`SELECT_PARAM_BASE`],
//! addressed by `(table, partition, iter)` — selection is a pure
//! function of `(seed, batch)`, independent of thread count and
//! storage backend. The per-row update kernel is the dense
//! noisy-update arithmetic restricted to selected partitions, walking
//! only their row strides; each row's update is independent and its
//! noise is addressed by `(table, row, iter)`, so the visit order is
//! bitwise-immaterial and with the threshold forced to
//! `-∞` (see [`AdaFestConfig::select_all`]) a training run is
//! **bitwise identical** to eager DP-SGD(F) — a differential test pins
//! this.
//!
//! # Privacy accounting
//!
//! Each step releases two subsampled Gaussian queries — the joint
//! partition-count vector across all tables, and the selected-partition
//! gradient — and the accounting for the pair is `lazydp_privacy`'s
//! `Mechanism::SelectThenNoise`, charged per step by the trainer. That
//! mechanism treats `σ_select` as the noise multiplier **relative to
//! the count query's ℓ₂ sensitivity**, exactly as `σ` is relative to
//! the clip norm `C`. Adding or removing one example changes at most
//! [`AdaFestConfig::max_lookups`] counts per table by 1 each (worst
//! case: all its lookups land in one partition of every table), so the
//! joint count query's sensitivity is bounded by
//! `Δ = max_lookups · √(num_tables)` — and the noise actually added to
//! each count is `σ_select · Δ` ([`AdaFestConfig::selection_noise_std`]).
//! The optimizer panics on any batch whose per-example per-table lookup
//! count exceeds `max_lookups`, so the bound — and therefore the
//! reported ε — is enforced, not assumed.

use crate::config::DpConfig;
use crate::counters::KernelCounters;
use crate::noise_update::noisy_update_row;
use crate::optimizer::{Optimizer, StepStats};
use crate::step::{DpStep, TableStage};
use lazydp_data::MiniBatch;
use lazydp_embedding::{EmbeddingStorage, ShardSpec, SparseGrad};
use lazydp_model::Dlrm;
use lazydp_rng::{RowNoise, NOISE_BLOCK};

/// Dense-parameter namespace for the selection draws, disjoint from the
/// MLP bases (bottom = 0, top = 64): table `t`'s partition counts are
/// perturbed under parameter `SELECT_PARAM_BASE + t`.
pub const SELECT_PARAM_BASE: u32 = 128;

/// Hyper-parameters for [`AdaFestOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaFestConfig {
    /// The shared DP-SGD hyper-parameters (σ, C, η, B, threads).
    pub dp: DpConfig,
    /// Selection noise multiplier σ_select, relative to the count
    /// query's ℓ₂ sensitivity `Δ = max_lookups · √(num_tables)` (the
    /// realized per-count noise std is
    /// [`selection_noise_std`](Self::selection_noise_std)).
    pub sigma_select: f64,
    /// Selection threshold τ: partition `p` is noised iff
    /// `count(p) + σ_select·Δ·n_p > τ`. `f64::NEG_INFINITY` selects
    /// every partition (the differential-test configuration).
    pub threshold: f64,
    /// Rows per partition. Partitions are fixed-size so the noisy-update
    /// work grows with the number of *touched* partitions, not with the
    /// table's row count.
    pub partition_rows: usize,
    /// Upper bound on the embedding lookups one example makes into one
    /// table (the pooling factor; default 1). This is what bounds the
    /// count query's sensitivity, so the optimizer **panics** on any
    /// batch that exceeds it — raise it with
    /// [`with_max_lookups`](Self::with_max_lookups) for multi-hot
    /// workloads.
    pub max_lookups: usize,
}

impl AdaFestConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_select` is not positive and finite, if
    /// `partition_rows == 0`, or if `threshold` is NaN
    /// (`-∞` is allowed — it means select-all).
    #[must_use]
    pub fn new(dp: DpConfig, sigma_select: f64, threshold: f64, partition_rows: usize) -> Self {
        assert!(
            sigma_select > 0.0 && sigma_select.is_finite(),
            "sigma_select must be positive and finite"
        );
        assert!(partition_rows > 0, "partition_rows must be positive");
        assert!(!threshold.is_nan(), "threshold must not be NaN");
        Self {
            dp,
            sigma_select,
            threshold,
            partition_rows,
            max_lookups: 1,
        }
    }

    /// Sets the per-example per-table lookup bound (pooling factor)
    /// that the count-query sensitivity is computed from. Batches that
    /// exceed it make [`AdaFestOptimizer`] panic.
    ///
    /// # Panics
    ///
    /// Panics if `max_lookups == 0`.
    #[must_use]
    pub fn with_max_lookups(mut self, max_lookups: usize) -> Self {
        assert!(max_lookups > 0, "max_lookups must be positive");
        self.max_lookups = max_lookups;
        self
    }

    /// The ℓ₂ sensitivity of the joint partition-count query over
    /// `num_tables` tables: one example moves at most `max_lookups`
    /// counts per table by 1 each, worst case all in a single partition
    /// per table, so `Δ = max_lookups · √(num_tables)`.
    #[must_use]
    pub fn count_sensitivity(&self, num_tables: usize) -> f64 {
        self.max_lookups as f64 * (num_tables as f64).sqrt()
    }

    /// The noise std actually added to each partition count:
    /// `σ_select · Δ`, so that `σ_select` is the multiplier *relative
    /// to the count query's sensitivity* — the normalization
    /// `Mechanism::SelectThenNoise` assumes.
    #[must_use]
    pub fn selection_noise_std(&self, num_tables: usize) -> f64 {
        self.sigma_select * self.count_sensitivity(num_tables)
    }

    /// Paper-flavored defaults on top of [`DpConfig::paper_default`]:
    /// `σ_select = 1.0`, `τ = 1.0`, 16 rows per partition.
    #[must_use]
    pub fn paper_default(nominal_batch: usize) -> Self {
        Self::new(DpConfig::paper_default(nominal_batch), 1.0, 1.0, 16)
    }

    /// Forces the threshold to `-∞` so every partition is selected —
    /// the configuration under which AdaFEST degenerates to eager
    /// DP-SGD bitwise (the selection noise is still drawn and charged).
    #[must_use]
    pub fn select_all(mut self) -> Self {
        self.threshold = f64::NEG_INFINITY;
        self
    }

    /// Number of partitions for a table with `rows` rows (at least 1).
    #[must_use]
    pub fn partitions_for(&self, rows: usize) -> usize {
        rows.div_ceil(self.partition_rows).max(1)
    }
}

/// Privately selects partitions:
/// `selected[p] = count(p) + noise_std·n_p > threshold`, with `n_p`
/// the deterministic standard-normal draw for
/// `(SELECT_PARAM_BASE + table_id, p, iter)`. Pure function of its
/// arguments — no entropy, no iteration-order dependence.
///
/// `noise_std` is the **realized** per-count noise std: the caller is
/// responsible for scaling the configured multiplier by the count
/// query's sensitivity
/// (`AdaFestConfig::selection_noise_std`), so the accountant's
/// unit-sensitivity view of `σ_select` stays honest.
pub fn select_partitions_into<N: RowNoise>(
    table_id: u32,
    counts: &[u64],
    noise_std: f64,
    threshold: f64,
    noise: &mut N,
    iter: u64,
    selected: &mut Vec<bool>,
) {
    selected.clear();
    let mut draw = [0.0f32; 1];
    for (p, &count) in counts.iter().enumerate() {
        noise.fill_unit_dense(SELECT_PARAM_BASE + table_id, iter, p as u64, &mut draw);
        let noisy = count as f64 + noise_std * f64::from(draw[0]);
        selected.push(noisy > threshold);
    }
}

/// The AdaFEST table update: the dense noisy-update arithmetic (`θ[r] -=
/// lr·(noise_std·n_r + g[r])`, `g[r] = 0` off the gather set) applied
/// to rows of **selected** partitions only; rows of unselected
/// partitions are untouched and their gradient entries are dropped.
///
/// The walk visits only selected partitions' rows (partition `p` owns
/// the stride `p, p+S, p+2S, …` under the `row mod S` scheme), so the
/// per-step cost is `O(selected partitions · partition rows)`, not
/// `O(table rows)`. Each row's update is independent and its noise is
/// addressed by `(table, row, iter)`, so the visit order is immaterial
/// and every selected row's update is bitwise that of
/// [`dense_noisy_update_with`](crate::noise_update::dense_noisy_update_with):
/// the same row body, drawn through one stack block.
///
/// # Panics
///
/// Panics if `grad` is not coalesced, its dimension mismatches, or
/// `selected.len() != spec.shards()`.
#[allow(clippy::too_many_arguments)]
pub fn partition_noisy_update_with<T: EmbeddingStorage, N: RowNoise>(
    table_id: u32,
    table: &mut T,
    spec: &ShardSpec,
    selected: &[bool],
    grad: &SparseGrad,
    noise: &mut N,
    iter: u64,
    noise_std: f32,
    lr: f32,
    counters: &mut KernelCounters,
) {
    assert_eq!(grad.dim(), table.dim(), "grad dim mismatch");
    assert!(
        grad.is_coalesced(),
        "gradient must be coalesced (sorted, duplicate-free rows)"
    );
    assert_eq!(
        selected.len(),
        spec.shards(),
        "selection mask / partition count mismatch"
    );
    let mut block = [0.0f32; NOISE_BLOCK];
    let rows = table.rows() as u64;
    let stride = spec.shards() as u64;
    let mut touched = 0u64;
    for (p, &sel) in selected.iter().enumerate() {
        if !sel {
            continue;
        }
        let mut r = p as u64;
        while r < rows {
            let g = grad.find(r);
            table.with_row_mut(r, |row| {
                noisy_update_row(noise, table_id, r, iter, row, g, noise_std, lr, &mut block);
            });
            touched += 1;
            r += stride;
        }
    }
    counters.gaussian_samples += touched * table.dim() as u64;
    counters.table_rows_read += touched;
    counters.table_rows_written += touched;
}

/// Enforces the sensitivity bound the selection accounting rests on: no
/// example may make more than `max_lookups` lookups into any one table.
/// A batch that violates it would make the realized selection noise
/// smaller than the count query's true sensitivity warrants, silently
/// voiding the reported ε — so this panics instead.
fn assert_lookup_bound(batch: &MiniBatch, max_lookups: usize) {
    for (t, bag) in batch.sparse.iter().enumerate() {
        for i in 0..bag.batch_size() {
            let got = bag.sample(i).len();
            assert!(
                got <= max_lookups,
                "sample {i} makes {got} lookups into table {t}, above the configured \
                 per-example bound of {max_lookups}; raise `AdaFestConfig::with_max_lookups` \
                 so the selection noise covers the count query's true sensitivity"
            );
        }
    }
}

/// The DP-AdaFEST optimizer (see the module docs): the shared
/// [`DpStep`] front half plus select-then-noise partitions. The whole
/// step allocates nothing at steady state.
#[derive(Debug, Clone)]
pub struct AdaFestOptimizer<N> {
    cfg: AdaFestConfig,
    core: DpStep<N>,
    counts: Vec<u64>,
    selected: Vec<bool>,
}

impl<N: RowNoise> AdaFestOptimizer<N> {
    /// Creates an AdaFEST optimizer.
    #[must_use]
    pub fn new(cfg: AdaFestConfig, noise: N) -> Self {
        Self {
            cfg,
            core: DpStep::new(cfg.dp, noise, 0),
            counts: Vec::new(),
            selected: Vec::new(),
        }
    }

    /// The hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &AdaFestConfig {
        &self.cfg
    }
}

impl<T: EmbeddingStorage, N: RowNoise> Optimizer<T> for AdaFestOptimizer<N> {
    fn name(&self) -> &'static str {
        "DP-AdaFEST"
    }

    fn step(
        &mut self,
        model: &mut Dlrm<T>,
        batch: &MiniBatch,
        _next: Option<&MiniBatch>,
    ) -> StepStats {
        self.core.begin_step();
        assert_lookup_bound(batch, self.cfg.max_lookups);
        let clipped = self.core.clipped_aggregate(model, batch);
        self.core.dense_update(model);
        // Table stage: privately select partitions, then noise them.
        // σ_select is relative to the count query's sensitivity; the
        // realized per-count noise std carries the Δ = max_lookups·√T
        // factor so the accountant's unit-sensitivity view is honest.
        lazydp_obs::span!(step_table_noise);
        let select_std = self.cfg.selection_noise_std(model.tables.len());
        let threshold = self.cfg.threshold;
        let (counts, selected) = (&mut self.counts, &mut self.selected);
        let TableStage {
            grads,
            noise,
            counters,
            iter,
            noise_std,
            lr,
        } = self.core.table_stage();
        for (t, (table, g)) in model.tables.iter_mut().zip(grads.iter()).enumerate() {
            let t = t as u32;
            let spec = ShardSpec::new(self.cfg.partitions_for(table.rows()));
            spec.partition_counts_into(g.indices(), counts);
            select_partitions_into(t, counts, select_std, threshold, noise, iter, selected);
            counters.gaussian_samples += counts.len() as u64;
            // The selection outcome is itself a differentially private
            // release (that is the point of private partition
            // selection), so aggregate selected/dropped tallies are
            // safe to surface.
            let n_selected = selected.iter().filter(|&&s| s).count() as u64;
            lazydp_obs::metrics()
                .adafest
                .partitions_selected
                .add(n_selected);
            lazydp_obs::metrics()
                .adafest
                .partitions_dropped
                .add(selected.len() as u64 - n_selected);
            partition_noisy_update_with(
                t, table, &spec, selected, g, noise, iter, noise_std, lr, counters,
            );
        }
        self.core.finish_step(batch, clipped)
    }

    fn counters(&self) -> KernelCounters {
        self.core.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_data::{SyntheticConfig, SyntheticDataset};
    use lazydp_model::DlrmConfig;
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn setup() -> (Dlrm, SyntheticDataset) {
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        let model = Dlrm::new(DlrmConfig::tiny(3, 48, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(3, 48, 96));
        (model, ds)
    }

    #[test]
    fn selection_is_a_pure_function_of_seed_and_counts() {
        let counts = vec![0u64, 3, 0, 17, 1];
        let run = || {
            let mut noise = CounterNoise::new(5);
            let mut sel = Vec::new();
            select_partitions_into(2, &counts, 1.0, 1.0, &mut noise, 9, &mut sel);
            sel
        };
        assert_eq!(run(), run());
        // A different iteration gives (generically) different draws but
        // stays deterministic.
        let mut noise = CounterNoise::new(5);
        let mut sel = Vec::new();
        select_partitions_into(2, &counts, 1.0, 1.0, &mut noise, 10, &mut sel);
        assert_eq!(sel.len(), counts.len());
    }

    #[test]
    fn select_all_threshold_selects_everything() {
        let counts = vec![0u64; 16];
        let mut noise = CounterNoise::new(5);
        let mut sel = Vec::new();
        select_partitions_into(0, &counts, 1.0, f64::NEG_INFINITY, &mut noise, 1, &mut sel);
        assert!(sel.iter().all(|&s| s));
    }

    #[test]
    fn huge_threshold_selects_nothing_on_empty_counts() {
        let counts = vec![0u64; 8];
        let mut noise = CounterNoise::new(5);
        let mut sel = Vec::new();
        select_partitions_into(0, &counts, 1.0, 1e9, &mut noise, 1, &mut sel);
        assert!(sel.iter().all(|&s| !s));
    }

    #[test]
    fn hot_partitions_survive_selection_cold_ones_mostly_do_not() {
        // With σ_select = 1 and τ = 3, a count of 100 is essentially
        // always selected and a count of 0 essentially never.
        let mut hot = 0usize;
        let mut cold = 0usize;
        for iter in 1..=64u64 {
            let mut noise = CounterNoise::new(5);
            let mut sel = Vec::new();
            select_partitions_into(0, &[100, 0], 1.0, 3.0, &mut noise, iter, &mut sel);
            hot += usize::from(sel[0]);
            cold += usize::from(sel[1]);
        }
        assert_eq!(hot, 64, "hot partition must always clear τ=3");
        assert!(cold <= 3, "cold partition cleared τ=3 {cold}/64 times");
    }

    #[test]
    fn unselected_partitions_are_never_written() {
        let mut table = lazydp_embedding::EmbeddingTable::zeros(8, 2);
        let spec = ShardSpec::new(4);
        let selected = vec![true, false, true, false];
        let mut g = SparseGrad::from_entries(2, vec![(1, vec![5.0, 5.0]), (2, vec![5.0, 5.0])]);
        g.coalesce();
        let mut noise = CounterNoise::new(3);
        let mut c = KernelCounters::new();
        partition_noisy_update_with(
            0, &mut table, &spec, &selected, &g, &mut noise, 1, 0.5, 0.1, &mut c,
        );
        for r in 0..8usize {
            let part = spec.shard_of(r as u64);
            if selected[part] {
                assert_ne!(table.row(r), &[0.0, 0.0], "selected row {r} must move");
            } else {
                // Row 1 carries a gradient but sits in partition 1
                // (unselected): it must be dropped, not applied.
                assert_eq!(
                    table.row(r),
                    &[0.0, 0.0],
                    "unselected row {r} must not move"
                );
            }
        }
        assert_eq!(c.table_rows_written, 4);
        assert_eq!(c.gaussian_samples, 8);
    }

    #[test]
    fn select_all_step_matches_eager_fast_bitwise() {
        // The in-crate version of the differential test (the facade
        // version lives in tests/): τ = -∞ ⇒ AdaFEST ≡ DP-SGD(F).
        use crate::eager::{ClipStyle, EagerDpSgd};
        let (model0, ds) = setup();
        let dp = DpConfig::new(0.9, 0.8, 0.05, 16).with_threads(1);
        let mut eager_model = model0.clone();
        let mut ada_model = model0.clone();
        let mut eager = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(21));
        let mut ada = AdaFestOptimizer::new(
            AdaFestConfig::new(dp, 1.0, 0.0, 16).select_all(),
            CounterNoise::new(21),
        );
        for it in 0..4 {
            let batch = ds.batch_of(&(it * 16..(it + 1) * 16).collect::<Vec<_>>());
            eager.step(&mut eager_model, &batch, None);
            ada.step(&mut ada_model, &batch, None);
        }
        for (a, b) in eager_model.tables.iter().zip(ada_model.tables.iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0, "tables diverged");
        }
        for (a, b) in eager_model
            .top
            .layers()
            .iter()
            .zip(ada_model.top.layers().iter())
        {
            assert_eq!(a.weight.max_abs_diff(&b.weight), 0.0, "MLP diverged");
        }
    }

    #[test]
    fn noise_work_scales_with_touched_partitions_not_table_rows() {
        // A one-sample batch touches O(1) partitions; eager noises the
        // whole table. This is AdaFEST's asymptotic claim in miniature.
        let (mut model, ds) = setup();
        let total_rows: u64 = model.tables.iter().map(|t| t.rows() as u64).sum();
        let cfg = AdaFestConfig::new(DpConfig::paper_default(1), 1.0, 2.5, 4);
        let mut opt = AdaFestOptimizer::new(cfg, CounterNoise::new(7));
        let batch = ds.batch_of(&[0]);
        opt.step(&mut model, &batch, None);
        let written =
            Optimizer::<lazydp_embedding::EmbeddingTable>::counters(&opt).table_rows_written;
        assert!(
            written < total_rows / 2,
            "AdaFEST wrote {written} of {total_rows} rows — not sparse"
        );
    }

    #[test]
    fn empty_batch_still_noises_mlp_and_selected_partitions() {
        let (mut model, _) = setup();
        let top_before = model.top.layers()[0].weight.clone();
        let tables_before = model.tables.clone();
        let cfg = AdaFestConfig::paper_default(8).select_all();
        let mut opt = AdaFestOptimizer::new(cfg, CounterNoise::new(5));
        let stats = opt.step(&mut model, &MiniBatch::default(), None);
        assert_eq!(stats.realized_batch, 0);
        assert!(
            model.top.layers()[0].weight.max_abs_diff(&top_before) > 0.0,
            "MLP noise must land on empty batches"
        );
        // Select-all: every partition of every table is selected, so
        // table noise must land even with no gradient.
        for (t, (after, before)) in model.tables.iter().zip(tables_before.iter()).enumerate() {
            assert!(
                after.max_abs_diff(before) > 0.0,
                "table {t} noise must land on empty batches"
            );
        }
    }

    #[test]
    fn count_sensitivity_is_max_lookups_times_sqrt_tables() {
        let dp = DpConfig::paper_default(8);
        let c = AdaFestConfig::new(dp, 0.5, 1.0, 16).with_max_lookups(3);
        assert_eq!(c.count_sensitivity(4), 6.0);
        assert_eq!(c.selection_noise_std(4), 3.0);
        // The single-table, one-hot case keeps the historical unit
        // sensitivity: nothing is scaled.
        let unit = AdaFestConfig::new(dp, 0.7, 1.0, 16);
        assert_eq!(unit.count_sensitivity(1), 1.0);
        assert_eq!(unit.selection_noise_std(1), 0.7);
        assert!(std::panic::catch_unwind(|| unit.with_max_lookups(0)).is_err());
    }

    #[test]
    fn realized_selection_noise_is_scaled_by_the_count_sensitivity() {
        // Multi-table + pooling > 1 accounting check: T = 3 tables and
        // max_lookups = 2 give Δ = 2√3, so table t's partition p must
        // be selected iff σ_select·Δ·n_{t,p} > τ on an empty batch
        // (all counts are 0). Recompute the mask from the raw draws and
        // check exactly the selected partitions moved.
        let (mut model, _) = setup();
        let before = model.tables.clone();
        let cfg = AdaFestConfig::new(DpConfig::paper_default(8), 0.7, 0.4, 8).with_max_lookups(2);
        let mut opt = AdaFestOptimizer::new(cfg, CounterNoise::new(11));
        opt.step(&mut model, &MiniBatch::default(), None);
        let delta = cfg.count_sensitivity(model.tables.len());
        assert_eq!(delta, 2.0 * 3f64.sqrt());
        let (mut any_selected, mut any_unselected) = (false, false);
        for (t, (table, before)) in model.tables.iter().zip(before.iter()).enumerate() {
            let spec = ShardSpec::new(cfg.partitions_for(table.rows()));
            let mut noise = CounterNoise::new(11);
            let mut draw = [0.0f32; 1];
            for p in 0..spec.shards() {
                noise.fill_unit_dense(SELECT_PARAM_BASE + t as u32, 1, p as u64, &mut draw);
                let expect = cfg.sigma_select * delta * f64::from(draw[0]) > cfg.threshold;
                let moved = (0..table.rows())
                    .filter(|&r| spec.shard_of(r as u64) == p)
                    .any(|r| table.row(r) != before.row(r));
                assert_eq!(
                    moved, expect,
                    "table {t} partition {p}: selection must use std = σ_select·Δ"
                );
                any_selected |= expect;
                any_unselected |= !expect;
            }
        }
        assert!(
            any_selected && any_unselected,
            "operating point must split partitions for the test to have teeth"
        );
    }

    #[test]
    fn step_enforces_the_per_example_lookup_bound() {
        let mut rng = Xoshiro256PlusPlus::seed_from(3);
        let mut model = Dlrm::new(DlrmConfig::tiny(2, 32, 8), &mut rng);
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 32, 16).with_pooling(3));
        let batch = ds.batch_of(&(0..8).collect::<Vec<_>>());
        let dp = DpConfig::paper_default(8);
        // The default bound is 1 lookup/table/example: a pooling-3
        // batch would undercut the accounted sensitivity, so it panics.
        let mut opt =
            AdaFestOptimizer::new(AdaFestConfig::new(dp, 1.0, 1.0, 8), CounterNoise::new(2));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            opt.step(&mut model, &batch, None);
        }));
        assert!(
            res.is_err(),
            "pooling 3 must violate the default bound of 1"
        );
        // With the bound raised the same batch trains.
        let mut opt = AdaFestOptimizer::new(
            AdaFestConfig::new(dp, 1.0, 1.0, 8).with_max_lookups(3),
            CounterNoise::new(2),
        );
        opt.step(&mut model, &batch, None);
    }

    #[test]
    fn rejects_bad_configs() {
        let dp = DpConfig::paper_default(8);
        assert!(std::panic::catch_unwind(|| AdaFestConfig::new(dp, 0.0, 1.0, 16)).is_err());
        assert!(std::panic::catch_unwind(|| AdaFestConfig::new(dp, 1.0, f64::NAN, 16)).is_err());
        assert!(std::panic::catch_unwind(|| AdaFestConfig::new(dp, 1.0, 1.0, 0)).is_err());
        let c = AdaFestConfig::new(dp, 1.0, 1.0, 16);
        assert_eq!(c.partitions_for(0), 1);
        assert_eq!(c.partitions_for(17), 2);
    }
}
