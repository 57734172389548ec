//! Deterministic synthetic Criteo-style dataset with a planted ground
//! truth.
//!
//! The paper trains on MLPerf DLRM inputs (Criteo-style: 13 dense
//! features + 26 categorical features) with embedding accesses drawn
//! from a configurable distribution (§6: uniform; Fig. 13(d): skewed).
//! Real Criteo data is not redistributable, so we *plant* a logistic
//! model: each sample's label is Bernoulli of a logit built from its
//! dense features and the hidden "preference" of its categorical rows.
//! Training on this data measurably reduces loss, which the end-to-end
//! tests use to show every optimizer actually learns.
//!
//! Samples are generated **statelessly**: sample `i` is a pure function
//! of `(seed, i)` via counter-based streams, so datasets of any length
//! cost O(1) memory and loaders can revisit samples in any order.

use crate::batch::MiniBatch;
use crate::trace::AccessDistribution;
use lazydp_embedding::bag::BagIndices;
use lazydp_rng::counter::CounterRng;
use lazydp_rng::{gaussian, Prng};

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Dense features per sample (13 for Criteo).
    pub num_dense: usize,
    /// Row-count of each embedding table (26 entries for Criteo).
    pub table_rows: Vec<u64>,
    /// Lookups per table per sample (MLPerf DLRM default: 1).
    pub pooling: usize,
    /// Number of samples in the dataset.
    pub num_samples: usize,
    /// Access distribution per table (must match `table_rows` length).
    pub distributions: Vec<AccessDistribution>,
    /// RNG seed; two datasets with the same config and seed are equal.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A small Criteo-like config with uniform accesses — the workhorse
    /// for functional tests.
    #[must_use]
    pub fn small(num_tables: usize, rows_per_table: u64, num_samples: usize) -> Self {
        let table_rows = vec![rows_per_table; num_tables];
        let distributions = table_rows
            .iter()
            .map(|&r| AccessDistribution::uniform(r))
            .collect();
        Self {
            num_dense: 13,
            table_rows,
            pooling: 1,
            num_samples,
            distributions,
            seed: 0x1a2b_3c4d,
        }
    }

    /// Replaces every table's distribution.
    #[must_use]
    pub fn with_distributions(mut self, distributions: Vec<AccessDistribution>) -> Self {
        assert_eq!(
            distributions.len(),
            self.table_rows.len(),
            "one distribution per table"
        );
        self.distributions = distributions;
        self
    }

    /// Sets the pooling factor (lookups per table per sample).
    #[must_use]
    pub fn with_pooling(mut self, pooling: usize) -> Self {
        assert!(pooling > 0, "pooling must be positive");
        self.pooling = pooling;
        self
    }
}

/// The generated dataset. See the module docs for the planted-model
/// construction.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    config: SyntheticConfig,
    /// Planted dense-feature weights (length `num_dense`).
    dense_weights: Vec<f32>,
    /// Planted per-table, per-row preference magnitude scale. Row
    /// effects are generated statelessly from the row id.
    effect_rng: CounterRng,
    sample_rng: CounterRng,
}

impl SyntheticDataset {
    /// Builds the dataset (O(`num_dense`) work; samples are lazy).
    ///
    /// # Panics
    ///
    /// Panics if the config is inconsistent (table/distribution counts
    /// differ or a distribution's row count disagrees).
    #[must_use]
    pub fn new(config: SyntheticConfig) -> Self {
        assert_eq!(
            config.table_rows.len(),
            config.distributions.len(),
            "one distribution per table"
        );
        for (t, d) in config.distributions.iter().enumerate() {
            assert_eq!(
                d.rows(),
                config.table_rows[t],
                "distribution rows mismatch for table {t}"
            );
        }
        let root = CounterRng::new(config.seed);
        let mut wrng = root.derive(1).stream(0);
        let mut dense_weights = vec![0.0f32; config.num_dense];
        gaussian::fill_standard_normal(&mut wrng, &mut dense_weights);
        for w in &mut dense_weights {
            *w *= 0.3;
        }
        Self {
            dense_weights,
            effect_rng: root.derive(2),
            sample_rng: root.derive(3),
            config,
        }
    }

    /// The dataset configuration.
    #[must_use]
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.config.num_samples
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.config.num_samples == 0
    }

    /// The planted effect of `(table, row)` on the logit.
    #[must_use]
    pub fn row_effect(&self, table: usize, row: u64) -> f32 {
        effect_at(self.effect_rng.derive(table as u64), row)
    }

    /// Generates sample `i`: `(dense, per-table indices, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> (Vec<f32>, Vec<Vec<u64>>, f32) {
        let mut dense = Vec::with_capacity(self.config.num_dense);
        let mut indices = self.index_buffers(self.config.pooling);
        let label = self.generate(i, &mut dense, &mut indices);
        (dense, indices, label)
    }

    /// Materializes the samples `ids` into a [`MiniBatch`]: each sample
    /// is generated straight into the batch's flat buffers.
    #[must_use]
    pub fn batch_of(&self, ids: &[usize]) -> MiniBatch {
        let pooling = self.config.pooling;
        let mut dense = Vec::with_capacity(ids.len() * self.config.num_dense);
        let mut labels = Vec::with_capacity(ids.len());
        let mut indices = self.index_buffers(ids.len() * pooling);
        for &i in ids {
            labels.push(self.generate(i, &mut dense, &mut indices));
        }
        MiniBatch {
            dense,
            num_dense: self.config.num_dense,
            sparse: indices
                .into_iter()
                .map(|flat| BagIndices::from_fixed_pooling(flat, pooling))
                .collect(),
            labels,
        }
    }

    /// One empty index buffer per table, each with room for `lookups`.
    fn index_buffers(&self, lookups: usize) -> Vec<Vec<u64>> {
        (0..self.config.table_rows.len())
            .map(|_| Vec::with_capacity(lookups))
            .collect()
    }

    /// Generates sample `i`, appending its dense features to `dense` and
    /// its `pooling` lookups of table `t` to `indices[t]`; returns its
    /// label. The one body behind [`sample`](Self::sample) and
    /// [`batch_of`](Self::batch_of).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    fn generate(&self, i: usize, dense: &mut Vec<f32>, indices: &mut [Vec<u64>]) -> f32 {
        assert!(i < self.len(), "sample {i} out of {}", self.len());
        let mut rng = self.sample_rng.derive(i as u64).stream(0);
        let start = dense.len();
        dense.resize(start + self.config.num_dense, 0.0);
        let features = &mut dense[start..];
        gaussian::fill_standard_normal(&mut rng, features);
        let mut logit: f64 = lazydp_tensor::vecops::dot(features, &self.dense_weights);
        let pooling = self.config.pooling;
        // Every lookup is drawn before any effect is computed: the draws
        // are independent, so their CDF reads overlap in the memory
        // system instead of waiting behind each row's effect.
        for (dist, rows) in self.config.distributions.iter().zip(indices.iter_mut()) {
            for _ in 0..pooling {
                rows.push(dist.sample(&mut rng));
            }
        }
        for (t, rows) in indices.iter().enumerate() {
            let effects = self.effect_rng.derive(t as u64);
            for &r in &rows[rows.len() - pooling..] {
                logit += f64::from(effect_at(effects, r)) / pooling as f64;
            }
        }
        let p = 1.0 / (1.0 + (-logit).exp());
        if rng.next_f64() < p {
            1.0
        } else {
            0.0
        }
    }
}

/// The planted effect of row `row` under its table's effect generator.
fn effect_at(effects: CounterRng, row: u64) -> f32 {
    let bits = effects.at(row);
    // Map to roughly N(0, 0.5²) via two uniforms (cheap CLT-free
    // approach: one Box-Muller draw).
    let mut stream = CounterRng::new(bits).stream(0);
    let (z, _) = gaussian::pair(stream.next_u64(), stream.next_u64());
    0.5 * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SkewLevel;

    #[test]
    fn samples_are_deterministic_and_distinct() {
        let ds = SyntheticDataset::new(SyntheticConfig::small(4, 100, 50));
        let a = ds.sample(7);
        let b = ds.sample(7);
        assert_eq!(a, b);
        let c = ds.sample(8);
        assert_ne!(a.0, c.0, "dense features differ across samples");
    }

    #[test]
    fn sample_shapes_respect_config() {
        let ds = SyntheticDataset::new(SyntheticConfig::small(3, 64, 10).with_pooling(5));
        let (dense, idxs, label) = ds.sample(0);
        assert_eq!(dense.len(), 13);
        assert_eq!(idxs.len(), 3);
        assert!(idxs.iter().all(|t| t.len() == 5));
        assert!(idxs.iter().flatten().all(|&r| r < 64));
        assert!(label == 0.0 || label == 1.0);
    }

    #[test]
    fn batch_of_is_consistent() {
        let ds = SyntheticDataset::new(SyntheticConfig::small(2, 32, 100));
        let b = ds.batch_of(&[0, 5, 99]);
        assert_eq!(b.batch_size(), 3);
        assert!(b.is_consistent());
        assert_eq!(b.num_tables(), 2);
        assert_eq!(b.total_lookups(), 6);
    }

    /// The oracle for `batch_of`: every sample through
    /// [`SyntheticDataset::sample`], each table's lists through
    /// [`BagIndices::from_samples`].
    fn batch_from_samples(ds: &SyntheticDataset, ids: &[usize]) -> MiniBatch {
        let mut batch = MiniBatch {
            num_dense: ds.config.num_dense,
            ..MiniBatch::default()
        };
        let mut per_table = vec![Vec::new(); ds.config.table_rows.len()];
        for &i in ids {
            let (dense, indices, label) = ds.sample(i);
            batch.dense.extend_from_slice(&dense);
            batch.labels.push(label);
            for (lists, rows) in per_table.iter_mut().zip(indices) {
                lists.push(rows);
            }
        }
        batch.sparse = per_table
            .iter()
            .map(|lists| BagIndices::from_samples(lists))
            .collect();
        batch
    }

    #[test]
    fn flat_assembly_equals_the_per_sample_path() {
        let mut rng = lazydp_rng::Xoshiro256PlusPlus::seed_from(11);
        for pooling in [1usize, 4] {
            let cfg = SyntheticConfig {
                table_rows: vec![64, 1_000, 4_097],
                distributions: vec![
                    AccessDistribution::uniform(64),
                    AccessDistribution::zipf(1_000, 1.1),
                    AccessDistribution::for_skew(4_097, SkewLevel::High),
                ],
                ..SyntheticConfig::small(3, 1, 500)
            };
            let ds = SyntheticDataset::new(cfg.with_pooling(pooling));
            for _ in 0..4 {
                let ids = lazydp_rng::poisson_sample(&mut rng, ds.len(), 0.05);
                let batch = ds.batch_of(&ids);
                assert_eq!(batch, batch_from_samples(&ds, &ids), "pooling {pooling}");
                assert!(batch.is_consistent());
            }
            assert_eq!(ds.batch_of(&[]), batch_from_samples(&ds, &[]));
        }
    }

    #[test]
    fn labels_correlate_with_planted_logit() {
        // The planted model must produce learnable labels: the empirical
        // click-rate conditioned on positive logit should exceed the
        // rate conditioned on negative logit by a wide margin.
        let ds = SyntheticDataset::new(SyntheticConfig::small(4, 50, 4000));
        let mut pos = (0u32, 0u32);
        let mut neg = (0u32, 0u32);
        for i in 0..ds.len() {
            let (dense, idxs, y) = ds.sample(i);
            let mut logit: f64 = dense
                .iter()
                .zip(ds.dense_weights.iter())
                .map(|(&x, &w)| f64::from(x) * f64::from(w))
                .sum();
            for (t, rows) in idxs.iter().enumerate() {
                for &r in rows {
                    logit += f64::from(ds.row_effect(t, r));
                }
            }
            let bucket = if logit > 0.0 { &mut pos } else { &mut neg };
            bucket.0 += 1;
            bucket.1 += y as u32;
        }
        let p_pos = f64::from(pos.1) / f64::from(pos.0);
        let p_neg = f64::from(neg.1) / f64::from(neg.0);
        assert!(
            p_pos > p_neg + 0.15,
            "labels not separable: p|+ = {p_pos:.3}, p|- = {p_neg:.3}"
        );
    }

    #[test]
    fn skewed_dataset_draws_skewed_indices() {
        let rows = 2_000u64;
        let cfg = SyntheticConfig::small(1, rows, 3000)
            .with_distributions(vec![AccessDistribution::for_skew(rows, SkewLevel::High)]);
        let ds = SyntheticDataset::new(cfg);
        let mut tracker = lazydp_embedding::AccessTracker::new(rows as usize);
        for i in 0..ds.len() {
            let (_, idxs, _) = ds.sample(i);
            tracker.record_all(&idxs[0]);
        }
        // High skew: 90% of accesses on ~0.6% of rows.
        let f = tracker.fraction_for_mass(0.9);
        assert!(f < 0.03, "fraction for 90% mass = {f}");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn sample_out_of_range_panics() {
        let ds = SyntheticDataset::new(SyntheticConfig::small(1, 10, 5));
        let _ = ds.sample(5);
    }
}
