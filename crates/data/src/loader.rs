//! Batch sources: fixed-size (non-private) and Poisson-sampling (DP).

use crate::batch::MiniBatch;
use crate::dataset::SyntheticDataset;
use lazydp_rng::{poisson_sample, Xoshiro256PlusPlus};

/// A source of training mini-batches.
///
/// Both loader styles are infinite streams (training is measured in
/// iterations, not epochs, throughout the paper's evaluation).
pub trait BatchSource {
    /// Produces the next mini-batch.
    fn next_batch(&mut self) -> MiniBatch;
}

/// Sequential fixed-size loader used by the non-private SGD baseline:
/// deals deterministic, contiguous batches, wrapping around the dataset.
#[derive(Debug, Clone)]
pub struct FixedBatchLoader {
    dataset: SyntheticDataset,
    batch_size: usize,
    cursor: usize,
}

impl FixedBatchLoader {
    /// Creates a loader dealing `batch_size` samples per call.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`, the dataset is empty, or
    /// `batch_size` exceeds the dataset size — a batch would then hold
    /// some example twice, and a DP step would clip and sum each copy.
    #[must_use]
    pub fn new(dataset: SyntheticDataset, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!dataset.is_empty(), "dataset must be non-empty");
        assert!(
            batch_size <= dataset.len(),
            "batch size {batch_size} exceeds dataset size {}",
            dataset.len()
        );
        Self {
            dataset,
            batch_size,
            cursor: 0,
        }
    }
}

impl BatchSource for FixedBatchLoader {
    fn next_batch(&mut self) -> MiniBatch {
        let n = self.dataset.len();
        let ids: Vec<usize> = (0..self.batch_size)
            .map(|k| (self.cursor + k) % n)
            .collect();
        self.cursor = (self.cursor + self.batch_size) % n;
        self.dataset.batch_of(&ids)
    }
}

/// Poisson-sampling loader: each example enters the batch independently
/// with rate `q = batch_size / dataset_len` — the sampling scheme the
/// RDP accountant of `lazydp-privacy` assumes and the one Opacus'
/// `DPDataLoader` implements (paper Fig. 9(b)).
#[derive(Debug, Clone)]
pub struct PoissonLoader {
    dataset: SyntheticDataset,
    rate: f64,
    rng: Xoshiro256PlusPlus,
}

impl PoissonLoader {
    /// Creates a loader with sampling rate `batch_size / dataset.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`, the dataset is empty, or the rate
    /// exceeds 1.
    #[must_use]
    pub fn new(dataset: SyntheticDataset, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!dataset.is_empty(), "dataset must be non-empty");
        let rate = batch_size as f64 / dataset.len() as f64;
        assert!(rate <= 1.0, "batch size exceeds dataset size");
        Self {
            dataset,
            rate,
            rng: Xoshiro256PlusPlus::seed_from(seed),
        }
    }

    /// The per-example inclusion probability `q`.
    #[must_use]
    pub fn sampling_rate(&self) -> f64 {
        self.rate
    }
}

impl BatchSource for PoissonLoader {
    fn next_batch(&mut self) -> MiniBatch {
        let ids = poisson_sample(&mut self.rng, self.dataset.len(), self.rate);
        self.dataset.batch_of(&ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticConfig;

    fn dataset(n: usize) -> SyntheticDataset {
        SyntheticDataset::new(SyntheticConfig::small(2, 64, n))
    }

    #[test]
    fn fixed_loader_wraps_deterministically() {
        let mut l = FixedBatchLoader::new(dataset(10), 4);
        let b1 = l.next_batch();
        let b2 = l.next_batch();
        let b3 = l.next_batch(); // wraps: samples 8,9,0,1
        assert_eq!(b1.batch_size(), 4);
        assert_eq!(b2.batch_size(), 4);
        assert_eq!(b3.batch_size(), 4);
        let mut l2 = FixedBatchLoader::new(dataset(10), 4);
        assert_eq!(l2.next_batch(), b1, "deterministic restart");
    }

    #[test]
    fn poisson_loader_realized_sizes_vary_around_nominal() {
        let mut l = PoissonLoader::new(dataset(1000), 100, 7);
        assert!((l.sampling_rate() - 0.1).abs() < 1e-12);
        let sizes: Vec<usize> = (0..100).map(|_| l.next_batch().batch_size()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 100.0).abs() < 10.0, "mean realized size {mean}");
        assert!(sizes.iter().any(|&s| s != 100), "sizes must vary");
    }

    #[test]
    fn poisson_batches_are_consistent() {
        let mut l = PoissonLoader::new(dataset(200), 20, 3);
        for _ in 0..20 {
            let b = l.next_batch();
            assert!(b.is_consistent());
        }
    }

    #[test]
    #[should_panic(expected = "batch size 16 exceeds dataset size 10")]
    fn fixed_rejects_batch_larger_than_dataset() {
        // Dealing (cursor + k) % n would repeat examples 0..=5 in one
        // batch, doubling their clipped contribution.
        let _ = FixedBatchLoader::new(dataset(10), 16);
    }

    #[test]
    #[should_panic(expected = "batch size exceeds dataset")]
    fn poisson_rejects_oversized_batch() {
        let _ = PoissonLoader::new(dataset(10), 11, 0);
    }
}
