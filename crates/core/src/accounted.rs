//! [`AccountedOptimizer`]: the bridge between a training algorithm and
//! the privacy accountant.
//!
//! Until DP-AdaFEST the trainer could hard-code "one subsampled Gaussian
//! query at `σ` per step" — every algorithm released the same mechanism
//! shape. AdaFEST releases a *composed* mechanism (a noisy partition
//! selection plus noise on the selected partitions), so the trainer now
//! asks the optimizer what it releases per step and charges
//! `RdpAccountant::compose_mechanism` accordingly.

use crate::optimizer::LazyDpOptimizer;
use lazydp_dpsgd::{AdaFestOptimizer, EagerDpSgd, Optimizer};
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_privacy::Mechanism;
use lazydp_rng::RowNoise;

/// An [`Optimizer`] that knows the per-step privacy mechanism it
/// releases, so [`PrivateTrainer`](crate::PrivateTrainer) can charge
/// the accountant correctly for any algorithm.
///
/// EANA is deliberately not one: its guarantee is data-dependent —
/// untouched rows never receive noise (§7.4) — which no (σ, q, T)
/// triple captures, so any ε an accountant printed for it would not
/// bound its release. The trait bound rejects it at compile time:
///
/// ```compile_fail
/// use lazydp_core::AccountedOptimizer;
/// use lazydp_dpsgd::{DpConfig, EanaOptimizer};
/// use lazydp_rng::counter::CounterNoise;
///
/// fn charged<O: AccountedOptimizer>(_: &O) {}
/// charged(&EanaOptimizer::new(DpConfig::new(1.3, 1.0, 0.05, 16), CounterNoise::new(1)));
/// ```
///
/// while the same call on eager DP-SGD compiles:
///
/// ```
/// use lazydp_core::AccountedOptimizer;
/// use lazydp_dpsgd::{ClipStyle, DpConfig, EagerDpSgd};
/// use lazydp_rng::counter::CounterNoise;
///
/// fn charged<O: AccountedOptimizer>(_: &O) {}
/// let dp = DpConfig::new(1.3, 1.0, 0.05, 16);
/// charged(&EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(1)));
/// ```
pub trait AccountedOptimizer<T: EmbeddingStorage = EmbeddingTable>: Optimizer<T> {
    /// The mechanism one call to [`Optimizer::step`] releases.
    fn mechanism(&self) -> Mechanism;
}

impl<N: RowNoise, T: EmbeddingStorage> AccountedOptimizer<T> for LazyDpOptimizer<N> {
    fn mechanism(&self) -> Mechanism {
        // Lazy timing defers *when* noise lands, never *what* is
        // released: plain subsampled Gaussian accounting (paper §5).
        Mechanism::Gaussian {
            sigma: self.config().dp.noise_multiplier,
        }
    }
}

impl<N: RowNoise, T: EmbeddingStorage> AccountedOptimizer<T> for EagerDpSgd<N, T> {
    fn mechanism(&self) -> Mechanism {
        Mechanism::Gaussian {
            sigma: self.config().noise_multiplier,
        }
    }
}

impl<N: RowNoise, T: EmbeddingStorage> AccountedOptimizer<T> for AdaFestOptimizer<N> {
    fn mechanism(&self) -> Mechanism {
        // `SelectThenNoise` treats `sigma_select` as the multiplier
        // relative to the count query's ℓ₂ sensitivity. The optimizer
        // upholds that normalization itself: the noise it actually adds
        // to each partition count is `sigma_select · Δ` with
        // `Δ = max_lookups · √(num_tables)`
        // (`AdaFestConfig::selection_noise_std`), and it panics on any
        // batch whose per-example lookups exceed `max_lookups` — so
        // forwarding the raw multiplier here is exact, never an
        // undercharge.
        let cfg = self.config();
        Mechanism::SelectThenNoise {
            sigma: cfg.dp.noise_multiplier,
            sigma_select: cfg.sigma_select,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::LazyDpConfig;
    use lazydp_dpsgd::{AdaFestConfig, ClipStyle, DpConfig};
    use lazydp_model::{Dlrm, DlrmConfig};
    use lazydp_rng::counter::CounterNoise;
    use lazydp_rng::Xoshiro256PlusPlus;

    #[test]
    fn every_algorithm_reports_its_mechanism() {
        let mut rng = Xoshiro256PlusPlus::seed_from(2);
        let model = Dlrm::new(DlrmConfig::tiny(2, 32, 8), &mut rng);
        let dp = DpConfig::new(1.3, 1.0, 0.05, 16);

        let lazy = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, CounterNoise::new(1));
        assert_eq!(
            AccountedOptimizer::<EmbeddingTable>::mechanism(&lazy),
            Mechanism::Gaussian { sigma: 1.3 }
        );

        let eager = EagerDpSgd::new(dp, ClipStyle::Fast, CounterNoise::new(1));
        assert_eq!(eager.mechanism(), Mechanism::Gaussian { sigma: 1.3 });

        let ada = AdaFestOptimizer::new(AdaFestConfig::new(dp, 2.0, 1.0, 16), CounterNoise::new(1));
        assert_eq!(
            AccountedOptimizer::<EmbeddingTable>::mechanism(&ada),
            Mechanism::SelectThenNoise {
                sigma: 1.3,
                sigma_select: 2.0
            }
        );
        // The lookup bound scales the *realized* count noise, not the
        // accounted multiplier: σ_select is already relative to the
        // sensitivity, so the mechanism must not change with it.
        let pooled = AdaFestOptimizer::new(
            AdaFestConfig::new(dp, 2.0, 1.0, 16).with_max_lookups(5),
            CounterNoise::new(1),
        );
        assert_eq!(
            AccountedOptimizer::<EmbeddingTable>::mechanism(&pooled),
            Mechanism::SelectThenNoise {
                sigma: 1.3,
                sigma_select: 2.0
            }
        );
    }
}
