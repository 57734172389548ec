//! DP-AdaFEST vs eager DP-SGD(F) vs LazyDP — functional noise-traffic
//! comparison across growing table sizes.
//!
//! The claim under test (Ghazi et al., "Sparsity-Preserving
//! Differentially Private Training", adapted here as the fourth
//! algorithm): with private partition selection, the per-step noise
//! traffic is `O(touched partitions)`, not `O(table rows)`. Eager
//! DP-SGD perturbs every row every step; LazyDP defers but must still
//! settle every row by the finalize flush; DP-AdaFEST *drops* the
//! unselected partitions and pays a slightly larger ε for the
//! selection release (the `SelectThenNoise` mechanism). On a skewed
//! trace the touched-partition count saturates while the table keeps
//! growing — so AdaFEST's flush bytes flatten where the other two
//! scale linearly.

use crate::table::Table;
use lazydp_core::{LazyDpConfig, LazyDpOptimizer};
use lazydp_data::{AccessDistribution, MiniBatch, SkewLevel, SyntheticConfig, SyntheticDataset};
use lazydp_dpsgd::{
    AdaFestConfig, AdaFestOptimizer, ClipStyle, DpConfig, EagerDpSgd, KernelCounters, Optimizer,
};
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_privacy::{Mechanism, RdpAccountant};
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;

const TABLES: usize = 2;
const DIM: usize = 16;
const BATCH: usize = 128;
const STEPS: usize = 8;
// Selection operating point: `ShardSpec` partitions rows by
// `row mod S`, so a Zipf-hot trace still spreads its unique rows
// across shards and a touched partition's count is often just 1.
// σ_select is relative to the count query's sensitivity (Δ = √2 for
// 2 one-hot tables), so the realized per-count noise std is
// σ_select·Δ ≈ 0.25: the threshold sits midway between 0 and 1 and
// touched partitions pass w.p. ≈ 97.5% while untouched ones pass
// w.p. ≈ 2.5% — a sharper (lower-ε) selection would need coarser
// partitions or multiplicity counts.
const SIGMA_SELECT: f64 = 0.18;
const SELECT_THRESHOLD: f64 = 0.5;
const PARTITION_ROWS: usize = 16;
const DELTA: f64 = 1e-6;

/// The table-size sweep: small enough to run in the `figures` smoke
/// path, large enough that the eager-vs-sparse scaling gap is ≥ 16×.
const SIZES: [u64; 3] = [256, 1024, 4096];

fn setup(rows: u64) -> (Dlrm, Vec<MiniBatch>) {
    let mut rng = Xoshiro256PlusPlus::seed_from(88);
    let model = Dlrm::new(DlrmConfig::tiny(TABLES, rows, DIM), &mut rng);
    let dists = (0..TABLES)
        .map(|_| AccessDistribution::for_skew(rows, SkewLevel::High))
        .collect();
    let cfg = SyntheticConfig::small(TABLES, rows, BATCH * (STEPS + 1)).with_distributions(dists);
    let ds = SyntheticDataset::new(cfg);
    let batches = (0..=STEPS)
        .map(|i| ds.batch_of(&(i * BATCH..(i + 1) * BATCH).collect::<Vec<_>>()))
        .collect();
    (model, batches)
}

fn dp() -> DpConfig {
    DpConfig::paper_default(BATCH)
}

/// Runs `STEPS` iterations of one algorithm (plus its finalize flush,
/// so LazyDP's deferred rows are settled and counted) and returns the
/// kernel counters.
fn run_algo(which: &str, rows: u64) -> KernelCounters {
    let (mut model, batches) = setup(rows);
    match which {
        "eager" => {
            let mut opt = EagerDpSgd::new(dp(), ClipStyle::Fast, CounterNoise::new(9));
            for b in batches.iter().take(STEPS) {
                opt.step(&mut model, b, None);
            }
            opt.counters()
        }
        "lazydp" => {
            let cfg = LazyDpConfig::new(dp(), true);
            let mut opt = LazyDpOptimizer::new(cfg, &model, CounterNoise::new(9));
            for i in 0..STEPS {
                opt.step(&mut model, &batches[i], Some(&batches[i + 1]));
            }
            opt.finalize_model(&mut model);
            opt.counters()
        }
        "adafest" => {
            let cfg = AdaFestConfig::new(dp(), SIGMA_SELECT, SELECT_THRESHOLD, PARTITION_ROWS);
            let mut opt = AdaFestOptimizer::new(cfg, CounterNoise::new(9));
            for b in batches.iter().take(STEPS) {
                opt.step(&mut model, b, None);
            }
            // `AdaFestOptimizer` implements `Optimizer<T>` for every
            // storage backend, so pin the default one for `counters`.
            <AdaFestOptimizer<CounterNoise> as Optimizer>::counters(&opt)
        }
        _ => unreachable!("unknown algorithm {which}"),
    }
}

fn epsilon_for(mech: &Mechanism) -> f64 {
    let q = BATCH as f64 / (BATCH * (STEPS + 1)) as f64;
    let mut acc = RdpAccountant::new();
    acc.compose_mechanism(mech, q, STEPS as u64);
    acc.epsilon(DELTA).0
}

/// The `adafest` experiment: noise traffic and ε per algorithm across
/// growing tables.
#[must_use]
pub fn adafest_traffic() -> Table {
    let mut t = Table::new(
        "adafest",
        "DP-AdaFEST — noise traffic vs table size (functional, Zipf-High trace, incl. finalize)",
        &[
            "rows/table",
            "algorithm",
            "Gaussian draws",
            "rows written",
            "noise bytes",
            &format!("ε ({STEPS} steps, δ=1e-6)"),
        ],
    )
    .with_note(
        "Eager DP-SGD(F) and LazyDP must perturb every table row (eagerly every step / \
         lazily by the finalize flush), so their noise traffic grows with table rows. \
         DP-AdaFEST privately selects the partitions the batch actually touched and \
         drops the rest, so its traffic tracks the (skew-capped) touched-partition \
         count and flattens as the table grows. The cost is ε: the selection release \
         composes with the gradient release (SelectThenNoise mechanism), and the sharp \
         σ_select this mod-S partitioning needs makes the gap large here — coarser \
         partitions or multiplicity counts would buy the same sparsity much cheaper.",
    );
    let sigma = dp().noise_multiplier;
    let mechs: [(&str, Mechanism); 3] = [
        ("eager DP-SGD(F)", Mechanism::Gaussian { sigma }),
        ("LazyDP", Mechanism::Gaussian { sigma }),
        (
            "DP-AdaFEST",
            Mechanism::SelectThenNoise {
                sigma,
                sigma_select: SIGMA_SELECT,
            },
        ),
    ];
    for rows in SIZES {
        for (label, mech) in &mechs {
            let which = match *label {
                "eager DP-SGD(F)" => "eager",
                "LazyDP" => "lazydp",
                _ => "adafest",
            };
            let c = run_algo(which, rows);
            t.push_row(vec![
                rows.to_string(),
                (*label).into(),
                c.gaussian_samples.to_string(),
                c.table_rows_written.to_string(),
                c.table_bytes_written(DIM).to_string(),
                format!("{:.2}", epsilon_for(mech)),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline acceptance claim: eager and LazyDP flush traffic
    /// grows with table rows; AdaFEST's tracks touched partitions and
    /// flattens on the skewed trace.
    #[test]
    fn adafest_flush_traffic_scales_with_touched_partitions_not_rows() {
        let small = SIZES[0];
        let large = SIZES[2];
        let grow = large as f64 / small as f64; // 16×

        let written = |which: &str, rows: u64| run_algo(which, rows).table_rows_written as f64;

        let eager_ratio = written("eager", large) / written("eager", small);
        let lazy_ratio = written("lazydp", large) / written("lazydp", small);
        let ada_ratio = written("adafest", large) / written("adafest", small);

        assert!(
            eager_ratio > 0.9 * grow,
            "eager rows written must grow with table rows: {eager_ratio:.1}× vs {grow}×"
        );
        assert!(
            lazy_ratio > 0.5 * grow,
            "LazyDP (incl. finalize flush) must grow with table rows: {lazy_ratio:.1}×"
        );
        // The touched-partition count itself creeps up with the table
        // (the Zipf hot set is a fixed *fraction* of rows), so the pin
        // is relative: AdaFEST must scale far slower than the dense
        // algorithms, not stay perfectly flat.
        assert!(
            ada_ratio < 0.4 * eager_ratio,
            "AdaFEST rows written must track touched partitions, not rows: \
             {ada_ratio:.1}× vs eager {eager_ratio:.1}×"
        );
        // Absolute gap at the largest table: sparse ≪ dense.
        let gap = written("eager", large) / written("adafest", large);
        assert!(gap > 4.0, "AdaFEST must write far fewer rows: {gap:.1}×");
    }

    /// The ε ordering the mechanism accounting implies: the selection
    /// release costs privacy, so AdaFEST's ε strictly exceeds the pure
    /// Gaussian ε at the same σ — and both are finite.
    #[test]
    fn adafest_epsilon_exceeds_gaussian_at_same_sigma() {
        let sigma = dp().noise_multiplier;
        let eps_gauss = epsilon_for(&Mechanism::Gaussian { sigma });
        let eps_ada = epsilon_for(&Mechanism::SelectThenNoise {
            sigma,
            sigma_select: SIGMA_SELECT,
        });
        assert!(eps_gauss.is_finite() && eps_ada.is_finite());
        assert!(
            eps_ada > eps_gauss,
            "selection must cost ε: {eps_ada} vs {eps_gauss}"
        );
    }

    #[test]
    fn adafest_table_renders_all_algorithms_per_size() {
        let t = adafest_traffic();
        assert_eq!(t.rows.len(), SIZES.len() * 3);
        for rows in SIZES {
            let label = rows.to_string();
            assert_eq!(t.rows.iter().filter(|r| r[0] == label).count(), 3);
        }
        assert!(t.markdown().contains("DP-AdaFEST"));
    }
}
