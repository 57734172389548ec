//! Embedding access-trace distributions and skew calibration.
//!
//! Fig. 13(d) of the paper defines dataset skew by the fraction of table
//! entries that receives 90% of the accesses: 36% (low), 10% (medium),
//! 0.6% (high). We reproduce those workloads with Zipf-distributed row
//! draws whose exponent is numerically calibrated to hit exactly those
//! targets for a given table size.

use lazydp_rng::Prng;

/// The paper's three skew presets plus the uniform default (§6 uses a
/// uniform trace for the main results).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkewLevel {
    /// Uniform accesses ("Random" in Fig. 13(d)).
    Random,
    /// 90% of accesses on 36% of entries.
    Low,
    /// 90% of accesses on 10% of entries.
    Medium,
    /// 90% of accesses on 0.6% of entries.
    High,
}

impl SkewLevel {
    /// `(top_fraction, mass)` target: the top `top_fraction` of rows
    /// receives `mass` of all accesses.
    #[must_use]
    pub fn target(&self) -> Option<(f64, f64)> {
        match self {
            Self::Random => None,
            Self::Low => Some((0.36, 0.9)),
            Self::Medium => Some((0.10, 0.9)),
            Self::High => Some((0.006, 0.9)),
        }
    }

    /// All four presets, in the order Fig. 13(d) plots them.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [Self::Random, Self::Low, Self::Medium, Self::High]
    }

    /// Display label matching the figure.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Random => "Random",
            Self::Low => "Low",
            Self::Medium => "Medium",
            Self::High => "High",
        }
    }
}

/// A sampling distribution over the rows `0..rows` of one table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessDistribution {
    /// Every row equally likely.
    Uniform {
        /// Number of rows.
        rows: u64,
    },
    /// Zipf: row of *rank* `r` (0-based) has weight `(r+1)^-s`. Ranks are
    /// identity-mapped to row ids (row 0 is the hottest), which is
    /// equivalent to any fixed permutation for every statistic the paper
    /// measures.
    ///
    /// A draw is the inverse CDF of a uniform `u`: the first row with
    /// `cdf[row] >= u`, found through `guide`. The guide splits `[0, 1]`
    /// into `G = guide.len() − 1` buckets, one per 4 rows; with
    /// `key(x) = ⌊x·G⌋` computed in `f64`, `guide[b]` is the first row
    /// with `key(cdf[row]) >= b`. Rounding is monotone, so every row
    /// below `guide[key(u)]` has `cdf < u`, and for `key(u) < G` row
    /// `guide[key(u) + 1]` has `cdf >= u`. A draw therefore searches
    /// only that bracket, and returns exactly what a search of the
    /// whole CDF would.
    Zipf {
        /// Number of rows.
        rows: u64,
        /// Zipf exponent `s > 0`.
        exponent: f64,
        /// Cumulative weights for inverse-CDF sampling; the last is 1.
        cdf: Vec<f64>,
        /// First row of each CDF bucket (see above), `G + 1` entries.
        guide: Vec<u32>,
    },
}

/// Rows per bucket of a Zipf distribution's guide table.
const ROWS_PER_GUIDE: u64 = 4;

/// The guide bucket of a CDF value `x` among `buckets`: `⌊x·buckets⌋`.
fn guide_key(x: f64, buckets: usize) -> usize {
    // `as` floors a non-negative value (and saturates).
    (x * buckets as f64) as usize
}

/// The first index `i` with `cdf[i] >= u` (`cdf.len()` if none), found
/// in the bracket `guide` gives for `u`: equal to
/// `cdf.partition_point(|&c| c < u)` for every `u`. The answer lies in
/// `guide[b]..=guide[b + 1]`, so only `cdf[guide[b]..guide[b + 1]]` is
/// searched; a one-row bracket reads no CDF at all.
fn guided_partition_point(cdf: &[f64], guide: &[u32], u: f64) -> usize {
    let buckets = guide.len() - 1;
    let b = guide_key(u, buckets);
    let (lo, hi) = if b < buckets {
        (guide[b] as usize, guide[b + 1] as usize)
    } else {
        // `u` is 1 or within rounding of it: search to the end.
        (guide[buckets] as usize, cdf.len())
    };
    lo + cdf[lo..hi].partition_point(|&c| c < u)
}

impl AccessDistribution {
    /// Uniform over `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn uniform(rows: u64) -> Self {
        assert!(rows > 0, "distribution needs at least one row");
        Self::Uniform { rows }
    }

    /// Zipf with the given exponent over `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`, `exponent <= 0`, or `rows` exceeds
    /// 100 million (the CDF table would not fit; use the analytic
    /// helpers for paper-scale tables).
    #[must_use]
    pub fn zipf(rows: u64, exponent: f64) -> Self {
        assert!(rows > 0, "distribution needs at least one row");
        assert!(exponent > 0.0, "zipf exponent must be positive");
        assert!(
            rows <= 100_000_000,
            "zipf CDF too large; use analytic helpers"
        );
        let mut cdf = Vec::with_capacity(rows as usize);
        let mut acc = 0.0f64;
        for r in 0..rows {
            acc += ((r + 1) as f64).powf(-exponent);
            cdf.push(acc);
        }
        let total = acc;
        let buckets = rows.div_ceil(ROWS_PER_GUIDE) as usize;
        let mut guide = Vec::with_capacity(buckets + 1);
        for (row, c) in cdf.iter_mut().enumerate() {
            *c /= total;
            let key = guide_key(*c, buckets).min(buckets);
            while guide.len() <= key {
                guide.push(row as u32);
            }
        }
        // `cdf[rows − 1] = total / total = 1` has key `buckets`, so every
        // entry is set; the fill only guards the invariant's shape.
        guide.resize(buckets + 1, rows as u32);
        Self::Zipf {
            rows,
            exponent,
            cdf,
            guide,
        }
    }

    /// Builds the distribution for a [`SkewLevel`], calibrating the Zipf
    /// exponent so the skew target holds for this table size.
    #[must_use]
    pub fn for_skew(rows: u64, skew: SkewLevel) -> Self {
        match skew.target() {
            None => Self::uniform(rows),
            Some((fraction, mass)) => {
                let s = zipf_exponent_for_skew(rows, fraction, mass);
                Self::zipf(rows, s)
            }
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> u64 {
        match self {
            Self::Uniform { rows } | Self::Zipf { rows, .. } => *rows,
        }
    }

    /// Draws one row id.
    pub fn sample<R: Prng>(&self, rng: &mut R) -> u64 {
        match self {
            Self::Uniform { rows } => rng.next_below(*rows),
            Self::Zipf { cdf, guide, .. } => {
                guided_partition_point(cdf, guide, rng.next_f64()) as u64
            }
        }
    }

    /// Draws `n` row ids.
    pub fn sample_many<R: Prng>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Probability of drawing row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn probability(&self, r: u64) -> f64 {
        assert!(r < self.rows(), "row out of range");
        match self {
            Self::Uniform { rows } => 1.0 / *rows as f64,
            Self::Zipf { cdf, .. } => {
                let i = r as usize;
                if i == 0 {
                    cdf[0]
                } else {
                    cdf[i] - cdf[i - 1]
                }
            }
        }
    }
}

/// Expected distinct rows for `draws` uniform draws over `rows` rows.
///
/// The expected number of *distinct* rows hit by `draws` independent
/// draws, `Σ_r (1 − (1 − p_r)^draws)`, drives LazyDP's cost (paper §5.1:
/// the number of lazy noise updates is set by the unique rows of the
/// *next* batch, not the table size) and feeds `lazydp-sysmodel`.
#[must_use]
pub fn expected_unique_uniform(rows: u64, draws: u64) -> f64 {
    let e = rows as f64;
    let k = draws as f64;
    // E · (1 − (1 − 1/E)^k), computed stably via ln1p.
    e * (1.0 - (k * (-1.0 / e).ln_1p()).exp())
}

/// Analytic (log-bucketed) expected distinct rows for Zipf draws —
/// accurate to a few percent even for paper-scale tables (40M rows) where
/// materializing per-row probabilities is impractical.
#[must_use]
pub fn expected_unique_zipf(rows: u64, exponent: f64, draws: u64) -> f64 {
    let k = draws as f64;
    // Normalization: H(rows, s) via exact head + integral tail.
    let h = generalized_harmonic(rows, exponent);
    let mut total = 0.0f64;
    // Exact head ranks (hot rows dominate the statistic).
    let head = rows.min(4096);
    for r in 0..head {
        let p = ((r + 1) as f64).powf(-exponent) / h;
        total += 1.0 - (k * (-p).ln_1p()).exp();
    }
    // Geometric buckets for the tail.
    let mut lo = head;
    while lo < rows {
        let hi = (lo * 2).min(rows);
        let mid = (lo + hi) as f64 / 2.0;
        let p = mid.powf(-exponent) / h;
        let count = (hi - lo) as f64;
        total += count * (1.0 - (k * (-p).ln_1p()).exp());
        lo = hi;
    }
    total
}

/// Generalized harmonic number `H(n, s) = Σ_{r=1..n} r^-s`, computed with
/// an exact head and Euler–Maclaurin integral tail for large `n`.
#[must_use]
pub fn generalized_harmonic(n: u64, s: f64) -> f64 {
    let head = n.min(100_000);
    let mut h = 0.0f64;
    for r in 1..=head {
        h += (r as f64).powf(-s);
    }
    if n > head {
        let a = head as f64;
        let b = n as f64;
        if (s - 1.0).abs() < 1e-12 {
            h += (b / a).ln();
        } else {
            h += (b.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s);
        }
    }
    h
}

/// Mass of the top `fraction` of ranks under Zipf(`exponent`) over
/// `rows` rows.
#[must_use]
pub fn zipf_top_fraction_mass(rows: u64, exponent: f64, fraction: f64) -> f64 {
    let k = ((rows as f64) * fraction).round().max(1.0) as u64;
    generalized_harmonic(k, exponent) / generalized_harmonic(rows, exponent)
}

/// Finds the Zipf exponent such that the top `fraction` of rows carries
/// `mass` of the access probability (binary search; the mass is
/// monotonically increasing in the exponent).
///
/// # Panics
///
/// Panics if `fraction` or `mass` is outside `(0, 1)`.
#[must_use]
pub fn zipf_exponent_for_skew(rows: u64, fraction: f64, mass: f64) -> f64 {
    assert!(
        fraction > 0.0 && fraction < 1.0,
        "fraction must be in (0,1)"
    );
    assert!(mass > 0.0 && mass < 1.0, "mass must be in (0,1)");
    let mut lo = 1e-3f64;
    let mut hi = 8.0f64;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if zipf_top_fraction_mass(rows, mid, fraction) < mass {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_embedding::AccessTracker;
    use lazydp_rng::Xoshiro256PlusPlus;

    #[test]
    fn uniform_sampling_is_uniform() {
        let d = AccessDistribution::uniform(50);
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        let mut tracker = AccessTracker::new(50);
        tracker.record_all(&d.sample_many(&mut rng, 100_000));
        for &c in tracker.counts() {
            assert!((1_500..2_500).contains(&(c as usize)), "count {c}");
        }
    }

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let d = AccessDistribution::zipf(100, 1.2);
        let mut sum = 0.0;
        let mut prev = f64::INFINITY;
        for r in 0..100 {
            let p = d.probability(r);
            assert!(p <= prev + 1e-15, "monotone non-increasing");
            prev = p;
            sum += p;
        }
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_matches_probabilities() {
        let d = AccessDistribution::zipf(20, 1.0);
        let mut rng = Xoshiro256PlusPlus::seed_from(2);
        let n = 200_000;
        let mut counts = [0u64; 20];
        for _ in 0..n {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for r in 0..20 {
            let expect = d.probability(r) * n as f64;
            let got = counts[r as usize] as f64;
            assert!(
                (got - expect).abs() < 5.0 * expect.sqrt() + 5.0,
                "row {r}: got {got}, expect {expect}"
            );
        }
    }

    /// The CDF and guide of a Zipf distribution.
    fn cdf_and_guide(d: &AccessDistribution) -> (&[f64], &[u32]) {
        match d {
            AccessDistribution::Zipf { cdf, guide, .. } => (cdf, guide),
            AccessDistribution::Uniform { .. } => unreachable!("a Zipf distribution"),
        }
    }

    /// Every Zipf shape the guided-draw tests cover.
    fn guided_cases() -> &'static [AccessDistribution] {
        static CASES: std::sync::OnceLock<Vec<AccessDistribution>> = std::sync::OnceLock::new();
        CASES.get_or_init(|| {
            let mut cases = Vec::new();
            for rows in [1u64, 2, 3, 5, 4_097, 131_072] {
                for exponent in [0.5, 0.9, 1.2] {
                    cases.push(AccessDistribution::zipf(rows, exponent));
                }
            }
            cases
        })
    }

    fn assert_guided_draw_is_full_search(d: &AccessDistribution, u: f64) {
        let (cdf, guide) = cdf_and_guide(d);
        assert_eq!(
            guided_partition_point(cdf, guide, u),
            cdf.partition_point(|&c| c < u),
            "rows {}, u {u:e}",
            d.rows()
        );
    }

    #[test]
    fn guided_draw_equals_the_full_search_at_every_edge() {
        for d in guided_cases() {
            let (cdf, guide) = cdf_and_guide(d);
            let buckets = guide.len() - 1;
            assert_eq!(buckets as u64, d.rows().div_ceil(ROWS_PER_GUIDE));
            assert_eq!(cdf.last(), Some(&1.0));
            let mut us = vec![0.0];
            us.extend((0..=buckets).map(|b| b as f64 / buckets as f64));
            for &c in cdf {
                us.extend([c.next_down(), c, c.next_up()]);
            }
            for u in us {
                assert_guided_draw_is_full_search(d, u);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn guided_draw_equals_the_full_search_for_any_u(
            case in 0usize..18,
            u in 0.0f64..1.0,
        ) {
            assert_guided_draw_is_full_search(&guided_cases()[case], u);
        }
    }

    #[test]
    fn skew_calibration_hits_paper_targets() {
        // The paper's definition: 90% of accesses on 36%/10%/0.6% of rows.
        let rows = 100_000u64;
        for skew in [SkewLevel::Low, SkewLevel::Medium, SkewLevel::High] {
            let (fraction, mass) = skew.target().expect("non-random");
            let s = zipf_exponent_for_skew(rows, fraction, mass);
            let achieved = zipf_top_fraction_mass(rows, s, fraction);
            assert!(
                (achieved - mass).abs() < 0.01,
                "{skew:?}: exponent {s} gives mass {achieved}"
            );
        }
    }

    #[test]
    fn empirical_skew_matches_calibration() {
        let rows = 5_000u64;
        let d = AccessDistribution::for_skew(rows, SkewLevel::Medium);
        let mut rng = Xoshiro256PlusPlus::seed_from(3);
        let mut tracker = AccessTracker::new(rows as usize);
        tracker.record_all(&d.sample_many(&mut rng, 300_000));
        let mass = tracker.mass_of_top_fraction(0.10);
        assert!((mass - 0.9).abs() < 0.02, "empirical mass {mass}");
    }

    #[test]
    fn expected_unique_uniform_limits() {
        // k << E: virtually no collisions → E[unique] ≈ k.
        let e = expected_unique_uniform(1_000_000, 100);
        assert!((e - 100.0).abs() < 0.01, "{e}");
        // k >> E: all rows touched → E[unique] ≈ E.
        let e = expected_unique_uniform(100, 100_000);
        assert!((e - 100.0).abs() < 1e-6, "{e}");
    }

    #[test]
    fn expected_unique_uniform_matches_simulation() {
        let rows = 1_000u64;
        let draws = 800u64;
        let analytic = expected_unique_uniform(rows, draws);
        let d = AccessDistribution::uniform(rows);
        let mut rng = Xoshiro256PlusPlus::seed_from(4);
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let s = d.sample_many(&mut rng, draws as usize);
            let set: std::collections::HashSet<u64> = s.into_iter().collect();
            total += set.len();
        }
        let sim = total as f64 / trials as f64;
        assert!(
            (sim - analytic).abs() < 5.0,
            "sim {sim} analytic {analytic}"
        );
    }

    #[test]
    fn expected_unique_zipf_matches_simulation() {
        let rows = 10_000u64;
        let s = 1.1;
        let draws = 2_000u64;
        let analytic = expected_unique_zipf(rows, s, draws);
        let d = AccessDistribution::zipf(rows, s);
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let mut total = 0usize;
        let trials = 50;
        for _ in 0..trials {
            let sample = d.sample_many(&mut rng, draws as usize);
            let set: std::collections::HashSet<u64> = sample.into_iter().collect();
            total += set.len();
        }
        let sim = total as f64 / trials as f64;
        let rel = (sim - analytic).abs() / sim;
        assert!(rel < 0.05, "sim {sim} analytic {analytic} rel {rel}");
    }

    #[test]
    fn higher_skew_means_fewer_unique_rows() {
        let rows = 100_000u64;
        let draws = 4_096u64;
        let mut prev = f64::INFINITY;
        for skew in SkewLevel::all() {
            let u = match skew.target() {
                None => expected_unique_uniform(rows, draws),
                Some((fraction, mass)) => {
                    expected_unique_zipf(rows, zipf_exponent_for_skew(rows, fraction, mass), draws)
                }
            };
            assert!(u < prev, "{skew:?}: {u} !< {prev}");
            prev = u;
        }
    }

    #[test]
    fn generalized_harmonic_known_values() {
        assert!((generalized_harmonic(1, 1.0) - 1.0).abs() < 1e-12);
        assert!((generalized_harmonic(4, 1.0) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        // H(n,2) → π²/6 as n → ∞.
        let h = generalized_harmonic(10_000_000, 2.0);
        assert!((h - std::f64::consts::PI.powi(2) / 6.0).abs() < 1e-4, "{h}");
    }

    #[test]
    fn analytic_tail_matches_exact_sum() {
        // Cross 100k boundary: exact head + integral tail vs brute force.
        let n = 300_000u64;
        let s = 1.3;
        let exact: f64 = (1..=n).map(|r| (r as f64).powf(-s)).sum();
        let fast = generalized_harmonic(n, s);
        assert!(
            (exact - fast).abs() / exact < 1e-4,
            "exact {exact} fast {fast}"
        );
    }
}
