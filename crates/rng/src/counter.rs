//! Counter-based (stateless) random streams.
//!
//! LazyDP's correctness argument (paper §5.1, Fig. 7) is that delaying a
//! noise update does not change the value an embedding row has *when it is
//! next read*: the row must have received exactly the noise of iterations
//! `1..current` before the gather. To test this property **exactly**, the
//! eager DP-SGD baselines and the LazyDP optimizer must be able to draw
//! *the same* noise vector for the same `(table, row, iteration)` triple,
//! regardless of the order in which the two algorithms materialize it.
//!
//! A counter-based stream makes this trivial: the noise is a pure function
//! of `(seed, table, row, iteration, lane)`. [`CounterRng`] provides the
//! keyed mixing; [`RowNoise`] is the interface optimizers consume.

use crate::gaussian;
use crate::prng::{splitmix64_mix, Prng, SPLITMIX64_GAMMA};

/// Stateless keyed generator: `value(i) = mix(key ^ i·γ)`.
///
/// One round of the SplitMix64 finalizer over the keyed Weyl-spread
/// counter: exactly the output function SplitMix64 applies to its own
/// Weyl sequence, with the key XORed in. The Weyl spread already moves
/// adjacent counters far apart; the finalizer gives full avalanche from
/// there. The independence tests below check values and squares across
/// adjacent counters and across table, row and iteration keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Creates a keyed counter generator.
    #[must_use]
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    /// Derives a child key from a label, for domain separation
    /// (e.g. one sub-stream per embedding table).
    #[must_use]
    pub fn derive(&self, label: u64) -> Self {
        Self::new(self.at(label))
    }

    /// The value at counter position `i`. Pure: same `(key, i)` → same bits.
    #[must_use]
    pub fn at(&self, i: u64) -> u64 {
        self.at_weyl(i.wrapping_mul(SPLITMIX64_GAMMA))
    }

    /// The value at the counter position whose Weyl spread `i·γ` is
    /// `weyl`.
    fn at_weyl(&self, weyl: u64) -> u64 {
        splitmix64_mix(self.key ^ weyl)
    }

    /// A sequential [`Prng`] view starting at counter position `start`.
    #[must_use]
    pub fn stream(&self, start: u64) -> CounterStream {
        CounterStream {
            rng: *self,
            pos: start,
        }
    }
}

/// Sequential iterator view over a [`CounterRng`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterStream {
    rng: CounterRng,
    pos: u64,
}

impl Prng for CounterStream {
    fn next_u64(&mut self) -> u64 {
        let v = self.rng.at(self.pos);
        self.pos = self.pos.wrapping_add(1);
        v
    }
}

/// Values per stack block of the noise kernels: every kernel that applies
/// noise (the MLP's fused sweep, the table sweeps, LazyDP's flush) draws
/// through one `[f32; NOISE_BLOCK]` declared once per executor chunk,
/// seeking each block with [`RowNoise::fill_unit_at`]. Even, so every
/// block after the first starts on a Box–Muller pair boundary and seeks
/// with no half-pair step.
pub const NOISE_BLOCK: usize = 256;

/// Source of *standard-normal* noise addressed by `(table, row, iter)`.
///
/// DP optimizers scale the returned unit noise by `σ·C/B` themselves
/// (Algorithm 1, lines 34/38), so one source serves every algorithm.
///
/// A source is a pure function of `(seed, table, row, iter)`: the same
/// address yields the same values in any call order, from any clone.
/// That is what lets LazyDP and eager DP-SGD draw identical values in
/// different orders (Fig. 7's exact-equivalence claim, tested with
/// [`CounterNoise`]) and what lets the parallel kernels clone the source
/// per chunk and still produce the bits of the sequential sweep (hence
/// the `Clone + Send + Sync` supertraits).
///
/// The one required method is the seek, [`fill_unit_at`](Self::fill_unit_at);
/// every other fill is a window of it.
pub trait RowNoise: Clone + Send + Sync {
    /// Fills `out` with elements `start..start + out.len()` of the
    /// standard-normal sequence of embedding row `row` of table `table`
    /// attributed to training iteration `iter`: bitwise what a
    /// [`fill_unit`](Self::fill_unit) of that address leaves in
    /// `full[start..start + out.len()]`. This is the seek that lets a
    /// kernel draw any row through a fixed stack block, and disjoint
    /// chunks of one sequence draw independently.
    fn fill_unit_at(&mut self, table: u32, row: u64, iter: u64, start: u64, out: &mut [f32]);

    /// Fills `out` with standard-normal noise for embedding row `row` of
    /// table `table` attributed to training iteration `iter`, from the
    /// first element of its sequence.
    fn fill_unit(&mut self, table: u32, row: u64, iter: u64, out: &mut [f32]) {
        self.fill_unit_at(table, row, iter, 0, out);
    }

    /// Fills `out` with noise for a *dense* (non-embedding) parameter
    /// region `param` at iteration `iter`, from the sequence at address
    /// `index`.
    ///
    /// `index` is an address, not an element offset: each index is its
    /// own sequence starting at its first value (AdaFEST draws one value
    /// per partition this way). Elements `start..` of one sequence come
    /// from [`fill_unit_dense_at`](Self::fill_unit_dense_at).
    ///
    /// Dense regions reuse the row addressing under a reserved table id.
    fn fill_unit_dense(&mut self, param: u32, iter: u64, index: u64, out: &mut [f32]) {
        self.fill_unit_at(dense_table(param), index, iter, 0, out);
    }

    /// Fills `out` with elements `start..start + out.len()` of the
    /// `index = 0` sequence of [`fill_unit_dense`](Self::fill_unit_dense):
    /// bitwise what a `fill_unit_dense(param, iter, 0, full)` leaves in
    /// `full[start..start + out.len()]`.
    fn fill_unit_dense_at(&mut self, param: u32, iter: u64, start: u64, out: &mut [f32]) {
        self.fill_unit_at(dense_table(param), 0, iter, start, out);
    }
}

/// The reserved table id under which dense parameter region `param`
/// draws its noise.
fn dense_table(param: u32) -> u32 {
    u32::MAX - param
}

/// Counter-based [`RowNoise`]: noise is a pure function of
/// `(seed, table, row, iter)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterNoise {
    root: CounterRng,
}

impl CounterNoise {
    /// Creates a counter-based noise source from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            root: CounterRng::new(splitmix64_mix(seed ^ 0x6c62_272e_07bb_0142)),
        }
    }

    /// The deterministic sub-stream for one `(table, row, iter)` address.
    #[must_use]
    pub fn stream_for(&self, table: u32, row: u64, iter: u64) -> CounterStream {
        self.key_for(table, row, iter).stream(0)
    }

    fn key_for(&self, table: u32, row: u64, iter: u64) -> CounterRng {
        self.root.derive(u64::from(table)).derive(row).derive(iter)
    }
}

impl RowNoise for CounterNoise {
    /// Element `i` of a fill is draw `i` of its stream (draws `2j` and
    /// `2j + 1` feed output pair `j`), so the seek starts the stream at
    /// `start`; an odd `start` first takes the second half of the pair
    /// below it.
    fn fill_unit_at(&mut self, table: u32, row: u64, iter: u64, start: u64, out: &mut [f32]) {
        let key = self.key_for(table, row, iter);
        let out = if start % 2 == 1 {
            let Some((first, rest)) = out.split_first_mut() else {
                return;
            };
            let mut below = key.stream(start - 1);
            *first = gaussian::pair(below.next_u64(), below.next_u64()).1;
            rest
        } else {
            out
        };
        fill_pairs(key, start.next_multiple_of(2), out);
    }
}

/// The fused noise kernel: element `i` of `out` is element `first + i` of
/// `key`'s standard-normal sequence, for an even `first`. Output pair `i`
/// hashes its two counters `first + 2i` and `first + 2i + 1` and runs
/// [`gaussian::pair`] on them in one loop body, with no draw buffer in
/// between, so LLVM vectorizes hash and transform together across pairs.
/// Pair `i`'s Weyl spread `(first + 2i)·γ` is `first·γ + i·2γ` modulo
/// 2⁶⁴, computed from the index, so no state crosses iterations.
#[inline]
fn fill_pairs(key: CounterRng, first: u64, out: &mut [f32]) {
    const PAIR_STEP: u64 = SPLITMIX64_GAMMA.wrapping_mul(2);
    let base = first.wrapping_mul(SPLITMIX64_GAMMA);
    let pair_at = |i: usize| {
        let w = base.wrapping_add((i as u64).wrapping_mul(PAIR_STEP));
        gaussian::pair(
            key.at_weyl(w),
            key.at_weyl(w.wrapping_add(SPLITMIX64_GAMMA)),
        )
    };
    let tail_pair = out.len() / 2;
    let mut pairs = out.chunks_exact_mut(2);
    for (i, o) in (&mut pairs).enumerate() {
        (o[0], o[1]) = pair_at(i);
    }
    if let [last] = pairs.into_remainder() {
        *last = pair_at(tail_pair).0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn counter_is_pure_and_address_sensitive() {
        let rng = CounterRng::new(42);
        assert_eq!(rng.at(7), rng.at(7));
        assert_ne!(rng.at(7), rng.at(8));
        assert_ne!(CounterRng::new(1).at(0), CounterRng::new(2).at(0));
        assert_ne!(rng.derive(1).at(0), rng.derive(2).at(0));
    }

    #[test]
    fn counter_stream_matches_at() {
        let rng = CounterRng::new(9);
        let mut s = rng.stream(100);
        for i in 100..110 {
            assert_eq!(s.next_u64(), rng.at(i));
        }
    }

    #[test]
    fn counter_noise_identical_across_instances_and_call_order() {
        let mut a = CounterNoise::new(5);
        let mut b = CounterNoise::new(5);
        let mut va = vec![0.0f32; 16];
        let mut vb = vec![0.0f32; 16];
        // Different interleavings must not matter.
        a.fill_unit(0, 10, 3, &mut va);
        b.fill_unit(1, 99, 7, &mut vb); // unrelated draw first
        b.fill_unit(0, 10, 3, &mut vb);
        assert_eq!(va, vb);
    }

    #[test]
    fn counter_noise_distinguishes_all_address_parts() {
        let mut n = CounterNoise::new(5);
        let mut base = vec![0.0f32; 8];
        let mut other = vec![0.0f32; 8];
        n.fill_unit(0, 1, 1, &mut base);
        n.fill_unit(1, 1, 1, &mut other);
        assert_ne!(base, other);
        n.fill_unit(0, 2, 1, &mut other);
        assert_ne!(base, other);
        n.fill_unit(0, 1, 2, &mut other);
        assert_ne!(base, other);
    }

    #[test]
    fn counter_noise_is_standard_normal() {
        let mut n = CounterNoise::new(2024);
        let mut all = Vec::with_capacity(40_000);
        let mut buf = vec![0.0f32; 40];
        for row in 0..1000u64 {
            n.fill_unit(0, row, 1, &mut buf);
            all.extend(buf.iter().map(|&x| f64::from(x)));
        }
        let (mean, var) = stats::mean_var(&all);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
        let ks = stats::ks_statistic_normal(&mut all, 0.0, 1.0);
        assert!(ks < stats::ks_critical(all.len(), 0.001), "ks {ks}");
    }

    /// The staged oracle: elements `start..start + len` of the address's
    /// sequence drawn one pair at a time through its [`CounterStream`]
    /// and [`gaussian::fill_standard_normal`], which share only
    /// [`gaussian::pair`] and the hash with the fused kernel.
    fn staged(
        noise: &CounterNoise,
        table: u32,
        row: u64,
        iter: u64,
        start: usize,
        len: usize,
    ) -> Vec<u32> {
        let mut full = vec![0.0f32; start + len];
        gaussian::fill_standard_normal(&mut noise.stream_for(table, row, iter), &mut full);
        full[start..].iter().map(|x| x.to_bits()).collect()
    }

    fn fused(
        noise: &mut CounterNoise,
        table: u32,
        row: u64,
        iter: u64,
        start: usize,
        len: usize,
    ) -> Vec<u32> {
        let mut got = vec![0.0f32; len];
        noise.fill_unit_at(table, row, iter, start as u64, &mut got);
        got.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_fill_matches_the_staged_oracle() {
        // Starts on either side of a pair, a vector iteration (8 pairs)
        // and the kernels' NOISE_BLOCK; lengths that end in the scalar
        // remainder, the one-element tail or on a vector edge; at a dense
        // address and at a row address.
        let mut n = CounterNoise::new(11);
        let addresses = [("dense", dense_table(2), 0u64), ("row", 3, 41)];
        for (name, table, row) in addresses {
            for start in [0usize, 1, 2, 31, 32, 33, 255, 256, 257] {
                for len in [0usize, 1, 2, 3, 31, 32, 33, 63, 64, 65, 255, 256, 257] {
                    assert_eq!(
                        fused(&mut n, table, row, 7, start, len),
                        staged(&n, table, row, 7, start, len),
                        "{name} start {start} len {len}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn fused_fill_matches_the_staged_oracle_anywhere(
            seed in 0u64..u64::MAX,
            table in 0u32..u32::MAX,
            row in 0u64..u64::MAX,
            iter in 0u64..u64::MAX,
            start in 0usize..600,
            len in 0usize..600,
        ) {
            let mut n = CounterNoise::new(seed);
            proptest::prop_assert_eq!(
                fused(&mut n, table, row, iter, start, len),
                staged(&n, table, row, iter, start, len)
            );
        }
    }

    #[test]
    fn fused_fill_matches_at_across_the_wrap() {
        // Even starts, two of them close enough to `u64::MAX` that the
        // counters wrap inside the fill, at an even and an odd length:
        // pair `i` must read counters `start + 2i` and `start + 2i + 1`,
        // modulo 2⁶⁴.
        let key = CounterRng::new(9);
        for start in [0u64, 100, u64::MAX - 20, u64::MAX - 1] {
            for len in [40usize, 41] {
                let mut got = vec![0.0f32; len];
                fill_pairs(key, start, &mut got);
                for (i, g) in got.chunks(2).enumerate() {
                    let at = |k: u64| key.at(start.wrapping_add(2 * i as u64 + k));
                    let (z0, z1) = gaussian::pair(at(0), at(1));
                    let want = [z0.to_bits(), z1.to_bits()];
                    let g: Vec<u32> = g.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(g, want[..g.len()], "{start} pair {i}");
                }
            }
        }
    }

    /// Streaming Pearson correlation of pairs `(x, y)`.
    #[derive(Default)]
    struct Correlation {
        n: f64,
        sums: [f64; 5],
    }

    impl Correlation {
        fn add(&mut self, x: f64, y: f64) {
            self.n += 1.0;
            for (s, v) in self.sums.iter_mut().zip([x, y, x * x, y * y, x * y]) {
                *s += v;
            }
        }

        fn rho(&self) -> f64 {
            let [x, y, xx, yy, xy] = self.sums.map(|s| s / self.n);
            (xy - x * y) / ((xx - x * x) * (yy - y * y)).sqrt()
        }
    }

    /// Draws `draws` unit-noise values at each of four neighbour pairs
    /// of addresses and requires every correlation, of the values and
    /// of their squares, to be below `5/√draws` in magnitude: adjacent
    /// elements of a row, rows `r`/`r + 1`, iterations `t`/`t + 1` and
    /// tables 0/1, each pair at otherwise equal addresses.
    fn check_neighbour_independence(draws: usize) {
        const DIM: usize = 64;
        let mut noise = CounterNoise::new(2026);
        let names = [
            "adjacent elements",
            "rows r/r+1",
            "iterations t/t+1",
            "tables 0/1",
        ];
        let mut values: [Correlation; 4] = Default::default();
        let mut squares: [Correlation; 4] = Default::default();
        // Row `2m` of table 0 at iteration 1 (one lane longer, so the
        // adjacent-element pairs reach its last lane) against each
        // neighbour, lane by lane.
        let mut base = [0.0f32; DIM + 1];
        let mut other = [[0.0f32; DIM]; 3];
        for m in 0..(draws / DIM) as u64 {
            noise.fill_unit(0, 2 * m, 1, &mut base);
            noise.fill_unit(0, 2 * m + 1, 1, &mut other[0]);
            noise.fill_unit(0, 2 * m, 2, &mut other[1]);
            noise.fill_unit(1, 2 * m, 1, &mut other[2]);
            for k in 0..DIM {
                let x = f64::from(base[k]);
                let ys = [base[k + 1], other[0][k], other[1][k], other[2][k]].map(f64::from);
                for (c, y) in ys.into_iter().enumerate() {
                    values[c].add(x, y);
                    squares[c].add(x * x, y * y);
                }
            }
        }
        let bound = 5.0 / (draws as f64).sqrt();
        let failures: Vec<String> = (names.iter().enumerate())
            .flat_map(|(c, name)| {
                [("values", values[c].rho()), ("squares", squares[c].rho())]
                    .into_iter()
                    .filter(|(_, rho)| rho.abs() >= bound)
                    .map(move |(of, rho)| format!("{name}, {of}: ρ {rho}"))
            })
            .collect();
        assert!(failures.is_empty(), "|ρ| ≥ {bound}: {failures:#?}");
    }

    /// Every output bit of [`CounterRng::at`] over `draws` consecutive
    /// counters, at two keys, is set within `5σ` of half the time.
    fn check_bit_balance(draws: u64) {
        let bound = 5.0 * (draws as f64).sqrt() / 2.0;
        for key in [0, 0x5eed_1a2d] {
            let rng = CounterRng::new(key);
            let mut ones = [0u64; 64];
            for i in 0..draws {
                let v = rng.at(i);
                for (b, n) in ones.iter_mut().enumerate() {
                    *n += (v >> b) & 1;
                }
            }
            for (b, &n) in ones.iter().enumerate() {
                let off = (n as f64 - draws as f64 / 2.0).abs();
                assert!(off < bound, "key {key:#x} bit {b}: {n} of {draws} set");
            }
        }
    }

    #[test]
    fn neighbouring_addresses_are_uncorrelated() {
        check_neighbour_independence(1 << 20);
    }

    #[test]
    fn every_output_bit_is_balanced() {
        check_bit_balance(1 << 20);
    }

    /// The 2²⁴-draw variants: a 4× tighter bound. Run in release with
    /// `cargo test --release -p lazydp_rng -- --include-ignored`.
    #[test]
    #[ignore = "2²⁴ draws per check; run in release"]
    fn neighbouring_addresses_are_uncorrelated_at_2_pow_24() {
        check_neighbour_independence(1 << 24);
    }

    #[test]
    #[ignore = "2²⁴ draws per key; run in release"]
    fn every_output_bit_is_balanced_at_2_pow_24() {
        check_bit_balance(1 << 24);
    }

    #[test]
    fn dense_noise_does_not_collide_with_row_noise() {
        let mut n = CounterNoise::new(5);
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 8];
        n.fill_unit(0, 0, 1, &mut a);
        n.fill_unit_dense(0, 1, 0, &mut b);
        assert_ne!(a, b);
    }
}
