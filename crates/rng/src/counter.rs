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

/// Stateless keyed generator: `value(i) = mix(key, i)`.
///
/// Built from two rounds of the SplitMix64 finalizer over a Weyl-spread
/// counter, which gives full avalanche between nearby counters.
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
        Self {
            key: splitmix64_mix(self.key ^ label.wrapping_mul(SPLITMIX64_GAMMA)),
        }
    }

    /// The value at counter position `i`. Pure: same `(key, i)` → same bits.
    #[must_use]
    pub fn at(&self, i: u64) -> u64 {
        self.at_weyl(i.wrapping_mul(SPLITMIX64_GAMMA))
    }

    /// The value at the counter position whose Weyl spread `i·γ` is
    /// `weyl`.
    fn at_weyl(&self, weyl: u64) -> u64 {
        splitmix64_mix(splitmix64_mix(self.key ^ weyl).wrapping_add(SPLITMIX64_GAMMA))
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

    /// Each slot is an independent `at(pos + i)`, so the hash runs
    /// lane-wise over the whole block (the Gaussian fills' 32-draw
    /// blocks). The Weyl spread steps by γ instead of multiplying per
    /// slot: `(pos + i)·γ` and `pos·γ + i·γ` wrap to the same bits.
    fn fill_u64(&mut self, out: &mut [u64]) {
        let mut weyl = self.pos.wrapping_mul(SPLITMIX64_GAMMA);
        for slot in out.iter_mut() {
            *slot = self.rng.at_weyl(weyl);
            weyl = weyl.wrapping_add(SPLITMIX64_GAMMA);
        }
        self.pos = self.pos.wrapping_add(out.len() as u64);
    }
}

/// Values per stack block of the noise kernels: every kernel that applies
/// noise (the MLP's fused sweep, the table sweeps, LazyDP's flush) draws
/// through one `[f32; NOISE_BLOCK]` declared once per executor chunk,
/// seeking each block with [`RowNoise::fill_unit_at`]. A multiple of the
/// Gaussian fill's 32-draw block, so every block after the first starts
/// on a pair boundary.
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
        gaussian::fill_standard_normal(&mut key.stream(start.next_multiple_of(2)), out);
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
    fn counter_stream_fill_matches_at_across_the_wrap() {
        let rng = CounterRng::new(9);
        for start in [0u64, 100, u64::MAX - 20] {
            let mut s = rng.stream(start);
            let mut block = [0u64; 40];
            s.fill_u64(&mut block);
            for (i, &v) in block.iter().enumerate() {
                assert_eq!(v, rng.at(start.wrapping_add(i as u64)), "{start} + {i}");
            }
            assert_eq!(s.next_u64(), rng.at(start.wrapping_add(40)));
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

    #[test]
    fn dense_seek_matches_the_full_fill_at_block_boundaries() {
        // 32 draws make one block of the Gaussian fill and NOISE_BLOCK
        // values one stack block of the noise kernels: seeks that start
        // or end on either side of either edge, at odd and even starts,
        // at a dense address and at a row address.
        type Full = fn(&mut CounterNoise, &mut [f32]);
        type Seek = fn(&mut CounterNoise, u64, &mut [f32]);
        let addresses: [(&str, Full, Seek); 2] = [
            (
                "dense",
                |n, out| n.fill_unit_dense(2, 7, 0, out),
                |n, start, out| n.fill_unit_dense_at(2, 7, start, out),
            ),
            (
                "row",
                |n, out| n.fill_unit(3, 41, 7, out),
                |n, start, out| n.fill_unit_at(3, 41, 7, start, out),
            ),
        ];
        let mut n = CounterNoise::new(11);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, fill, seek) in addresses {
            let mut full = vec![0.0f32; 2 * NOISE_BLOCK + 18];
            fill(&mut n, &mut full);
            for start in [0usize, 1, 31, 32, 33, 63, 64, 255, 256, 257, 511, 512] {
                for end in [31usize, 32, 33, 63, 64, 65, 97, 130, 256, 257, 513, 530] {
                    if end < start {
                        continue;
                    }
                    let mut got = vec![0.0f32; end - start];
                    seek(&mut n, start as u64, &mut got);
                    assert_eq!(bits(&got), bits(&full[start..end]), "{name} {start}..{end}");
                }
            }
        }
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
