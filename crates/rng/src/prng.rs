//! Core deterministic pseudo-random generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state generator. Used for seeding and
//!   as the finalizer/mixer of the counter-based streams in
//!   [`crate::counter`].
//! * [`Xoshiro256PlusPlus`] — the main sequential stream generator
//!   (Blackman & Vigna). Fast and equidistributed. Parallel noise does
//!   not split this stream: it is addressed through the counter-based
//!   generators of [`crate::counter`].
//!
//! Both implement the crate-local [`Prng`] trait as well as
//! [`rand::RngCore`], so they compose with the `rand` ecosystem where
//! convenient (e.g. `rand::seq` shuffles in the data loader).

/// Minimal uniform-generator interface used throughout the workspace.
///
/// The methods have deterministic, platform-independent output for a given
/// seed, which the reproduction relies on for its equivalence tests.
pub trait Prng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits so every representable value is equally likely.
    fn next_f64(&mut self) -> f64 {
        // 2^-53 scaling of the high 53 bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the half-open interval `(0, 1]`.
    ///
    /// This is the form a logarithm argument needs (`ln 0` must never
    /// occur).
    fn next_f64_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns a uniform integer in `[0, bound)` using Lemire rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Widening-multiply rejection sampling (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p`.
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The SplitMix64 finalizer: a full-avalanche 64-bit mixing function.
///
/// Exposed publicly because the counter-based streams of
/// [`crate::counter`] are built from it: value `i` of a key is one round
/// over `key ^ i·γ`, the output function [`SplitMix64`] applies to its
/// own Weyl state, with the key XORed in.
#[inline]
#[must_use]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Weyl-sequence increment of SplitMix64 (the golden ratio in 64 bits).
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: a tiny, fast, statistically sound 64-bit generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256PlusPlus`] and to derive independent sub-seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed. Any seed is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Prng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        splitmix64_mix(self.state)
    }
}

/// xoshiro256++ (Blackman & Vigna, 2019): the workspace's main stream PRNG.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator by expanding `seed` through SplitMix64, as
    /// recommended by the xoshiro authors.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // The all-zero state (probability 2^-256 from SplitMix64) is the
        // one invalid state; nudge it if it ever occurs.
        if s == [0, 0, 0, 0] {
            s[0] = SPLITMIX64_GAMMA;
        }
        Self { s }
    }

    /// Creates a generator from raw state words.
    ///
    /// # Panics
    ///
    /// Panics if all four words are zero (the invalid xoshiro state).
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "xoshiro256++ state must be nonzero");
        Self { s }
    }
}

impl Prng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl rand::RngCore for Xoshiro256PlusPlus {
    fn next_u32(&mut self) -> u32 {
        (Prng::next_u64(self) >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        Prng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = Prng::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut rng = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }

    #[test]
    fn xoshiro_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256PlusPlus::seed_from(7);
        let mut b = Xoshiro256PlusPlus::seed_from(7);
        let mut c = Xoshiro256PlusPlus::seed_from(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn unit_interval_bounds() {
        let mut rng = Xoshiro256PlusPlus::seed_from(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
            let z = rng.next_f32();
            assert!((0.0..1.0).contains(&z));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let bound = 10u64;
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = rng.next_below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should get ~10_000 ± 5σ (σ ≈ 95).
            assert!(
                (9_400..=10_600).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn rngcore_fill_bytes_matches_next_u64() {
        use rand::RngCore;
        let mut a = Xoshiro256PlusPlus::seed_from(21);
        let mut b = Xoshiro256PlusPlus::seed_from(21);
        let mut buf = [0u8; 16];
        a.fill_bytes(&mut buf);
        let w0 = Prng::next_u64(&mut b).to_le_bytes();
        let w1 = Prng::next_u64(&mut b).to_le_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1);
    }
}
