//! The two checksums of the stack. Neither is cryptographic: the threat
//! model is torn writes and bit rot, not an adversary forging bytes.
//!
//! * [`Fnv1a64`] / [`fnv1a64`] — FNV-1a 64 over a byte stream, one byte
//!   per step. Guards the **persisted** formats: the checkpoint v2
//!   trailer and the recovery manifest (`lazydp_core`), and the
//!   benchmark's release digest. Its bytes are a format — never change
//!   them. Its multiply chain is serial: ≈ 1.3 ns per byte, 20.7 µs for
//!   a 16 KiB page.
//! * [`page_sum64`] — sixteen independent multiply lanes over
//!   little-endian `u64` words: 0.9 µs for the same page. Guards the
//!   spill file's per-page trailers (`lazydp_store`), where it runs on
//!   every fault-in and every write-back. Spill files are process-scoped
//!   scratch — deleted on drop, never reopened — so this function is
//!   *not* a persisted format and only has to agree with itself within
//!   a build.
//!
//! Why two: measured on the benchmark host (`table_stored`: 16 KiB
//! pages already in the OS page cache, ≈ 1 020 misses and as many dirty
//! write-backs per step), a clean miss with an FNV-1a trailer cost
//! 24 µs (`store.miss_us`) — the checksum five times the `pread` it
//! guarded, two thirds of the step in the store. With [`page_sum64`]
//! the same miss costs 3.5 µs, a miss that also writes a dirty victim
//! back ≈ 6.5 µs, and the step went from 79 ms to 39 ms (CHANGES.md,
//! PR 17). A checkpoint hashes its bytes once; a page is hashed every
//! time it moves.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes` in one call.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a, for hashing a stream while it is written/read.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The digest so far (the hasher remains usable).
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Lanes of [`page_sum64`]; one block is `LANES` little-endian words.
/// Sixteen keeps the loop throughput-bound both when the compiler keeps
/// the lanes in scalar registers (a 3-cycle `imul` chain each) and when
/// it packs them into vectors (AVX-512 `vpmullq`, ≈ 15 cycles a step):
/// per 16 KiB page, four lanes measured 0.9 µs scalar but 2.1 µs
/// vectorized, sixteen 0.8–0.9 µs either way.
const LANES: usize = 16;
const BLOCK: usize = LANES * 8;
/// Odd, so multiplication is a bijection of `u64`.
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const MIX_ROT: u32 = 29;

/// One absorb step. For a fixed `word` it permutes `state` (xor, rotate
/// and multiply-by-odd are each bijections), and for a fixed `state` it
/// is injective in `word` — so two inputs that differ in one absorbed
/// word can never meet again, whatever follows.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).rotate_left(MIX_ROT).wrapping_mul(MIX_MUL)
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// 64-bit page checksum. Word `k` of every whole 128-byte block feeds
/// lane `k`; the whole words past the last block feed the first lanes;
/// the lanes are then folded in order into a state seeded with the byte
/// length, and the last `len % 8` bytes (page sizes are only 4-aligned)
/// are absorbed one at a time.
///
/// Every step is `state = (state ^ word).rotate_left(r) * ODD` — a
/// permutation of the state, injective in the word — so a change
/// confined to one word (any single bit or byte) always changes the
/// sum; distinct lane seeds, the fold order and the serial chain inside
/// a lane make it position-sensitive.
/// The lanes have no data dependence on each other, which is the whole
/// point: the CPU overlaps sixteen multiply chains where FNV-1a has one.
#[must_use]
pub fn page_sum64(bytes: &[u8]) -> u64 {
    // Distinct seeds (odd multiples of an odd constant), so equal words
    // in different lanes leave different states.
    let mut lanes: [u64; LANES] = std::array::from_fn(|k| MIX_MUL.wrapping_mul(2 * k as u64 + 1));
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, le_word(word));
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = mix(*lane, le_word(word));
    }
    let mut h = mix(MIX_MUL, bytes.len() as u64);
    for lane in lanes {
        h = mix(h, lane);
    }
    for &b in words.remainder() {
        h = mix(h, u64::from(b));
    }
    // Bijective avalanche, so the last absorbed byte reaches every bit.
    h ^= h >> 32;
    h = h.wrapping_mul(MIX_MUL);
    h ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn single_byte_flips_change_the_digest() {
        let base = fnv1a64(&[0u8; 64]);
        for i in 0..64 {
            let mut buf = [0u8; 64];
            buf[i] = 1;
            assert_ne!(fnv1a64(&buf), base, "flip at {i} must be detected");
        }
    }

    /// A seeded byte pattern (splitmix64), so the page tests need no
    /// RNG crate.
    fn pattern(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    const PAGE: usize = 16 * 1024;

    #[test]
    fn page_sum_known_answers_are_pinned() {
        // Not a persisted format, but a change of the function must be
        // a decision, not an accident.
        let ramp: Vec<u8> = (0..=255u8).collect();
        // Lengths on both sides of the word seam (31/32/33) and of the
        // block seam (127/128/129), plus one full page.
        let cases: [(&[u8], u64); 9] = [
            (b"", 0x91d8_0fcc_e233_13ac),
            (b"a", 0x80a2_956c_2fd1_417b),
            (&ramp[..31], 0xaf2c_8f7f_19dd_ae61),
            (&ramp[..32], 0x20b7_3ebe_dc0d_1e5f),
            (&ramp[..33], 0x6ae7_2ac4_f300_7b3f),
            (&ramp[..127], 0x3e7d_2e38_aa79_f29c),
            (&ramp[..128], 0xe82d_e68b_e88e_737e),
            (&ramp[..129], 0x58bd_6762_7b53_8c6b),
            (&pattern(1, PAGE), 0xf8e8_3605_d0da_2170),
        ];
        for (bytes, want) in cases {
            assert_eq!(
                page_sum64(bytes),
                want,
                "len {}: got {:#018x}",
                bytes.len(),
                page_sum64(bytes)
            );
        }
    }

    #[test]
    fn page_sum_detects_every_single_bit_flip() {
        // By construction (see `mix`), so exhaustively: all 131 072
        // flips of a 16 KiB page, and every flip at every length that
        // exercises the block / leftover-word / tail-byte seams.
        let mut page = pattern(2, PAGE);
        let base = page_sum64(&page);
        for bit in 0..PAGE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_sum64(&page), base, "flip of bit {bit} undetected");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        for len in 0..=(2 * BLOCK + 9) {
            let mut buf = pattern(3, len);
            let base = page_sum64(&buf);
            for bit in 0..len * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_sum64(&buf), base, "len {len}: bit {bit} undetected");
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn page_sum_is_position_sensitive() {
        let page = pattern(4, PAGE);
        let base = page_sum64(&page);
        let swap_words = |a: usize, b: usize| {
            let mut p = page.clone();
            assert_ne!(page[a * 8..a * 8 + 8], page[b * 8..b * 8 + 8]);
            for k in 0..8 {
                p.swap(a * 8 + k, b * 8 + k);
            }
            page_sum64(&p)
        };
        // Same lane (one block apart), neighbouring lanes, and the two
        // ends of the page.
        assert_ne!(swap_words(5, 5 + LANES), base, "within a lane");
        assert_ne!(swap_words(5, 6), base, "across lanes");
        assert_ne!(swap_words(0, PAGE / 8 - 1), base, "first and last word");
    }

    #[test]
    fn page_sum_detects_torn_writes_at_every_sector_boundary() {
        for seed in 0..8 {
            let a = pattern(100 + seed, PAGE);
            let b = pattern(200 + seed, PAGE);
            let (sum_a, sum_b) = (page_sum64(&a), page_sum64(&b));
            for cut in (512..PAGE).step_by(512) {
                let torn = [&a[..cut], &b[cut..]].concat();
                let sum = page_sum64(&torn);
                assert!(
                    sum != sum_a && sum != sum_b,
                    "seed {seed}: tear at byte {cut} undetected"
                );
            }
        }
    }

    #[test]
    fn page_sum_separates_zero_buffers_by_length() {
        // The spill file's never-written sentinel is trailer 0 over
        // all-zero data, so a *written* zero page must not sum to 0.
        let lens = [0usize, 1, 4, 7, 8, 31, 32, 33, 127, 128, 129, 4096, PAGE];
        let sums: Vec<u64> = lens.iter().map(|&n| page_sum64(&vec![0u8; n])).collect();
        for (i, &s) in sums.iter().enumerate() {
            assert_ne!(s, 0, "len {}", lens[i]);
            for (j, &t) in sums.iter().enumerate().skip(i + 1) {
                assert_ne!(s, t, "len {} vs len {}", lens[i], lens[j]);
            }
        }
    }
}
