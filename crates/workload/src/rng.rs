//! The workspace's one pseudo-random generator and one byte hash.
//!
//! Every synthetic interval, fault plan, lease backoff jitter and golden
//! fingerprint is pinned to these exact streams, so they are owned here
//! rather than borrowed from a crate whose stream could change under them.
//!
//! * [`SplitMix64`] — Steele, Lea & Flood, "Fast splittable pseudorandom
//!   number generators" (OOPSLA 2014): a Weyl sequence passed through a
//!   64-bit avalanche. Deterministic for a seed, which is the only property
//!   the replays rely on; it is not cryptographic.
//! * [`fnv1a`] — the 64-bit Fowler–Noll–Vo FNV-1a hash
//!   (draft-eastlake-fnv), folded one byte at a time.

use std::ops::Range;

/// A SplitMix64 generator.
#[derive(Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of one draw.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An integer in `range`: `start + draw % (end - start)`. The modulo
    /// bias is part of the pinned stream. An inclusive `lo..=hi` is
    /// `lo..hi + 1`. Panics on an empty range.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "SplitMix64::range: empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// `lo + u * (hi - lo)` for `u` from [`next_f64`](Self::next_f64).
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }
}

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running FNV-1a `hash`. A fresh hash starts from
/// [`FNV_OFFSET`], so `fnv1a(fnv1a(FNV_OFFSET, a), b)` hashes `a` then `b`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_published_vector() {
        let mut rng = SplitMix64::new(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    /// Draws recorded from the generator the synthetic intervals were
    /// first pinned with (seed 42, in this order).
    #[test]
    fn draws_match_the_pinned_stream() {
        let mut rng = SplitMix64::new(42);
        assert_eq!(rng.next_f64().to_bits(), 0x3fe7_bae6_44c5_fd6d);
        assert_eq!(rng.range(10..20), 11);
        assert_eq!(rng.uniform(0.5, 2.0).to_bits(), 0x3fed_5f73_6053_92ec);
        assert_eq!(rng.uniform(f64::EPSILON, 1.0), 0.3441907165236377);
        assert_eq!(rng.range(3..9 + 1), 9);
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!((10..20).contains(&rng.range(10..20)));
            assert!((0.25..0.75).contains(&rng.uniform(0.25, 0.75)));
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SplitMix64::new(0).range(5..5);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
