//! Deterministic, splittable pseudo-random number generation.
//!
//! The reproduction pipeline (error model → characterization → simulator →
//! figures) must be exactly reproducible from a single seed, including when
//! components draw random numbers in different orders. We therefore use:
//!
//! * **SplitMix64** for seeding and for *stream derivation*: hashing a
//!   `(seed, stream-id)` pair gives independent generators for, e.g., every
//!   (chip, block, page) triple without any shared mutable state.
//! * **xoshiro256++** as the bulk generator (fast, passes BigCrush, tiny state).
//!
//! Neither algorithm is security-relevant; this is a simulation crate.

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
///
/// This is the reference algorithm from Steele, Lea & Flood, "Fast Splittable
/// Pseudorandom Number Generators" (OOPSLA 2014); it is used both to expand
/// seeds and as a one-shot hash of stream identifiers.
#[inline]
pub const fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
}

/// Returns the SplitMix64 output for the (already advanced) `state`.
#[inline]
pub const fn splitmix64_output(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-shot 64-bit mix of two words; used to derive independent streams.
#[inline]
pub const fn mix64(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(31) ^ 0x9E37_79B9_7F4A_7C15;
    splitmix64(&mut s);
    let x = splitmix64_output(s);
    splitmix64(&mut s);
    x ^ splitmix64_output(s).rotate_left(17)
}

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use rr_util::rng::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose full 256-bit state is expanded from `seed`
    /// with SplitMix64 (the construction recommended by the xoshiro authors).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            splitmix64(&mut sm);
            *slot = splitmix64_output(sm);
        }
        // xoshiro must not be seeded with the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// `fork(id)` called on equal generators with equal `id`s yields equal
    /// children, and children for different `id`s are statistically
    /// independent. This is how per-(chip, block, page) noise is derived
    /// without storing per-page RNG state.
    pub fn fork(&self, id: u64) -> Self {
        let a = mix64(self.s[0] ^ self.s[2], id);
        let b = mix64(
            self.s[1] ^ self.s[3],
            id.rotate_left(32) ^ 0xA5A5_A5A5_A5A5_A5A5,
        );
        Self::seed_from_u64(a ^ b.rotate_left(13))
    }

    /// Returns the next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a non-zero bound");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform integer in the inclusive-exclusive range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element of `slice`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below_usize(slice.len())])
        }
    }
}

/// Deterministic hash of an address tuple into `[0, 1)`.
///
/// Used by the flash error model to attach stationary per-page noise: the
/// value depends only on `(seed, a, b, c)`, not on draw order. It joins two
/// independent halves, `mix64(seed, a)` and [`unit_hash_salt`]`(b, c)`, so a
/// caller that draws many `(b, c)` salts for one `(seed, a)` address can
/// hash the address once and call [`unit_hash_join`]:
///
/// ```
/// use rr_util::rng::{mix64, unit_hash, unit_hash_join, unit_hash_salt};
/// let address = mix64(7, 42);
/// assert_eq!(unit_hash_join(address, unit_hash_salt(3, 4)), unit_hash(7, 42, 3, 4));
/// ```
#[inline]
pub fn unit_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    unit_hash_join(mix64(seed, a), unit_hash_salt(b, c))
}

/// The `(b, c)` half of [`unit_hash`]; a `const fn`, so fixed salts are
/// compile-time constants.
#[inline]
pub const fn unit_hash_salt(b: u64, c: u64) -> u64 {
    mix64(b.wrapping_add(0x1234_5678), c)
}

/// [`unit_hash`] from its halves: `address = mix64(seed, a)` and
/// `salt = unit_hash_salt(b, c)`.
#[inline]
pub fn unit_hash_join(address: u64, salt: u64) -> f64 {
    (mix64(address, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::seed_from_u64(123);
        let mut b = Rng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = Rng::seed_from_u64(9);
        let mut c1 = root.fork(5);
        let mut c2 = root.fork(5);
        let mut c3 = root.fork(6);
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers_values() {
        let mut rng = Rng::seed_from_u64(77);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should be reachable");
    }

    #[test]
    fn next_f64_unit_interval_and_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn unit_hash_stationary() {
        assert_eq!(unit_hash(1, 2, 3, 4), unit_hash(1, 2, 3, 4));
        assert_ne!(unit_hash(1, 2, 3, 4), unit_hash(1, 2, 3, 5));
    }

    #[test]
    fn range_u64_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..100 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn below_zero_panics() {
        Rng::seed_from_u64(0).below(0);
    }
}
