//! Seeded random number generation for reproducible simulations.
//!
//! `Prng` embeds its own xoshiro256++ generator (seeded via SplitMix64)
//! instead of delegating to the `rand` crate: simulation traces are part of
//! the recorded campaign outputs (every preset's `units.csv`), so the
//! stream must be stable across dependency upgrades and platforms. The
//! generator is the public-domain reference algorithm by Blackman & Vigna.

use crate::time::Time;

/// A seeded, cloneable pseudo-random generator with time-domain helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Prng {
        let mut s = seed;
        Prng {
            state: [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2n = s2 ^ s0;
        let s3n = s3 ^ s1;
        let s1n = s1 ^ s2;
        let s0n = s0 ^ s3n;
        s2n ^= t;
        self.state = [s0n, s1n, s2n, s3n.rotate_left(45)];
        result
    }

    /// Uniform `u64` in `[0, n)` via Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        // Rejection sampling on the widening multiply.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform time in `[0, upper]` (inclusive). Returns zero for a
    /// non-positive upper bound.
    pub fn time_in(&mut self, upper: Time) -> Time {
        if !upper.is_positive() {
            return Time::ZERO;
        }
        Time::new(self.below(upper.ticks() as u64 + 1) as i64)
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` (53-bit resolution).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fresh independent stream derived from this one.
    pub fn fork(&mut self) -> Prng {
        Prng::seed_from_u64(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::t;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prng::seed_from_u64(42);
        let mut b = Prng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.time_in(t(1000)), b.time_in(t(1000)));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn bounds_respected() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..2000 {
            let v = r.time_in(t(10));
            assert!(v >= t(0) && v <= t(10));
            let i = r.index(3);
            assert!(i < 3);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(r.time_in(t(0)), t(0));
        assert_eq!(r.time_in(t(-5)), t(0));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Prng::seed_from_u64(123);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[r.below(4) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    fn fork_is_independent_but_deterministic() {
        let mut a = Prng::seed_from_u64(9);
        let mut b = Prng::seed_from_u64(9);
        let mut fa = a.fork();
        let mut fb = b.fork();
        for _ in 0..10 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
        // Fork and parent produce different streams.
        assert_ne!(a.next_u64(), fa.next_u64());
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        let mut r = Prng::seed_from_u64(1);
        let _ = r.below(0);
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = Prng::seed_from_u64(5);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
