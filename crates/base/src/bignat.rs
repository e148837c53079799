//! A minimal arbitrary-precision natural number.
//!
//! Only what exact schedulability boundary tests need: construction from
//! `u128`, addition, multiplication, exponentiation and comparison. Used to
//! decide the Liu & Layland bound `U ≤ n(2^{1/n} − 1)` exactly via the
//! equivalent integer comparison `(n·q + p)^n ≤ 2·(n·q)^n` for `U = p/q`,
//! where `f64` would misclassify sets sitting exactly on the bound, and
//! `Σ Ci/Ti ⋚ 1` where its integer filter cannot decide
//! ([`crate::utilization`]).
//!
//! Representation: little-endian base-2³² limbs stored in `u32`s (products
//! fit `u64` during schoolbook multiplication), no sign, normalised (no
//! trailing zero limbs).

use core::cmp::Ordering;

/// An arbitrary-precision natural number (unsigned).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BigNat {
    /// Little-endian base-2³² limbs; empty means zero; no trailing zeros.
    limbs: Vec<u32>,
}

impl BigNat {
    /// Zero.
    pub fn zero() -> BigNat {
        BigNat { limbs: Vec::new() }
    }

    /// Builds from a `u128`.
    pub fn from_u128(mut v: u128) -> BigNat {
        let mut limbs = Vec::new();
        while v != 0 {
            limbs.push((v & 0xFFFF_FFFF) as u32);
            v >>= 32;
        }
        BigNat { limbs }
    }

    /// `true` iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Sum.
    pub fn add(&self, other: &BigNat) -> BigNat {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &a) in long.iter().enumerate() {
            let cur = a as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push((cur & 0xFFFF_FFFF) as u32);
            carry = cur >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        BigNat { limbs: out }
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigNat) -> BigNat {
        if self.is_zero() || other.is_zero() {
            return BigNat::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + (a as u64) * (b as u64) + carry;
                out[i + j] = (cur & 0xFFFF_FFFF) as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u64 + carry;
                out[k] = (cur & 0xFFFF_FFFF) as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut r = BigNat { limbs: out };
        r.normalize();
        r
    }

    /// Exponentiation by squaring. `0^0 == 1` by convention.
    pub fn pow(&self, mut exp: u32) -> BigNat {
        let mut base = self.clone();
        let mut acc = BigNat::from_u128(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }

    /// Multiplies by a small scalar.
    pub fn mul_u32(&self, k: u32) -> BigNat {
        self.mul(&BigNat::from_u128(k as u128))
    }

    /// Total-order comparison.
    pub fn cmp_nat(&self, other: &BigNat) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        other => return other,
                    }
                }
                Ordering::Equal
            }
            other => other,
        }
    }
}

impl PartialOrd for BigNat {
    fn partial_cmp(&self, other: &BigNat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigNat {
    fn cmp(&self, other: &BigNat) -> Ordering {
        self.cmp_nat(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_zero() {
        assert!(BigNat::zero().is_zero());
        assert!(BigNat::from_u128(0).is_zero());
        assert!(!BigNat::from_u128(1).is_zero());
    }

    #[test]
    fn multiplication_matches_u128() {
        let cases: [(u128, u128); 6] = [
            (0, 5),
            (1, 1),
            (u64::MAX as u128, 2),
            (123_456_789, 987_654_321),
            (u64::MAX as u128, u64::MAX as u128),
            (1 << 100, 1 << 20),
        ];
        for (a, b) in cases {
            if let Some(p) = a.checked_mul(b) {
                assert_eq!(
                    BigNat::from_u128(a).mul(&BigNat::from_u128(b)),
                    BigNat::from_u128(p),
                    "{a} * {b}"
                );
            }
        }
    }

    #[test]
    fn multiplication_beyond_u128() {
        // (2^100)^2 = 2^200: check via structure (cannot fit u128).
        let x = BigNat::from_u128(1 << 100);
        let sq = x.mul(&x);
        // 2^200 has exactly 201 bits -> 7 limbs of 32 bits (6*32=192 < 201 <= 224).
        assert_eq!(sq.limbs.len(), 7);
        assert_eq!(sq.limbs[6], 1 << (200 - 6 * 32));
        assert!(sq.limbs[..6].iter().all(|&l| l == 0));
    }

    #[test]
    fn addition_matches_u128_and_carries_past_it() {
        let cases: [(u128, u128); 5] = [
            (0, 0),
            (0, 7),
            (u32::MAX as u128, 1),
            (u64::MAX as u128, u64::MAX as u128),
            (123_456_789_012_345, 987),
        ];
        for (a, b) in cases {
            let sum = BigNat::from_u128(a).add(&BigNat::from_u128(b));
            assert_eq!(sum, BigNat::from_u128(a + b), "{a} + {b}");
            assert_eq!(sum, BigNat::from_u128(b).add(&BigNat::from_u128(a)));
        }
        // (2^128 − 1) + 1 = 2^128: one limb more than either operand.
        let wide = BigNat::from_u128(u128::MAX).add(&BigNat::from_u128(1));
        assert_eq!(wide.limbs, vec![0, 0, 0, 0, 1]);
        assert_eq!(
            wide,
            BigNat::from_u128(1 << 64).mul(&BigNat::from_u128(1 << 64))
        );
    }

    #[test]
    fn pow_matches_u128() {
        assert_eq!(BigNat::from_u128(3).pow(0), BigNat::from_u128(1));
        assert_eq!(BigNat::from_u128(3).pow(5), BigNat::from_u128(243));
        assert_eq!(BigNat::from_u128(2).pow(127), BigNat::from_u128(1 << 127));
        assert_eq!(BigNat::zero().pow(0), BigNat::from_u128(1));
        assert_eq!(BigNat::zero().pow(3), BigNat::zero());
    }

    #[test]
    fn comparison() {
        let a = BigNat::from_u128(10).pow(30);
        let b = BigNat::from_u128(10).pow(31);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp_nat(&a), Ordering::Equal);
        assert!(BigNat::zero() < BigNat::from_u128(1));
    }

    #[test]
    fn mul_u32_scalar() {
        assert_eq!(
            BigNat::from_u128(1 << 120).mul_u32(2),
            BigNat::from_u128(1 << 121)
        );
    }
}
