//! Integer math utilities: exact ceiling/floor division, gcd/lcm, and the
//! exact rational type [`Frac`] used for utilisation tests.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::Add;

use crate::error::AnalysisError;

/// `⌈n / d⌉` for signed `n` and strictly positive `d`.
///
/// # Panics
/// Panics if `d <= 0`.
#[inline]
pub fn ceil_div(n: i64, d: i64) -> i64 {
    assert!(d > 0, "ceil_div requires a strictly positive divisor");
    n.div_euclid(d) + i64::from(n.rem_euclid(d) != 0)
}

/// `⌊n / d⌋` for signed `n` and strictly positive `d`.
///
/// # Panics
/// Panics if `d <= 0`.
#[inline]
pub fn floor_div(n: i64, d: i64) -> i64 {
    assert!(d > 0, "floor_div requires a strictly positive divisor");
    n.div_euclid(d)
}

/// Greatest common divisor (non-negative result; `gcd(0, 0) == 0`).
pub fn gcd(mut a: i64, mut b: i64) -> i64 {
    a = a.saturating_abs();
    b = b.saturating_abs();
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// Least common multiple, or an [`AnalysisError::Overflow`] if it exceeds
/// `i64` (hyperperiods of random period sets overflow routinely; callers must
/// handle this).
pub fn lcm(a: i64, b: i64) -> Result<i64, AnalysisError> {
    if a == 0 || b == 0 {
        return Ok(0);
    }
    let g = gcd(a, b);
    (a / g)
        .checked_mul(b)
        .map(i64::abs)
        .ok_or(AnalysisError::Overflow { context: "lcm" })
}

/// An exact rational number over `i128`, always stored normalised
/// (`den > 0`, `gcd(|num|, den) == 1`).
///
/// Used for utilisation *values*: the exact `U = p/q` that the Liu &
/// Layland test raises to the `n`-th power, the low-priority residual
/// `TTR·(1 − U)`. Comparisons of `Σ Ci/Ti` with 1 do not need the value
/// and go through [`crate::cmp_utilization_one`] instead.
///
/// **Range note.** A sum's denominator is the lcm of its operands'
/// denominators. On a common period granularity (the workload generators
/// round to 100-tick multiples) it stays small, but four periods near
/// 10^12 that are pairwise coprime already need more than `i128` holds.
/// [`Frac::checked_add`] reports that as `None`, and every analysis sums
/// with it. The `+` operator, [`Sum`] and the ordering (which
/// cross-multiplies) do not check: they panic on overflow in debug builds
/// and wrap in release builds, so they are only for operands known to be
/// small, such as test fixtures.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frac {
    num: i128,
    den: i128,
}

impl Frac {
    /// Exact zero.
    pub const ZERO: Frac = Frac { num: 0, den: 1 };
    /// Exact one.
    pub const ONE: Frac = Frac { num: 1, den: 1 };

    /// Creates `num/den`, normalising sign and common factors.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Frac {
        assert!(den != 0, "Frac denominator must be non-zero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd128(num.unsigned_abs(), den.unsigned_abs()) as i128;
        Frac {
            num: sign * num / g,
            den: den.abs() / g,
        }
    }

    /// Creates the integer fraction `n/1`.
    pub const fn from_int(n: i128) -> Frac {
        Frac { num: n, den: 1 }
    }

    /// Numerator (sign-carrying).
    pub const fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub const fn den(self) -> i128 {
        self.den
    }

    /// `self + rhs`, or `None` if an intermediate product or the result
    /// leaves `i128`.
    pub fn checked_add(self, rhs: Frac) -> Option<Frac> {
        // Over the lcm of the denominators, so sums on a common period
        // granularity stay as small as their value allows.
        let g = gcd128(self.den as u128, rhs.den as u128) as i128;
        let num = self
            .num
            .checked_mul(rhs.den / g)?
            .checked_add(rhs.num.checked_mul(self.den / g)?)?;
        Some(Frac::new(num, (self.den / g).checked_mul(rhs.den)?))
    }

    /// Exact comparison against another fraction.
    pub fn cmp_frac(self, other: Frac) -> Ordering {
        // num/den vs num'/den'  <=>  num*den' vs num'*den   (dens positive)
        (self.num * other.den).cmp(&(other.num * self.den))
    }

    /// `true` iff `self < 1` exactly.
    pub fn lt_one(self) -> bool {
        self.num < self.den
    }

    /// `true` iff `self <= 1` exactly.
    pub fn le_one(self) -> bool {
        self.num <= self.den
    }

    /// Lossy conversion for reporting only (never used in decisions).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

fn gcd128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 && b == 0 {
        return 1;
    }
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

impl Add for Frac {
    type Output = Frac;
    fn add(self, rhs: Frac) -> Frac {
        Frac::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sum for Frac {
    fn sum<I: Iterator<Item = Frac>>(iter: I) -> Frac {
        iter.fold(Frac::ZERO, Add::add)
    }
}

impl PartialOrd for Frac {
    fn partial_cmp(&self, other: &Frac) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frac {
    fn cmp(&self, other: &Frac) -> Ordering {
        self.cmp_frac(*other)
    }
}

impl fmt::Debug for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Frac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_matches_mathematical_ceiling() {
        assert_eq!(ceil_div(0, 3), 0);
        assert_eq!(ceil_div(1, 3), 1);
        assert_eq!(ceil_div(3, 3), 1);
        assert_eq!(ceil_div(4, 3), 2);
        assert_eq!(ceil_div(-1, 3), 0);
        assert_eq!(ceil_div(-3, 3), -1);
        assert_eq!(ceil_div(-4, 3), -1);
    }

    #[test]
    fn floor_div_matches_mathematical_floor() {
        assert_eq!(floor_div(0, 3), 0);
        assert_eq!(floor_div(2, 3), 0);
        assert_eq!(floor_div(3, 3), 1);
        assert_eq!(floor_div(-1, 3), -1);
        assert_eq!(floor_div(-3, 3), -1);
        assert_eq!(floor_div(-4, 3), -2);
    }

    #[test]
    #[should_panic(expected = "strictly positive divisor")]
    fn ceil_div_rejects_zero_divisor() {
        let _ = ceil_div(1, 0);
    }

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(lcm(4, 6).unwrap(), 12);
        assert_eq!(lcm(0, 6).unwrap(), 0);
        assert_eq!(lcm(7, 13).unwrap(), 91);
    }

    #[test]
    fn lcm_overflow_is_reported() {
        assert!(lcm(i64::MAX, i64::MAX - 1).is_err());
    }

    #[test]
    fn frac_normalisation() {
        let f = Frac::new(4, 8);
        assert_eq!(f.num(), 1);
        assert_eq!(f.den(), 2);
        let g = Frac::new(3, -6);
        assert_eq!(g.num(), -1);
        assert_eq!(g.den(), 2);
        assert_eq!(Frac::new(0, 7), Frac::ZERO);
    }

    #[test]
    fn frac_arithmetic_and_order() {
        let a = Frac::new(1, 3);
        let b = Frac::new(1, 6);
        assert_eq!(a + b, Frac::new(1, 2));
        assert_eq!(a.checked_add(b), Some(Frac::new(1, 2)));
        assert!(b < a);
        assert!(a < Frac::ONE);
        assert!(a.lt_one());
        assert!(Frac::ONE.le_one());
        assert!(!Frac::ONE.lt_one());
        assert!(!Frac::new(7, 6).le_one());
    }

    #[test]
    fn frac_sum_is_exact() {
        // 1/3 + 1/3 + 1/3 == 1 exactly (would not hold in f64 chains).
        let u: Frac = (0..3).map(|_| Frac::new(1, 3)).sum();
        assert_eq!(u, Frac::ONE);
    }

    #[test]
    fn checked_add_reports_what_the_operator_would_wrap() {
        // Over the lcm, not the product, of the denominators.
        let near = Frac::new(1, 1 << 100);
        assert_eq!(
            near.checked_add(Frac::new(1, 1 << 120)),
            Some(Frac::new((1 << 20) + 1, 1 << 120))
        );
        // Four pairwise-coprime periods near 10^12: the lcm leaves i128.
        let sum = [
            999_999_999_989_i128,
            1_000_000_000_039,
            1_000_000_000_061,
            1_000_000_000_063,
        ]
        .iter()
        .try_fold(Frac::ZERO, |acc, &t| {
            acc.checked_add(Frac::new(t * 3 / 10, t))
        });
        assert_eq!(sum, None);
        assert_eq!(Frac::new(i128::MAX, 1).checked_add(Frac::ONE), None);
    }

    #[test]
    fn frac_display() {
        assert_eq!(format!("{}", Frac::new(1, 2)), "1/2");
        assert_eq!(format!("{}", Frac::from_int(3)), "3");
    }
}
