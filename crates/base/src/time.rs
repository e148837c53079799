//! Exact integer time.
//!
//! [`Time`] wraps a signed 64-bit *tick* count. Every schedulability
//! computation in the workspace (response-time fixpoints, demand bounds,
//! busy periods, token-cycle bounds) is carried out on `Time` values, so the
//! results are exact and platform-independent.
//!
//! The unit of a tick is chosen by the caller. The PROFIBUS crates map one
//! tick to one **bit time** (the duration of a single bit on the bus,
//! `1/baud` seconds), which makes all DIN 19245 protocol overheads integers.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

use crate::error::AnalysisError;

/// A signed, exact time value measured in abstract ticks.
///
/// `Time` is `Copy`, totally ordered and supports exact arithmetic. The
/// arithmetic operators panic on overflow in debug builds (like primitive
/// integers); analyses that may legitimately overflow use the `checked_*`
/// methods and surface [`AnalysisError::Overflow`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

impl Time {
    /// The zero time.
    pub const ZERO: Time = Time(0);
    /// One tick.
    pub const ONE: Time = Time(1);
    /// The largest representable time.
    pub const MAX: Time = Time(i64::MAX);
    /// The smallest representable time.
    pub const MIN: Time = Time(i64::MIN);

    /// Creates a time from a raw tick count.
    #[inline]
    pub const fn new(ticks: i64) -> Self {
        Time(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Returns `true` if this time is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this time is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Returns `true` if this time is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Checked subtraction; `None` on overflow.
    #[inline]
    pub fn checked_sub(self, rhs: Time) -> Option<Time> {
        self.0.checked_sub(rhs.0).map(Time)
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    #[inline]
    pub fn checked_mul(self, k: i64) -> Option<Time> {
        self.0.checked_mul(k).map(Time)
    }

    /// Addition that surfaces overflow as a typed analysis error.
    #[inline]
    pub fn try_add(self, rhs: Time) -> Result<Time, AnalysisError> {
        self.checked_add(rhs).ok_or(AnalysisError::Overflow {
            context: "time addition",
        })
    }

    /// Multiplication that surfaces overflow as a typed analysis error.
    #[inline]
    pub fn try_mul(self, k: i64) -> Result<Time, AnalysisError> {
        self.checked_mul(k).ok_or(AnalysisError::Overflow {
            context: "time multiplication",
        })
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// `⌈self / d⌉` for a strictly positive divisor `d`.
    ///
    /// This is the ceiling used by every response-time recurrence (e.g. the
    /// interference term `⌈w/Tj⌉·Cj` of Joseph & Pandya). Exact for negative
    /// numerators as well: `(-1).ceil_div(4) == 0`.
    ///
    /// # Panics
    /// Panics if `d` is not strictly positive.
    #[inline]
    pub fn ceil_div(self, d: Time) -> i64 {
        crate::num::ceil_div(self.0, d.0)
    }

    /// `⌊self / d⌋` for a strictly positive divisor `d`.
    ///
    /// Exact for negative numerators: `(-1).floor_div(4) == -1`.
    ///
    /// # Panics
    /// Panics if `d` is not strictly positive.
    #[inline]
    pub fn floor_div(self, d: Time) -> i64 {
        crate::num::floor_div(self.0, d.0)
    }

    /// `max(⌈self / d⌉, 0)` — the `⌈x⌉⁺` operator of the paper's eq. (3),
    /// where `⌈x⌉⁺ = 0` if `x < 0`.
    #[inline]
    pub fn ceil_div_pos(self, d: Time) -> i64 {
        self.ceil_div(d).max(0)
    }

    /// `max(⌊self / d⌋ + 1, 0)` — the standard demand-bound job count
    /// `(⌊(t−D)/T⌋ + 1)⁺` of Baruah et al.
    #[inline]
    pub fn floor_div_plus_one_pos(self, d: Time) -> i64 {
        (self.floor_div(d) + 1).max(0)
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Absolute value (saturating at `Time::MAX`).
    #[inline]
    pub fn abs(self) -> Time {
        Time(self.0.saturating_abs())
    }

    /// Clamps a possibly negative value to zero.
    #[inline]
    pub fn max_zero(self) -> Time {
        Time(self.0.max(0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    #[inline]
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for i64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Div<Time> for Time {
    /// Truncating division of two times (a pure ratio).
    type Output = i64;
    #[inline]
    fn div(self, rhs: Time) -> i64 {
        self.0 / rhs.0
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    #[inline]
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Time> for Time {
    fn sum<I: Iterator<Item = &'a Time>>(iter: I) -> Time {
        iter.copied().sum()
    }
}

impl From<i64> for Time {
    #[inline]
    fn from(v: i64) -> Time {
        Time(v)
    }
}

impl From<u32> for Time {
    #[inline]
    fn from(v: u32) -> Time {
        Time(v as i64)
    }
}

impl From<i32> for Time {
    #[inline]
    fn from(v: i32) -> Time {
        Time(v as i64)
    }
}

/// Shorthand constructor used pervasively in tests and examples.
#[inline]
pub const fn t(ticks: i64) -> Time {
    Time::new(ticks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_arithmetic() {
        assert_eq!(t(3) + t(4), t(7));
        assert_eq!(t(3) - t(4), t(-1));
        assert_eq!(t(3) * 4, t(12));
        assert_eq!(4 * t(3), t(12));
        assert_eq!(-t(3), t(-3));
        let mut x = t(1);
        x += t(2);
        x -= t(1);
        assert_eq!(x, t(2));
    }

    #[test]
    fn ceil_and_floor_division() {
        assert_eq!(t(7).ceil_div(t(2)), 4);
        assert_eq!(t(8).ceil_div(t(2)), 4);
        assert_eq!(t(0).ceil_div(t(5)), 0);
        assert_eq!(t(-1).ceil_div(t(4)), 0);
        assert_eq!(t(-5).ceil_div(t(4)), -1);

        assert_eq!(t(7).floor_div(t(2)), 3);
        assert_eq!(t(-1).floor_div(t(4)), -1);
        assert_eq!(t(-4).floor_div(t(4)), -1);
        assert_eq!(t(-5).floor_div(t(4)), -2);
    }

    #[test]
    fn positive_part_operators() {
        // The ⌈x⌉⁺ of the paper's eq. (3).
        assert_eq!(t(-3).ceil_div_pos(t(4)), 0);
        assert_eq!(t(1).ceil_div_pos(t(4)), 1);
        // The standard DBF job count (⌊x⌋+1)⁺.
        assert_eq!(t(0).floor_div_plus_one_pos(t(4)), 1);
        assert_eq!(t(-1).floor_div_plus_one_pos(t(4)), 0);
        assert_eq!(t(4).floor_div_plus_one_pos(t(4)), 2);
    }

    #[test]
    fn checked_operations_detect_overflow() {
        assert_eq!(Time::MAX.checked_add(t(1)), None);
        assert_eq!(Time::MIN.checked_sub(t(1)), None);
        assert_eq!(Time::MAX.checked_mul(2), None);
        assert!(Time::MAX.try_add(t(1)).is_err());
        assert!(Time::MAX.try_mul(2).is_err());
        assert_eq!(t(2).try_mul(3).unwrap(), t(6));
    }

    #[test]
    fn saturating_operations() {
        assert_eq!(Time::MAX.saturating_add(t(1)), Time::MAX);
        assert_eq!(Time::MIN.saturating_sub(t(1)), Time::MIN);
    }

    #[test]
    fn ordering_and_helpers() {
        assert!(t(1) < t(2));
        assert_eq!(t(-5).max_zero(), Time::ZERO);
        assert_eq!(t(5).max_zero(), t(5));
        assert_eq!(t(-5).abs(), t(5));
        assert_eq!(t(3).max(t(9)), t(9));
        assert_eq!(t(3).min(t(9)), t(3));
        assert!(t(1).is_positive());
        assert!(t(-1).is_negative());
        assert!(t(0).is_zero());
    }

    #[test]
    fn sum_of_times() {
        let xs = [t(1), t(2), t(3)];
        let s: Time = xs.iter().sum();
        assert_eq!(s, t(6));
        let s2: Time = xs.into_iter().sum();
        assert_eq!(s2, t(6));
    }

    #[test]
    fn division_and_remainder() {
        assert_eq!(t(7) / t(2), 3);
        assert_eq!(t(7) % t(2), t(1));
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", t(42)), "42");
        assert_eq!(format!("{:?}", t(42)), "42t");
    }
}
