//! The exact comparison of a total utilisation `Σ Ci/Ti` with 1.
//!
//! Every EDF test of the paper's §2, and its message analysis
//! (eqs. (17)–(18) with `C → Tcycle`), first asks whether `Σ Ci/Ti < 1`:
//! only then does the synchronous busy period exist. Summing the exact
//! fractions costs a gcd per row and needs a denominator as large as the
//! lcm of the periods, which leaves `i128` for a handful of large coprime
//! periods. [`cmp_utilization_one`] answers the comparison for any rows an
//! `i64` can hold, at the cost of one integer division per row in all but
//! the rarest cases:
//!
//! 1. **Filter.** With `S = Σ Ci/Ti`, sum `⌊Ci·2^64/Ti⌋` and `⌈Ci·2^64/Ti⌉`
//!    in `u128`. The lower sum `lo` and the upper sum `hi` bracket
//!    `S·2^64`, and `lo = S·2^64` exactly when every row divides evenly.
//!    So `hi < 2^64` proves `S < 1`, `lo > 2^64` proves `S > 1`, and
//!    `lo = 2^64` proves `S = 1` when every row divided evenly and `S > 1`
//!    otherwise. Each term is below `2^127` (`Ci < 2^63`), and the sum
//!    stops as soon as `lo` passes `2^64`, so it never leaves `u128`.
//! 2. **Exact fallback.** Only a straddle, `lo < 2^64 ≤ hi`, is left open.
//!    As `hi − lo` is at most the row count, that needs `|S − 1| ≤ n/2^64`:
//!    sums of exactly 1 over periods that are not powers of two, or sums
//!    within a few ulps of 1. The fallback then compares the cross
//!    products `Σ Ci·Π_{j≠i} Tj` and `Π Tj` in [`BigNat`], which cannot
//!    overflow.

use core::cmp::Ordering;

use crate::bignat::BigNat;

/// `2^64`, the filter's fixed-point one.
const ONE: u128 = 1 << 64;

/// How `Σ Ci/Ti` over the `(Ci, Ti)` rows compares with 1, exactly.
///
/// An empty row set sums to 0 (`Less`). `exact_fallbacks` is incremented
/// once when the integer filter cannot decide and the exact [`BigNat`]
/// comparison runs (see the module docs); it counts work, never changes
/// the answer.
///
/// Rows must have `Ci >= 0` and `Ti > 0`, as validated tasks and message
/// streams do.
pub fn cmp_utilization_one<I>(rows: I, exact_fallbacks: &mut u64) -> Ordering
where
    I: IntoIterator<Item = (i64, i64)>,
    I::IntoIter: Clone,
{
    let rows = rows.into_iter();
    let mut lo: u128 = 0;
    let mut inexact: u128 = 0;
    for (c, t) in rows.clone() {
        debug_assert!(c >= 0 && t > 0, "utilisation row ({c}, {t})");
        let (scaled, t) = ((c as u128) << 64, t as u128);
        let q = scaled / t;
        lo += q;
        if lo > ONE {
            return Ordering::Greater;
        }
        inexact += u128::from(q * t != scaled);
    }
    if lo + inexact < ONE {
        Ordering::Less
    } else if lo == ONE {
        if inexact == 0 {
            Ordering::Equal
        } else {
            Ordering::Greater
        }
    } else {
        *exact_fallbacks += 1;
        cmp_exact(rows)
    }
}

/// `Σ Ci/Ti` against 1 as `P/Q` with `Q = Π Ti`, built row by row:
/// `P' = P·T + C·Q`, `Q' = Q·T`.
fn cmp_exact(rows: impl Iterator<Item = (i64, i64)>) -> Ordering {
    let mut p = BigNat::zero();
    let mut q = BigNat::from_u128(1);
    for (c, t) in rows {
        let t = BigNat::from_u128(t as u128);
        p = p.mul(&t).add(&BigNat::from_u128(c as u128).mul(&q));
        q = q.mul(&t);
    }
    p.cmp_nat(&q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(rows: &[(i64, i64)]) -> (Ordering, u64) {
        let mut fallbacks = 0;
        let ord = cmp_utilization_one(rows.iter().copied(), &mut fallbacks);
        (ord, fallbacks)
    }

    #[test]
    fn empty_and_plain_sets() {
        assert_eq!(cmp(&[]), (Ordering::Less, 0));
        assert_eq!(cmp(&[(1, 3), (1, 4)]), (Ordering::Less, 0));
        assert_eq!(cmp(&[(3, 4), (2, 4)]), (Ordering::Greater, 0));
        assert_eq!(cmp(&[(5, 5)]), (Ordering::Equal, 0));
        assert_eq!(cmp(&[(1, 2), (1, 4), (1, 4)]), (Ordering::Equal, 0));
    }

    #[test]
    fn exact_one_over_odd_periods_falls_back_once() {
        // 1/3 + 1/3 + 1/3: the floors sum to 2^64 − 1, the ceilings to
        // 2^64 + 2, so only the exact comparison can tell.
        assert_eq!(cmp(&[(1, 3), (1, 3), (1, 3)]), (Ordering::Equal, 1));
        assert_eq!(cmp(&[(1, 3), (2, 3)]), (Ordering::Equal, 1));
    }

    #[test]
    fn a_lower_sum_of_exactly_one_decides_without_fallback() {
        // 1/2 + 1/2 + 1/3: 2^64 after two rows, then more.
        assert_eq!(cmp(&[(1, 2), (1, 2), (1, 3)]), (Ordering::Greater, 0));
        // 2/3 + 1/3 floors to 2^64 − 1; the next row's exact 4 pushes the
        // lower sum past 2^64.
        assert_eq!(cmp(&[(2, 3), (1, 3), (1, 1 << 62)]), (Ordering::Greater, 0));
    }

    #[test]
    fn near_one_with_large_coprime_periods() {
        // (T1 − 1)/T1 + 1/T2 = 1 − 1/T1 + 1/T2 ⋚ 1 as T2 ⋚ T1.
        let (t1, t2) = (1_000_000_000_039_i64, 1_000_000_000_061_i64);
        assert_eq!(cmp(&[(t1 - 1, t1), (1, t2)]).0, Ordering::Less);
        assert_eq!(cmp(&[(t2 - 1, t2), (1, t1)]).0, Ordering::Greater);
        assert_eq!(cmp(&[(t1 - 1, t1), (1, t1)]).0, Ordering::Equal);
    }

    #[test]
    fn wrapped_frac_example_is_above_one() {
        // Four periods near 10^12, pairwise coprime, each at 0.3·T: the
        // i128 `Frac` sum of these wraps; U = 1.2.
        let rows: Vec<(i64, i64)> = [
            999_999_999_989_i64,
            1_000_000_000_039,
            1_000_000_000_061,
            1_000_000_000_063,
        ]
        .iter()
        .map(|&t| (t * 3 / 10, t))
        .collect();
        assert_eq!(cmp(&rows), (Ordering::Greater, 0));
        assert_eq!(cmp(&rows[..3]).0, Ordering::Less);
    }

    #[test]
    fn extreme_rows_stay_in_range() {
        let max = i64::MAX;
        assert_eq!(cmp(&[(max, max)]), (Ordering::Equal, 0));
        assert_eq!(cmp(&[(max, 1)]), (Ordering::Greater, 0));
        assert_eq!(cmp(&[(1, max)]), (Ordering::Less, 0));
        assert_eq!(cmp(&[(max - 1, max), (1, max)]).0, Ordering::Equal);
        assert_eq!(cmp(&[(max - 1, max), (2, max)]).0, Ordering::Greater);
        let many = vec![(max, max); 64];
        assert_eq!(cmp(&many), (Ordering::Greater, 0));
    }
}
