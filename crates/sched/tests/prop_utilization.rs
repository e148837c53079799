//! Differential property test for the exact comparison `Σ Ci/Ti ⋚ 1`.
//!
//! `profirt_base::cmp_utilization_one` decides most sums with an integer
//! filter over `⌊Ci·2^64/Ti⌋` and `⌈Ci·2^64/Ti⌉` and falls back to an exact
//! comparison only when the filter's interval straddles 1. The oracle here
//! is the textbook cross-multiplication `Σ_i Ci·Π_{j≠i} Tj` against
//! `Π Tj` in `BigNat`, with no filter at all. The generators aim at the
//! filter's edges:
//!
//! * sums of exactly 1 over periods of every size, and the same sums with
//!   one cost moved by one tick;
//! * `1 ± 1/(T1·T2)` from two rows with large coprime periods;
//! * costs and periods near `i64::MAX`, costs above their periods;
//! * small task sets, where the EDF busy period must still report
//!   `UtilizationAtLeastOne` exactly when the `Frac` sum is not below 1.
//!
//! Non-vacuity: each generator must produce the orderings it aims at, and
//! the exact-one family must both hit the exact fallback and see the
//! filter decide alone. Cases per generator: `PROPTEST_CASES`
//! when set (CI runs 2048 in release), else 256; run under any
//! `PROPTEST_SEED`.

use std::cmp::Ordering;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use profirt_base::{cmp_utilization_one, AnalysisError, BigNat, Frac, Task, TaskSet};
use profirt_sched::edf::synchronous_busy_period;
use profirt_sched::FixpointConfig;

fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// `Σ Ci/Ti` against 1 by cross-multiplication.
fn oracle(rows: &[(i64, i64)]) -> Ordering {
    let big = |v: i64| BigNat::from_u128(v as u128);
    let all_periods = rows
        .iter()
        .fold(BigNat::from_u128(1), |acc, &(_, t)| acc.mul(&big(t)));
    let costs = (0..rows.len()).fold(BigNat::zero(), |acc, i| {
        let term = rows
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .fold(big(rows[i].0), |p, (_, &(_, t))| p.mul(&big(t)));
        acc.add(&term)
    });
    costs.cmp_nat(&all_periods)
}

#[derive(Default)]
struct Tally {
    seen: [usize; 3],
    fallbacks: u64,
    filtered: usize,
}

impl Tally {
    /// Checks one row set against the oracle and returns the ordering.
    fn check(&mut self, rows: &[(i64, i64)]) -> Ordering {
        let mut fallbacks = 0;
        let got = cmp_utilization_one(rows.iter().copied(), &mut fallbacks);
        assert_eq!(got, oracle(rows), "rows {rows:?}");
        assert!(fallbacks <= 1, "one check, at most one fallback");
        self.fallbacks += fallbacks;
        self.filtered += usize::from(fallbacks == 0);
        self.seen[(got as i8 + 1) as usize] += 1;
        got
    }
}

fn draw(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    (lo..=hi).generate(rng)
}

/// `k` rows `(ai·gi, M·gi)` with `Σ ai = M`: a sum of exactly 1 whose
/// reduced fractions and period sizes vary with the scalers `gi`.
fn exact_one(rng: &mut TestRng) -> Vec<(i64, i64)> {
    let k = draw(rng, 1, 8);
    let m_max = [k, 10, 1_000, 1_000_000_007][draw(rng, 0, 3) as usize].max(k);
    let m = draw(rng, k, m_max);
    let mut left = m;
    (0..k)
        .map(|i| {
            let a = if i == k - 1 {
                left
            } else {
                draw(rng, 1, left - (k - 1 - i))
            };
            left -= a;
            let g_max = [1, 1_000, i64::MAX / m][draw(rng, 0, 2) as usize];
            let g = draw(rng, 1, g_max);
            (a * g, m * g)
        })
        .collect()
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `x` with `x·t2 ≡ 1 (mod t1)`, for coprime `t1 > 1`, `t2`.
fn inverse(t2: i128, t1: i128) -> i128 {
    let (mut r0, mut r1, mut s0, mut s1) = (t2 % t1, t1, 1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (s0, s1) = (s1, s0 - q * s1);
    }
    s0.rem_euclid(t1)
}

/// Two rows `(a, T1)`, `(b, T2)` with coprime periods of up to 2^62 and
/// `a/T1 + b/T2 = 1 + sign/(T1·T2)`.
fn one_plus_tiny(rng: &mut TestRng, sign: i128) -> Vec<(i64, i64)> {
    let t1 = i128::from(draw(rng, 3, 1 << 62));
    let mut t2 = i128::from(draw(rng, 3, 1 << 62));
    while gcd(t1, t2) != 1 {
        t2 += 1;
    }
    // a·T2 ≡ sign (mod T1), 0 < a < T1; then b·T1 = T1·T2 + sign − a·T2.
    let a = (sign * inverse(t2, t1)).rem_euclid(t1);
    let b = (t1 * t2 + sign - a * t2) / t1;
    assert!(a > 0 && b > 0 && (a * t2 + b * t1) == t1 * t2 + sign);
    vec![(a as i64, t1 as i64), (b as i64, t2 as i64)]
}

/// 1–4 rows mixing costs and periods near `i64::MAX`, full-range draws and
/// costs above their periods.
fn extreme(rng: &mut TestRng) -> Vec<(i64, i64)> {
    let k = draw(rng, 1, 4);
    (0..k)
        .map(|_| {
            let near_max = |rng: &mut TestRng| i64::MAX - draw(rng, 0, 1_000);
            match draw(rng, 0, 3) {
                0 => (near_max(rng), near_max(rng)),
                1 => (draw(rng, 1, i64::MAX), draw(rng, 1, i64::MAX)),
                2 => {
                    let t = draw(rng, 1, 1 << 40);
                    (t.saturating_mul(draw(rng, 2, 1 << 20)), t)
                }
                _ => (draw(rng, 1, 1_000), near_max(rng)),
            }
        })
        .collect()
}

/// The rows as tasks (deadline `max(C, T)`), whose busy period must not
/// exist.
fn assert_full_load_rejected(rows: &[(i64, i64)]) {
    let tasks = rows
        .iter()
        .map(|&(c, t)| Task::new(c, c.max(t), t).unwrap())
        .collect();
    let set = TaskSet::new(tasks).unwrap();
    assert_eq!(
        synchronous_busy_period(&set, FixpointConfig::default()),
        Err(AnalysisError::UtilizationAtLeastOne),
        "rows {rows:?}"
    );
}

#[test]
fn exact_one_and_its_neighbours_match_the_oracle() {
    let mut rng = TestRng::for_test("exact_one_and_its_neighbours_match_the_oracle");
    let mut tally = Tally::default();
    for _ in 0..cases() {
        let mut rows = exact_one(&mut rng);
        assert_eq!(tally.check(&rows), Ordering::Equal, "rows {rows:?}");
        assert_full_load_rejected(&rows);
        let i = draw(&mut rng, 0, rows.len() as i64 - 1) as usize;
        let up = rows[i].0 < rows[i].1 || rows[i].0 == 1;
        rows[i].0 += if up { 1 } else { -1 };
        let want = if up {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        assert_eq!(tally.check(&rows), want, "rows {rows:?}");
        if up {
            assert_full_load_rejected(&rows);
        }
    }
    assert!(tally.fallbacks > 0, "the exact fallback never ran");
    assert!(tally.filtered > 0, "the filter never decided alone");
}

#[test]
fn one_plus_or_minus_a_tiny_fraction_matches_the_oracle() {
    let mut rng = TestRng::for_test("one_plus_or_minus_a_tiny_fraction_matches_the_oracle");
    let mut tally = Tally::default();
    for _ in 0..cases() {
        for (sign, want) in [(1, Ordering::Greater), (-1, Ordering::Less)] {
            let rows = one_plus_tiny(&mut rng, sign);
            assert_eq!(tally.check(&rows), want, "rows {rows:?}");
        }
    }
    assert!(tally.fallbacks > 0, "no straddle generated");
}

#[test]
fn extreme_rows_match_the_oracle() {
    let mut rng = TestRng::for_test("extreme_rows_match_the_oracle");
    let mut tally = Tally::default();
    for _ in 0..cases() {
        tally.check(&extreme(&mut rng));
    }
    let [less, _, greater] = tally.seen;
    assert!(less > 0 && greater > 0, "orderings {:?}", tally.seen);
}

/// On small sets the comparison agrees with the `Frac` sum it replaced,
/// and the busy period reports `UtilizationAtLeastOne` on the same sets.
#[test]
fn small_sets_agree_with_frac() {
    let mut rng = TestRng::for_test("small_sets_agree_with_frac");
    let mut tally = Tally::default();
    for _ in 0..cases() {
        let k = draw(&mut rng, 1, 8);
        let tasks: Vec<Task> = (0..k)
            .map(|_| {
                let (c, t) = (draw(&mut rng, 1, 50), draw(&mut rng, 1, 60 * k));
                Task::new(c, c.max(t), t).unwrap()
            })
            .collect();
        let set = TaskSet::new(tasks).unwrap();
        let rows: Vec<(i64, i64)> = set
            .tasks()
            .iter()
            .map(|t| (t.c.ticks(), t.t.ticks()))
            .collect();
        let u = tally.check(&rows);
        let frac = set.total_utilization();
        assert_eq!(u, frac.cmp(&Frac::ONE), "rows {rows:?}");
        let busy = synchronous_busy_period(&set, FixpointConfig::default());
        assert_eq!(
            busy == Err(AnalysisError::UtilizationAtLeastOne),
            !frac.lt_one(),
            "rows {rows:?}: {busy:?}"
        );
    }
    let [less, _, greater] = tally.seen;
    assert!(less > 0 && greater > 0, "orderings {:?}", tally.seen);
}
