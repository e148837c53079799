//! Utilisation-based pre-run-time tests for rate-monotonic scheduling.
//!
//! Liu & Layland \[21\]: `n` periodic, independent, implicit-deadline tasks
//! under preemptive RM all meet their deadlines if
//! `Σ Ci/Ti ≤ n·(2^{1/n} − 1)`. The bound is sufficient, not necessary.
//!
//! Because `2^{1/n}` is irrational, a floating-point comparison can
//! misclassify sets sitting exactly on (or within an ulp of) the bound. We
//! decide the comparison **exactly**: with `U = p/q`,
//!
//! `p/q ≤ n(2^{1/n} − 1)  ⇔  (p + n·q)^n ≤ 2 · (n·q)^n`
//!
//! which is a pure integer comparison, evaluated with arbitrary precision
//! ([`profirt_base::BigNat`]).
//!
//! The *hyperbolic bound* (Bini & Buttazzo) `Π (Ui + 1) ≤ 2` is a uniformly
//! tighter sufficient test; we provide it as an extension, also exact.

use profirt_base::bignat::BigNat;
use profirt_base::{Frac, TaskSet};

use crate::edf::edf_utilization_test;

/// Outcome of a sufficient (non-exact) utilisation test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UtilizationVerdict {
    /// The sufficient condition holds — the set is schedulable.
    Schedulable,
    /// The sufficient condition fails — the set *may or may not* be
    /// schedulable; use response-time analysis to decide.
    Inconclusive,
}

impl UtilizationVerdict {
    /// `true` for [`UtilizationVerdict::Schedulable`].
    pub fn is_schedulable(self) -> bool {
        matches!(self, UtilizationVerdict::Schedulable)
    }
}

/// The Liu & Layland bound `n·(2^{1/n} − 1)` as `f64`, for reporting only
/// (never used in decisions).
pub fn liu_layland_bound(n: usize) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    n * ((2f64).powf(1.0 / n) - 1.0)
}

/// Exact Liu & Layland test: `Σ Ci/Ti ≤ n(2^{1/n} − 1)`.
///
/// The empty set is trivially schedulable. Utilisations above 1 are always
/// `Inconclusive` (and in fact unschedulable, but that is the caller's
/// conclusion to draw from the exact EDF test). So is a set whose exact
/// `U = p/q` needs more than `i128` (pairwise-coprime periods near
/// 10^12 and beyond): the sufficient test then makes no claim.
pub fn rm_utilization_schedulable(set: &TaskSet) -> UtilizationVerdict {
    let n = set.len();
    if n == 0 {
        return UtilizationVerdict::Schedulable;
    }
    let Some(u) = set
        .tasks()
        .iter()
        .try_fold(Frac::ZERO, |u, task| u.checked_add(task.utilization()))
    else {
        return UtilizationVerdict::Inconclusive;
    };
    // (p + n q)^n <= 2 (n q)^n with U = p/q (normalised, q > 0, p > 0 for
    // validated tasks).
    let nq = BigNat::from_u128(n as u128).mul(&BigNat::from_u128(u.den() as u128));
    let p_nq = BigNat::from_u128(u.num() as u128).add(&nq);
    let lhs = p_nq.pow(n as u32);
    let rhs = nq.pow(n as u32).mul_u32(2);
    if lhs <= rhs {
        UtilizationVerdict::Schedulable
    } else {
        UtilizationVerdict::Inconclusive
    }
}

/// Exact hyperbolic-bound test (Bini & Buttazzo): `Π (Ui + 1) ≤ 2`.
///
/// Strictly dominates the Liu & Layland test (accepts every set L&L accepts,
/// and more). Provided as an extension beyond the paper's survey.
pub fn hyperbolic_schedulable(set: &TaskSet) -> UtilizationVerdict {
    // Π (Ci/Ti + 1) <= 2  ⇔  Π (Ci + Ti) <= 2 Π Ti, exactly.
    let mut lhs = BigNat::from_u128(1);
    let mut rhs = BigNat::from_u128(1);
    for (_, task) in set.iter() {
        lhs = lhs.mul(&BigNat::from_u128(
            (task.c.ticks() + task.t.ticks()) as u128,
        ));
        rhs = rhs.mul(&BigNat::from_u128(task.t.ticks() as u128));
    }
    rhs = rhs.mul_u32(2);
    if lhs <= rhs {
        UtilizationVerdict::Schedulable
    } else {
        UtilizationVerdict::Inconclusive
    }
}

/// Exact check `Σ Ci/Ti ≤ 1`, the EDF module's utilisation test.
pub fn utilization_at_most_one(set: &TaskSet) -> bool {
    edf_utilization_test(set).at_most_one
}

/// Exact check `Σ Ci/Ti < 1`.
pub fn utilization_below_one(set: &TaskSet) -> bool {
    edf_utilization_test(set).below_one
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ll_bound_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284271247).abs() < 1e-9);
        assert!((liu_layland_bound(3) - 0.7797631497).abs() < 1e-9);
        // Tends to ln 2 as n -> inf.
        assert!((liu_layland_bound(10_000) - std::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn single_task_full_utilization_passes() {
        // n=1: bound is 1.0; U = 1 passes (<=).
        let set = TaskSet::from_ct(&[(5, 5)]).unwrap();
        assert!(rm_utilization_schedulable(&set).is_schedulable());
    }

    #[test]
    fn two_tasks_exactly_on_bound() {
        // n=2 bound = 2(√2−1) ≈ 0.828427. U = 0.828 < bound passes;
        // U = 0.829 > bound fails. Exact boundary: choose U = p/q with
        // (p+2q)^2 <= 2(2q)^2 ⇔ p <= 2q(√2−1). For q=1000, p=828: pass.
        let pass = TaskSet::from_ct(&[(414, 1000), (414, 1000)]).unwrap();
        assert!(rm_utilization_schedulable(&pass).is_schedulable());
        let fail = TaskSet::from_ct(&[(415, 1000), (415, 1000)]).unwrap();
        assert_eq!(
            rm_utilization_schedulable(&fail),
            UtilizationVerdict::Inconclusive
        );
    }

    #[test]
    fn liu_layland_classic_example() {
        // Liu & Layland 1973, three tasks with U = 1/3+1/4+1/5 = 0.7833... >
        // bound(3)=0.7797: inconclusive.
        let set = TaskSet::from_ct(&[(1, 3), (1, 4), (1, 5)]).unwrap();
        assert_eq!(
            rm_utilization_schedulable(&set),
            UtilizationVerdict::Inconclusive
        );
        // Lower utilisation version passes: U = 0.1+0.2+0.3 = 0.6 < 0.7797.
        let set2 = TaskSet::from_ct(&[(1, 10), (2, 10), (3, 10)]).unwrap();
        assert!(rm_utilization_schedulable(&set2).is_schedulable());
    }

    #[test]
    fn hyperbolic_dominates_liu_layland() {
        // U1=U2=0.41 each: ΣU=0.82 < 0.8284 (LL passes), hyperbolic too.
        let a = TaskSet::from_ct(&[(41, 100), (41, 100)]).unwrap();
        assert!(rm_utilization_schedulable(&a).is_schedulable());
        assert!(hyperbolic_schedulable(&a).is_schedulable());

        // 1.41*1.41 = 1.9881 <= 2 but ΣU = 0.82... try U1=U2=0.414:
        // ΣU = 0.828 < bound(2)=0.82842 -> LL passes.
        // Find a set hyperbolic accepts but LL rejects: U1=0.5, U2=0.33:
        // ΣU=0.83 > 0.8284 (LL rejects); (1.5)(1.33)=1.995 <= 2 (hyperbolic accepts).
        let b = TaskSet::from_ct(&[(1, 2), (33, 100)]).unwrap();
        assert_eq!(
            rm_utilization_schedulable(&b),
            UtilizationVerdict::Inconclusive
        );
        assert!(hyperbolic_schedulable(&b).is_schedulable());
    }

    #[test]
    fn hyperbolic_exact_boundary() {
        // Two tasks with (1+U)^2 == 2 has no rational solution; test a
        // rational boundary instead: U1 = 1/3, U2 = 1/2:
        // (4/3)(3/2) = 2 exactly -> schedulable (<=).
        let set = TaskSet::from_ct(&[(1, 3), (1, 2)]).unwrap();
        assert!(hyperbolic_schedulable(&set).is_schedulable());
        // Push just over: U2 = 501/1000 -> (4/3)(1501/1000) > 2.
        let over = TaskSet::from_ct(&[(1, 3), (501, 1000)]).unwrap();
        assert_eq!(
            hyperbolic_schedulable(&over),
            UtilizationVerdict::Inconclusive
        );
    }

    #[test]
    fn empty_set_is_schedulable() {
        let set = TaskSet::new(vec![]).unwrap();
        assert!(rm_utilization_schedulable(&set).is_schedulable());
        assert!(hyperbolic_schedulable(&set).is_schedulable());
    }

    #[test]
    fn utilization_comparisons_are_exact() {
        let set = TaskSet::from_ct(&[(1, 3), (1, 3), (1, 3)]).unwrap();
        assert!(utilization_at_most_one(&set));
        assert!(!utilization_below_one(&set)); // exactly 1
        let under = TaskSet::from_ct(&[(1, 3), (1, 3)]).unwrap();
        assert!(utilization_below_one(&under));
    }

    #[test]
    fn large_n_exact_test_does_not_overflow() {
        // 30 tasks, each U = 1/50: ΣU = 0.6 < bound(30) ≈ 0.698.
        let pairs: Vec<(i64, i64)> = (0..30).map(|_| (1, 50)).collect();
        let set = TaskSet::from_ct(&pairs).unwrap();
        assert!(rm_utilization_schedulable(&set).is_schedulable());
        // 30 tasks each U = 1/40: ΣU = 0.75 > bound(30): inconclusive.
        let pairs: Vec<(i64, i64)> = (0..30).map(|_| (1, 40)).collect();
        let set = TaskSet::from_ct(&pairs).unwrap();
        assert_eq!(
            rm_utilization_schedulable(&set),
            UtilizationVerdict::Inconclusive
        );
    }
}
