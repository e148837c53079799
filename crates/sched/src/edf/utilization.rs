//! The Liu & Layland EDF utilisation test.
//!
//! For periodic, independent, implicit-deadline (`Di = Ti`) tasks under
//! preemptive EDF: the set is schedulable **iff** `Σ Ci/Ti ≤ 1` \[21\].
//! The paper states the strict form `< 1` as the precondition for the
//! busy-period machinery; we expose both comparisons exactly.

use core::cmp::Ordering;

use profirt_base::{cmp_utilization_one, TaskSet};

/// Result of the exact EDF utilisation test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdfUtilization {
    /// `Σ Ci/Ti ≤ 1` (exact) — necessary and sufficient for implicit
    /// deadlines.
    pub at_most_one: bool,
    /// `Σ Ci/Ti < 1` (exact) — the precondition for finite busy periods and
    /// `tmax` bounds.
    pub below_one: bool,
}

/// Runs the exact utilisation test.
pub fn edf_utilization_test(set: &TaskSet) -> EdfUtilization {
    let u = cmp_utilization_one(
        set.tasks().iter().map(|t| (t.c.ticks(), t.t.ticks())),
        &mut 0,
    );
    EdfUtilization {
        at_most_one: u != Ordering::Greater,
        below_one: u == Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_one_is_schedulable_but_not_below() {
        let set = TaskSet::from_ct(&[(1, 2), (1, 4), (1, 4)]).unwrap();
        let r = edf_utilization_test(&set);
        assert!(r.at_most_one);
        assert!(!r.below_one);
    }

    #[test]
    fn below_one() {
        let set = TaskSet::from_ct(&[(1, 3), (1, 4)]).unwrap();
        let r = edf_utilization_test(&set);
        assert!(r.at_most_one);
        assert!(r.below_one);
    }

    #[test]
    fn above_one_fails() {
        let set = TaskSet::from_ct(&[(3, 4), (2, 4)]).unwrap();
        let r = edf_utilization_test(&set);
        assert!(!r.at_most_one);
        assert!(!r.below_one);
    }

    #[test]
    fn empty_set_is_schedulable() {
        let set = TaskSet::new(vec![]).unwrap();
        let r = edf_utilization_test(&set);
        assert!(r.at_most_one);
        assert!(r.below_one);
    }
}
