//! QPA-style backward demand scanning.
//!
//! The exhaustive demand tests (eqs. (3)–(5)) visit *every* absolute
//! deadline in `[0, horizon]` — for high utilisations that is
//! `Σ horizon/Ti` points. Zhang & Burns' Quick Processor-demand Analysis
//! (QPA, IEEE TSE 2009) observes that iterating `t ← h(t)` *downward* from
//! the horizon skips almost all of them: the sequence decreases at least as
//! fast as the demand function allows, and a violation — if one exists —
//! can never be jumped over, because `h` is nondecreasing: for any
//! violating point `v ≤ t`, `h(t) ≥ h(v) > v`, so the next iterate stays
//! above `v`.
//!
//! This module decides exactly the condition the exhaustive references
//! check — the *sampled* test
//!
//! `∀s ∈ S ∩ [0, horizon] :  h(s) + b(s) ≤ s`
//!
//! where `S = ⋃{k·Ti + Di}` is the checkpoint set, `h` is either demand
//! formula of [`crate::edf::demand::DemandFormula`] and `b` is a
//! piecewise-constant, non-increasing blocking term (zero for the
//! preemptive test, `max Ci` for Zheng–Shin, the deadline-dependent
//! `max_{Di>t}(Ci−1)` for George). Two scan modes cover the cases:
//!
//! * **Direct jumps** (`Standard` formula, constant blocking): for the
//!   standard demand-bound function the sampled and continuous conditions
//!   coincide on `t ≥ min Di`, so the scan iterates `t ← h(t) + b` over
//!   arbitrary points — one O(n) demand evaluation per iterate.
//! * **Checkpoint-rounded segments** (`PaperCeiling`, or George's
//!   deadline-dependent blocking): the paper's ceiling form is *defined* by
//!   its values at the checkpoints (it is deliberately optimistic between
//!   them), and George's blocking is only constant between deadlines, so
//!   the scan rounds every jump down to the largest checkpoint and runs
//!   segment by segment (at most `n + 1` segments, highest first). Within a
//!   segment the test function is nondecreasing and the jump argument
//!   applies verbatim.
//!
//! The scan returns *some* violating checkpoint or a proof that none
//! exists; callers that must report the **first** violation (to match the
//! exhaustive reference exactly) re-run the cheap early-exiting forward
//! scan on the infeasible outcome. A defensive evaluation cap turns
//! pathological convergence into an explicit "fall back to exhaustive"
//! signal instead of a slow scan.

use profirt_base::Time;

use crate::edf::demand::DemandFormula;

/// Result of a backward QPA scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum QpaOutcome {
    /// No checkpoint in `[0, horizon]` violates; the payload is the number
    /// of demand evaluations performed.
    Feasible(usize),
    /// The payload checkpoint violates the test (it need not be the first
    /// violating checkpoint).
    Violation(Time),
    /// The evaluation cap was hit before the scan finished; the caller must
    /// fall back to the exhaustive reference.
    Incomplete,
}

/// The demand `h(t)` over hoisted `(deadline, period, cost)` rows —
/// identical to [`crate::edf::demand::demand`] but without the `TaskSet`
/// indirection.
#[inline]
pub(crate) fn demand_dpc(dpc: &[(Time, Time, Time)], at: Time, formula: DemandFormula) -> Time {
    let mut total = Time::ZERO;
    for &(d, p, c) in dpc {
        let x = at - d;
        let jobs = match formula {
            DemandFormula::Standard => x.floor_div_plus_one_pos(p),
            DemandFormula::PaperCeiling => x.ceil_div_pos(p),
        };
        total += c * jobs;
    }
    total
}

/// The largest checkpoint `k·Ti + Di ≤ x`, or `None` if every deadline
/// exceeds `x`.
#[inline]
fn prev_checkpoint(dpc: &[(Time, Time, Time)], x: Time) -> Option<Time> {
    let mut best: Option<Time> = None;
    for &(d, p, _) in dpc {
        if d > x {
            continue;
        }
        let cp = d + p * (x - d).floor_div(p);
        if best.is_none_or(|b| cp > b) {
            best = Some(cp);
        }
    }
    best
}

/// Estimated number of checkpoints in `[0, horizon]` — the quantity the
/// exhaustive scan would enumerate. Saturating; used only for the
/// fast-vs-exhaustive selection heuristic.
pub(crate) fn estimated_points(dpc: &[(Time, Time, Time)], horizon: Time) -> u64 {
    let mut total: u64 = 0;
    for &(d, p, _) in dpc {
        if d > horizon {
            continue;
        }
        let count = (horizon - d).floor_div(p).max(0) as u64 + 1;
        total = total.saturating_add(count);
    }
    total
}

/// Below this many estimated checkpoints the exhaustive scan is already
/// cheap (and yields `checked_points` / first-violation data for free), so
/// the fast fronts select it directly.
pub(crate) const QPA_MIN_POINTS: u64 = 256;

fn eval_cap(n: usize) -> usize {
    4096 + 16 * n
}

/// Backward QPA scan of `h(t) + b(t) ≤ t` over every checkpoint in
/// `[0, horizon]`.
///
/// `segments` lists `(start, blocking)` rows in strictly descending start
/// order; row `k` applies to `t ∈ [start_k, start_{k-1})` (the first row up
/// to `horizon` inclusive). The final row must start at or below the
/// smallest checkpoint — pass `[(Time::ZERO, b)]` for constant blocking.
pub(crate) fn qpa_scan(
    dpc: &[(Time, Time, Time)],
    formula: DemandFormula,
    segments: &[(Time, Time)],
    horizon: Time,
) -> QpaOutcome {
    debug_assert!(
        segments.windows(2).all(|w| w[0].0 > w[1].0),
        "segments must descend by start"
    );
    if formula == DemandFormula::Standard && segments.len() == 1 {
        direct_scan(dpc, segments[0].1, horizon)
    } else {
        rounded_scan(dpc, formula, segments, horizon)
    }
}

/// Direct-jump scan: `Standard` demand, constant blocking. For the standard
/// DBF the sampled and continuous conditions agree on `t ≥ min Di` (the
/// function is flat between checkpoints and steps *at* them), so iterating
/// over arbitrary points is exact and each iterate costs one demand pass.
fn direct_scan(dpc: &[(Time, Time, Time)], blocking: Time, horizon: Time) -> QpaOutcome {
    let Some(dmin) = dpc.iter().map(|&(d, _, _)| d).min() else {
        return QpaOutcome::Feasible(0);
    };
    let Some(mut t) = prev_checkpoint(dpc, horizon) else {
        return QpaOutcome::Feasible(0);
    };
    let cap = eval_cap(dpc.len());
    let mut evals = 0usize;
    loop {
        evals += 1;
        if evals > cap {
            return QpaOutcome::Incomplete;
        }
        let f = demand_dpc(dpc, t, DemandFormula::Standard) + blocking;
        if f > t {
            // t >= dmin throughout, so the rounded-down checkpoint exists
            // and carries the same demand: it is a genuine violation. Should
            // that invariant ever fail, the exhaustive reference decides.
            return match prev_checkpoint(dpc, t) {
                Some(s) => QpaOutcome::Violation(s),
                None => QpaOutcome::Incomplete,
            };
        }
        if f < dmin {
            return QpaOutcome::Feasible(evals);
        }
        if f < t {
            t = f;
        } else {
            // f == t: move strictly below t to keep decreasing.
            match prev_checkpoint(dpc, t - Time::ONE) {
                Some(s) => t = s,
                None => return QpaOutcome::Feasible(evals),
            }
        }
    }
}

/// Checkpoint-rounded, segment-by-segment scan — exact for both demand
/// formulas and for piecewise-constant blocking.
fn rounded_scan(
    dpc: &[(Time, Time, Time)],
    formula: DemandFormula,
    segments: &[(Time, Time)],
    horizon: Time,
) -> QpaOutcome {
    let cap = eval_cap(dpc.len());
    let mut evals = 0usize;
    let mut hi = horizon;
    for &(lo, blocking) in segments {
        if hi < Time::ZERO {
            break;
        }
        // Largest checkpoint in this segment's range [lo, hi].
        let mut t = match prev_checkpoint(dpc, hi) {
            Some(v) => v,
            None => {
                hi = lo - Time::ONE;
                continue;
            }
        };
        while t >= lo {
            evals += 1;
            if evals > cap {
                return QpaOutcome::Incomplete;
            }
            let f = demand_dpc(dpc, t, formula) + blocking;
            if f > t {
                return QpaOutcome::Violation(t);
            }
            // Jump: any violating checkpoint v <= t in this segment has
            // v < f, so the largest checkpoint <= min(f, t-1) cannot skip
            // it — and strictly decreases t.
            let target = if f < t { f } else { t - Time::ONE };
            match prev_checkpoint(dpc, target) {
                Some(next) => t = next,
                None => break,
            }
        }
        hi = lo - Time::ONE;
    }
    QpaOutcome::Feasible(evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::TaskSet;

    fn dpc(set: &TaskSet) -> Vec<(Time, Time, Time)> {
        set.iter().map(|(_, tk)| (tk.d, tk.t, tk.c)).collect()
    }

    const NO_BLOCKING: [(Time, Time); 1] = [(Time::ZERO, Time::ZERO)];

    #[test]
    fn demand_dpc_matches_set_demand() {
        let set = TaskSet::from_cdt(&[(2, 5, 10), (3, 7, 9)]).unwrap();
        let rows = dpc(&set);
        for x in 0..60 {
            for f in [DemandFormula::Standard, DemandFormula::PaperCeiling] {
                assert_eq!(
                    demand_dpc(&rows, t(x), f),
                    crate::edf::demand::demand(&set, t(x), f)
                );
            }
        }
    }

    #[test]
    fn prev_checkpoint_is_largest_at_or_below() {
        let set = TaskSet::from_cdt(&[(1, 4, 10), (1, 6, 14)]).unwrap();
        let rows = dpc(&set);
        // Checkpoints: {4,14,24,...} ∪ {6,20,34,...}.
        assert_eq!(prev_checkpoint(&rows, t(3)), None);
        assert_eq!(prev_checkpoint(&rows, t(4)), Some(t(4)));
        assert_eq!(prev_checkpoint(&rows, t(5)), Some(t(4)));
        assert_eq!(prev_checkpoint(&rows, t(13)), Some(t(6)));
        assert_eq!(prev_checkpoint(&rows, t(25)), Some(t(24)));
    }

    #[test]
    fn estimated_points_counts_exactly_for_simple_sets() {
        let set = TaskSet::from_cdt(&[(1, 5, 10)]).unwrap();
        // {5, 15, 25} within 30.
        assert_eq!(estimated_points(&dpc(&set), t(30)), 3);
        // Deadline beyond the horizon: zero points.
        assert_eq!(estimated_points(&dpc(&set), t(4)), 0);
    }

    #[test]
    fn qpa_detects_known_violation() {
        // τ0=(3,3,10), τ1=(3,4,10): first violation at t=4 (h=6).
        let set = TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap();
        let rows = dpc(&set);
        match qpa_scan(&rows, DemandFormula::Standard, &NO_BLOCKING, t(40)) {
            QpaOutcome::Violation(v) => {
                // Some violating checkpoint — verify it really violates.
                assert!(demand_dpc(&rows, v, DemandFormula::Standard) > v);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn qpa_accepts_feasible_set() {
        let set = TaskSet::from_cdt(&[(1, 4, 5), (2, 6, 10), (3, 15, 20)]).unwrap();
        let rows = dpc(&set);
        match qpa_scan(&rows, DemandFormula::Standard, &NO_BLOCKING, t(200)) {
            QpaOutcome::Feasible(evals) => assert!(evals > 0),
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn rounded_scan_matches_direct_scan_for_standard_formula() {
        let sets = [
            TaskSet::from_cdt(&[(1, 4, 5), (2, 6, 10), (3, 15, 20)]).unwrap(),
            TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap(),
            TaskSet::from_cdt(&[(2, 5, 5), (1, 9, 9), (1, 18, 18)]).unwrap(),
        ];
        for set in &sets {
            let rows = dpc(set);
            let direct = direct_scan(&rows, Time::ZERO, t(300));
            let rounded = rounded_scan(&rows, DemandFormula::Standard, &NO_BLOCKING, t(300));
            let agree = matches!(
                (direct, rounded),
                (QpaOutcome::Feasible(_), QpaOutcome::Feasible(_))
                    | (QpaOutcome::Violation(_), QpaOutcome::Violation(_))
            );
            assert!(agree, "{set:?}: direct {direct:?} vs rounded {rounded:?}");
        }
    }
}
