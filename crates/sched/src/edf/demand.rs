//! The processor-demand feasibility test for preemptive EDF — the paper's
//! eq. (3).
//!
//! For sporadic tasks with `Di ≤ Ti` (and more generally arbitrary
//! deadlines), preemptive EDF meets all deadlines iff the cumulative demand
//! of jobs with absolute deadlines at or before `t` never exceeds `t`:
//!
//! `∀t ≥ 0 :  h(t) ≤ t`
//!
//! The paper writes the demand as `h(t) = Σ ⌈(t − Di)/Ti⌉⁺ · Ci`
//! ([`DemandFormula::PaperCeiling`]); the standard form (Baruah et al. \[26\])
//! is `h(t) = Σ (⌊(t − Di)/Ti⌋ + 1)⁺ · Ci` ([`DemandFormula::Standard`]).
//! The two differ exactly at the checkpoints `t = k·Ti + Di`, where the
//! ceiling form misses the job whose deadline is exactly `t` — at `t = Di`
//! it counts zero jobs although one deadline elapses. `Standard` is the
//! correct (and default) test; `PaperCeiling` is kept for fidelity and the
//! B-A3 ablation (the `ablation_demand_formula` bench and the
//! `edf-demand-paper` policy of the `t2` campaign preset).
//!
//! `h` only steps at absolute deadlines `t ∈ S = ⋃{k·Ti + Di}`, and under
//! `U < 1` it suffices to check `t` up to the synchronous busy period `L`
//! (`tmax` in the paper's notation), so the test is finite.
//!
//! ### Fast path
//!
//! [`edf_feasible_preemptive`] no longer walks every checkpoint: above a
//! small instance size it runs the QPA-style backward scan of
//! the internal `qpa` module, which typically needs orders of magnitude fewer
//! demand evaluations, and falls back to the forward scan only to pinpoint
//! the *first* violation of an infeasible set. The forward scan itself is
//! retained — verbatim in semantics — as
//! [`edf_feasible_preemptive_exhaustive`], and now maintains `h(t)`
//! incrementally in O(steps) per checkpoint via
//! [`crate::checkpoints::Checkpoints::next_with_steppers`]. Both paths
//! return bit-identical verdicts and violation points (pinned by the
//! differential property tests); only `checked_points` — the number of
//! demand evaluations actually performed — reflects the chosen path.

use core::cmp::Ordering;

use profirt_base::{AnalysisResult, TaskSet, Time};

use crate::checkpoints::CheckpointScratch;
use crate::edf::busy_period::busy_period_if_below_one;
use crate::edf::qpa::{self, QpaOutcome};
use crate::fixpoint::FixpointConfig;
use crate::scratch::{AnalysisScratch, WarmState};

/// Which demand-bound job-count formula to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DemandFormula {
    /// `(⌊(t − Di)/Ti⌋ + 1)⁺` — counts the job with deadline exactly `t`
    /// (Baruah et al.; correct).
    #[default]
    Standard,
    /// `⌈(t − Di)/Ti⌉⁺` — the form printed in the paper's eq. (3);
    /// under-counts by one job per task at checkpoint instants.
    PaperCeiling,
}

/// Configuration for the demand test.
#[derive(Clone, Copy, Debug, Default)]
pub struct DemandConfig {
    /// Demand formula (default [`DemandFormula::Standard`]).
    pub formula: DemandFormula,
    /// Fixpoint limits for the busy-period bound.
    pub fixpoint: FixpointConfig,
}

/// Outcome of a feasibility test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Feasibility {
    /// `true` iff no checkpoint violated the test.
    pub feasible: bool,
    /// The first violating checkpoint and the demand measured there.
    pub violation: Option<(Time, Time)>,
    /// Number of demand evaluations performed. Path-dependent: the
    /// exhaustive scan counts checkpoints visited, the QPA fast path counts
    /// its (far fewer) backward iterations.
    pub checked_points: usize,
    /// The bound up to which checkpoints were enumerated (`tmax`).
    pub horizon: Time,
}

/// The processor demand `h(t)` for the chosen formula.
pub fn demand(set: &TaskSet, at: Time, formula: DemandFormula) -> Time {
    let mut total = Time::ZERO;
    for (_, task) in set.iter() {
        let x = at - task.d;
        let jobs = match formula {
            DemandFormula::Standard => x.floor_div_plus_one_pos(task.t),
            DemandFormula::PaperCeiling => x.ceil_div_pos(task.t),
        };
        total += task.c * jobs;
    }
    total
}

/// Shared guard prologue: the trivial verdicts and the scan horizon.
pub(crate) enum ScanPlan {
    /// Decided without enumerating any checkpoint.
    Done(Feasibility),
    /// Enumerate checkpoints up to the payload horizon (inclusive).
    UpTo(Time),
}

pub(crate) fn preemptive_plan(
    set: &TaskSet,
    config: &DemandConfig,
    warm: Option<&mut WarmState>,
    iters: &mut u64,
    exact_fallbacks: &mut u64,
) -> AnalysisResult<ScanPlan> {
    if set.is_empty() {
        return Ok(ScanPlan::Done(Feasibility {
            feasible: true,
            violation: None,
            checked_points: 0,
            horizon: Time::ZERO,
        }));
    }
    // Below full load, the busy period bounds every first deadline miss.
    match busy_period_if_below_one(
        set.tasks(),
        Time::ZERO,
        config.fixpoint,
        warm,
        iters,
        exact_fallbacks,
    )? {
        Ok(l) => return Ok(ScanPlan::UpTo(l)),
        Err(Ordering::Greater) => {
            return Ok(ScanPlan::Done(Feasibility {
                feasible: false,
                violation: None,
                checked_points: 0,
                horizon: Time::ZERO,
            }))
        }
        Err(_) => {}
    }
    if set.all_implicit_deadlines() {
        // U == 1 with implicit deadlines: schedulable by the exact
        // utilisation test; no demand check needed.
        return Ok(ScanPlan::Done(Feasibility {
            feasible: true,
            violation: None,
            checked_points: 0,
            horizon: Time::ZERO,
        }));
    }
    // U == 1 with constrained deadlines: check one hyperperiod plus the
    // largest deadline (a valid bound for the first miss at full load).
    Ok(ScanPlan::UpTo(
        set.hyperperiod()?
            .try_add(set.max_deadline().unwrap_or(Time::ZERO))?,
    ))
}

/// Loads the hoisted `(deadline, period, cost)` rows for `set`.
pub(crate) fn load_dpc(set: &TaskSet, dpc: &mut Vec<(Time, Time, Time)>) {
    dpc.clear();
    dpc.extend(set.iter().map(|(_, task)| (task.d, task.t, task.c)));
}

/// The exhaustive forward scan over every checkpoint, shared by the
/// preemptive and non-preemptive tests.
///
/// `h(t)` is maintained incrementally: each yielded checkpoint reports the
/// progressions that step there, and each step adds exactly one job of its
/// task, so the running standard demand advances in O(steps). The paper's
/// ceiling form equals the standard form one tick earlier
/// (`h_paper(t) = h_std(t − 1)`), i.e. the running sum *minus* the steps at
/// `t` — no second accumulator needed.
///
/// Blocking is `constant + suffix(t)`, where `suffix` is an optional
/// ascending `(deadline, max blocking among later deadlines)` table walked
/// by a monotone pointer (George's `max_{Di > t}(Ci − 1)` in O(1) amortised).
pub(crate) fn exhaustive_scan(
    checkpoints: &mut CheckpointScratch,
    progressions: &mut Vec<(Time, Time)>,
    dpc: &[(Time, Time, Time)],
    constant_blocking: Time,
    suffix_blocking: &[(Time, Time)],
    formula: DemandFormula,
    horizon: Time,
) -> Feasibility {
    progressions.clear();
    progressions.extend(dpc.iter().map(|&(d, p, _)| (d, p)));
    let mut cursor = checkpoints.start(progressions, horizon);
    let mut h_std = Time::ZERO;
    let mut checked = 0usize;
    let mut suffix_at = 0usize;
    while let Some((point, steppers)) = cursor.next_with_steppers() {
        checked += 1;
        let mut step_cost = Time::ZERO;
        for &i in steppers {
            step_cost += dpc[i].2;
        }
        h_std += step_cost;
        let h = match formula {
            DemandFormula::Standard => h_std,
            DemandFormula::PaperCeiling => h_std - step_cost,
        };
        let mut b = constant_blocking;
        if !suffix_blocking.is_empty() {
            while suffix_at < suffix_blocking.len() && suffix_blocking[suffix_at].0 <= point {
                suffix_at += 1;
            }
            if suffix_at < suffix_blocking.len() {
                b += suffix_blocking[suffix_at].1;
            }
        }
        if h + b > point {
            return Feasibility {
                feasible: false,
                violation: Some((point, h + b)),
                checked_points: checked,
                horizon,
            };
        }
    }
    Feasibility {
        feasible: true,
        violation: None,
        checked_points: checked,
        horizon,
    }
}

/// The preemptive-EDF feasibility test of eq. (3) — fast path.
///
/// Requires `Σ Ci/Ti < 1` for a finite horizon; `Σ Ci/Ti > 1` is reported
/// infeasible immediately (with no violating point recorded); `= 1` is
/// accepted only for implicit-deadline sets (where the utilisation test is
/// exact) and otherwise falls back to a hyperperiod-bounded check.
///
/// Selection rule: small instances (≤ a few hundred estimated checkpoints)
/// run the exhaustive scan directly; larger ones run the QPA backward scan
/// and only revisit the forward scan to locate the first violation of an
/// infeasible set. Verdict and violation point are identical to
/// [`edf_feasible_preemptive_exhaustive`] either way.
pub fn edf_feasible_preemptive(
    set: &TaskSet,
    config: &DemandConfig,
) -> AnalysisResult<Feasibility> {
    edf_feasible_preemptive_with(set, config, &mut AnalysisScratch::new())
}

/// [`edf_feasible_preemptive`] with caller-owned scratch buffers.
pub fn edf_feasible_preemptive_with(
    set: &TaskSet,
    config: &DemandConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<Feasibility> {
    let AnalysisScratch {
        checkpoints,
        progressions,
        dpc,
        warm,
        fixpoint_iters,
        exact_fallbacks,
        ..
    } = scratch;
    let horizon = match preemptive_plan(set, config, Some(warm), fixpoint_iters, exact_fallbacks)? {
        ScanPlan::Done(f) => return Ok(f),
        ScanPlan::UpTo(h) => h,
    };
    load_dpc(set, dpc);
    if qpa::estimated_points(dpc, horizon) > qpa::QPA_MIN_POINTS {
        if let QpaOutcome::Feasible(evals) =
            qpa::qpa_scan(dpc, config.formula, &[(Time::ZERO, Time::ZERO)], horizon)
        {
            return Ok(Feasibility {
                feasible: true,
                violation: None,
                checked_points: evals,
                horizon,
            });
        }
        // Violation or cap: the forward scan pinpoints the first violating
        // checkpoint (early exit) or settles the capped case exactly.
    }
    Ok(exhaustive_scan(
        checkpoints,
        progressions,
        dpc,
        Time::ZERO,
        &[],
        config.formula,
        horizon,
    ))
}

/// The exhaustive checkpoint-by-checkpoint reference for eq. (3).
///
/// Retained for the ablation studies and as the differential oracle the
/// fast path is tested against.
pub fn edf_feasible_preemptive_exhaustive(
    set: &TaskSet,
    config: &DemandConfig,
) -> AnalysisResult<Feasibility> {
    edf_feasible_preemptive_exhaustive_with(set, config, &mut AnalysisScratch::new())
}

/// [`edf_feasible_preemptive_exhaustive`] with caller-owned scratch.
pub fn edf_feasible_preemptive_exhaustive_with(
    set: &TaskSet,
    config: &DemandConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<Feasibility> {
    let AnalysisScratch {
        checkpoints,
        progressions,
        dpc,
        warm,
        fixpoint_iters,
        exact_fallbacks,
        ..
    } = scratch;
    let horizon = match preemptive_plan(set, config, Some(warm), fixpoint_iters, exact_fallbacks)? {
        ScanPlan::Done(f) => return Ok(f),
        ScanPlan::UpTo(h) => h,
    };
    load_dpc(set, dpc);
    Ok(exhaustive_scan(
        checkpoints,
        progressions,
        dpc,
        Time::ZERO,
        &[],
        config.formula,
        horizon,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn feasible(set: &TaskSet, formula: DemandFormula) -> Feasibility {
        edf_feasible_preemptive(
            set,
            &DemandConfig {
                formula,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn demand_steps_at_deadlines() {
        let set = TaskSet::from_cdt(&[(2, 5, 10)]).unwrap();
        // Standard formula: h(4)=0, h(5)=2, h(14)=2, h(15)=4.
        assert_eq!(demand(&set, t(4), DemandFormula::Standard), t(0));
        assert_eq!(demand(&set, t(5), DemandFormula::Standard), t(2));
        assert_eq!(demand(&set, t(14), DemandFormula::Standard), t(2));
        assert_eq!(demand(&set, t(15), DemandFormula::Standard), t(4));
        // Paper ceiling: one job late at each step.
        assert_eq!(demand(&set, t(5), DemandFormula::PaperCeiling), t(0));
        assert_eq!(demand(&set, t(6), DemandFormula::PaperCeiling), t(2));
        assert_eq!(demand(&set, t(15), DemandFormula::PaperCeiling), t(2));
    }

    #[test]
    fn paper_ceiling_never_exceeds_standard() {
        let set = TaskSet::from_cdt(&[(1, 3, 7), (2, 9, 11), (1, 4, 5)]).unwrap();
        for x in 0..200 {
            let s = demand(&set, t(x), DemandFormula::Standard);
            let p = demand(&set, t(x), DemandFormula::PaperCeiling);
            assert!(p <= s, "at t={x}: paper {p:?} > standard {s:?}");
        }
    }

    #[test]
    fn implicit_deadline_feasibility_matches_utilization() {
        // U = 11/12 < 1 implicit deadlines: feasible.
        let set = TaskSet::from_ct(&[(1, 2), (1, 3), (1, 12)]).unwrap();
        assert!(feasible(&set, DemandFormula::Standard).feasible);
        // U = 1 exactly, implicit: feasible via the exact utilisation test.
        let full = TaskSet::from_ct(&[(1, 2), (1, 2)]).unwrap();
        assert!(feasible(&full, DemandFormula::Standard).feasible);
        // U > 1: infeasible.
        let over = TaskSet::from_ct(&[(2, 3), (2, 3)]).unwrap();
        assert!(!feasible(&over, DemandFormula::Standard).feasible);
    }

    #[test]
    fn constrained_deadline_violation_found() {
        // Two tasks with D < T that jointly overload an early interval:
        // τ0=(3,3,10), τ1=(3,4,10): at t=4 demand = 3+3 = 6 > 4.
        let set = TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap();
        let r = feasible(&set, DemandFormula::Standard);
        assert!(!r.feasible);
        let (point, h) = r.violation.unwrap();
        assert_eq!(point, t(4));
        assert_eq!(h, t(6));
    }

    #[test]
    fn paper_ceiling_misses_boundary_violation() {
        // Same set as above: the ceiling form sees h(3)=0, h(4)=3 <= 4 ...
        // it only accumulates one period later, so it wrongly accepts some
        // early-deadline overloads — the B-A3 ablation in action.
        let set = TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap();
        let std = feasible(&set, DemandFormula::Standard);
        let paper = feasible(&set, DemandFormula::PaperCeiling);
        assert!(!std.feasible);
        assert!(
            paper.feasible,
            "ceiling formula is optimistic at boundaries"
        );
    }

    #[test]
    fn horizon_is_busy_period_for_u_below_one() {
        let set = TaskSet::from_cdt(&[(26, 70, 70), (62, 180, 200)]).unwrap();
        let r = feasible(&set, DemandFormula::Standard);
        // L for C=(26,62),T=(70,200) is 114.
        assert_eq!(r.horizon, t(114));
        assert!(r.checked_points > 0);
    }

    #[test]
    fn checkpoints_only_in_horizon() {
        let set = TaskSet::from_cdt(&[(1, 100, 1000)]).unwrap();
        let r = feasible(&set, DemandFormula::Standard);
        // Busy period is 1; only deadlines <= 1 checked: none (D=100 > 1).
        assert!(r.feasible);
        assert_eq!(r.checked_points, 0);
    }

    #[test]
    fn empty_set_feasible() {
        let set = TaskSet::new(vec![]).unwrap();
        let r = feasible(&set, DemandFormula::Standard);
        assert!(r.feasible);
    }

    #[test]
    fn u_equal_one_constrained_uses_hyperperiod_horizon() {
        // U = 1 with a constrained deadline: must actually check demand.
        // τ0=(1,1,2), τ1=(1,2,2): at t=1 demand=1 <= 1; at t=2: 1+1+...
        // h(2) = (⌊1/2⌋+1)*1 + (⌊0/2⌋+1)*1 = 2 <= 2; t=3: h= (⌊2/2⌋+1)+(...)=2+1=3 <= 3; feasible.
        let set = TaskSet::from_cdt(&[(1, 1, 2), (1, 2, 2)]).unwrap();
        let r = feasible(&set, DemandFormula::Standard);
        assert!(r.feasible);
        assert!(r.checked_points > 0);

        // τ0=(1,1,2), τ1=(2,2,4): U = 1/2+1/2 = 1 with tight joint demand:
        // t=2: h = 1 + 2 = 3 > 2: infeasible.
        let bad = TaskSet::from_cdt(&[(1, 1, 2), (2, 2, 4)]).unwrap();
        let r = feasible(&bad, DemandFormula::Standard);
        assert!(!r.feasible);
        assert!(r.violation.is_some());
    }

    #[test]
    fn fast_and_exhaustive_agree_on_small_batch() {
        let sets = [
            TaskSet::from_cdt(&[(1, 4, 5), (2, 6, 10), (3, 15, 20)]).unwrap(),
            TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap(),
            TaskSet::from_cdt(&[(1, 1, 2), (2, 2, 4)]).unwrap(),
            TaskSet::from_cdt(&[(26, 70, 70), (62, 180, 200)]).unwrap(),
        ];
        let mut scratch = AnalysisScratch::new();
        for set in &sets {
            for formula in [DemandFormula::Standard, DemandFormula::PaperCeiling] {
                let cfg = DemandConfig {
                    formula,
                    ..Default::default()
                };
                let fast = edf_feasible_preemptive_with(set, &cfg, &mut scratch).unwrap();
                let refr = edf_feasible_preemptive_exhaustive(set, &cfg).unwrap();
                assert_eq!(fast.feasible, refr.feasible, "{set:?} {formula:?}");
                assert_eq!(fast.violation, refr.violation, "{set:?} {formula:?}");
                assert_eq!(fast.horizon, refr.horizon, "{set:?} {formula:?}");
            }
        }
    }

    #[test]
    fn qpa_path_engages_on_large_horizons() {
        // 31 staggered-deadline light tasks plus one heavy long-period task
        // at U ≈ 0.96: the heavy cost stretches the busy period across ~14
        // light periods, so the checkpoint set runs to hundreds of distinct
        // points and the fast front must take the QPA branch, examining far
        // fewer points than the exhaustive scan.
        let mut tasks: Vec<profirt_base::Task> = (0..31i64)
            .map(|i| profirt_base::Task::new(28, 970 + i, 1_000).unwrap())
            .collect();
        tasks.push(profirt_base::Task::implicit(1_800, 20_000).unwrap());
        let set = TaskSet::new(tasks).unwrap();
        assert!(set.total_utilization().lt_one());
        let fast = feasible(&set, DemandFormula::Standard);
        let refr = edf_feasible_preemptive_exhaustive(&set, &DemandConfig::default()).unwrap();
        assert_eq!(fast.feasible, refr.feasible);
        assert_eq!(fast.violation, refr.violation);
        assert!(fast.feasible, "implicit deadlines under U < 1 are feasible");
        assert!(
            refr.checked_points > 256,
            "fixture too small: {} points",
            refr.checked_points
        );
        assert!(
            fast.checked_points * 4 < refr.checked_points,
            "QPA examined {} of {} points",
            fast.checked_points,
            refr.checked_points
        );
    }
}
