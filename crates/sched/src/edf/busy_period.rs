//! The synchronous busy period.
//!
//! The length `L` of the *synchronous busy period* — the interval of
//! continuous processor demand when all tasks are released together at their
//! maximum rate — is the least positive fixpoint of
//!
//! `L = W(L)`,  `W(t) = Σ_i ⌈(t + Ji)/Ti⌉ · Ci`
//!
//! iterated from `L⁰ = Σ Ci` (the recurrence printed after the paper's
//! eq. (10); a task released up to `Ji` late can have `⌈(t + Ji)/Ti⌉` jobs
//! in a window of length `t`, the count eq. (18) uses for messages). It
//! exists iff total utilisation is `< 1` and bounds both the EDF
//! demand-test checkpoints (eq. (3)) and the arrival candidates of the EDF
//! response-time analyses (eqs. (8), (10)).

use core::cmp::Ordering;

use profirt_base::{cmp_utilization_one, AnalysisError, AnalysisResult, Task, TaskSet, Time};

use crate::fixpoint::{fixpoint_counted, FixOutcome, FixpointConfig};
use crate::scratch::WarmState;
use crate::soa;

/// The busy period `l = B + Σ ⌈(l + Ji)/Ti⌉·Ci` over task rows, with the
/// errors of [`synchronous_busy_period`] — the form the scratch-threaded
/// analyses use internally. See [`busy_period_if_below_one`] for the
/// warm start and the utilisation check.
pub(crate) fn busy_period_warm(
    tasks: &[Task],
    blocking: Time,
    config: FixpointConfig,
    warm: Option<&mut WarmState>,
    iters: &mut u64,
    exact_fallbacks: &mut u64,
) -> AnalysisResult<Time> {
    busy_period_if_below_one(tasks, blocking, config, warm, iters, exact_fallbacks)?
        .map_err(|_| AnalysisError::UtilizationAtLeastOne)
}

/// The busy period over task rows when `Σ Ci/Ti < 1`, else `Ok(Err(o))`
/// with `o` the ordering of `Σ Ci/Ti` against 1 (`Equal` or `Greater`).
/// The iteration body is the [`soa::busy_step`] kernel over the flat row
/// slice.
///
/// Cold start seeds at `B + Σ Ci`. When a [`WarmState`] is supplied and
/// holds the least fixpoint of *exactly* this `(B, (Ci, Ti, Ji))` input, the
/// iteration is seeded there instead and converges in one evaluation
/// (`W(L) = L`); a converged cold run populates the memo. The busy period
/// reads neither deadlines nor a policy, so one memo entry serves every
/// analysis variant of the same workload.
///
/// The utilisation check ([`cmp_utilization_one`], counting its exact
/// fallbacks into `exact_fallbacks`) runs only on a memo miss. A hit is
/// exact without it: the memo is keyed on every row's `(Ci, Ti, Ji)`, and
/// only this function stores into it, after the check passed on the same
/// `(Ci, Ti)` columns.
pub(crate) fn busy_period_if_below_one(
    tasks: &[Task],
    blocking: Time,
    config: FixpointConfig,
    warm: Option<&mut WarmState>,
    iters: &mut u64,
    exact_fallbacks: &mut u64,
) -> AnalysisResult<Result<Time, Ordering>> {
    if tasks.is_empty() {
        return Err(AnalysisError::EmptySet);
    }
    let memo = warm.as_ref().and_then(|w| w.lookup_busy(blocking, tasks));
    let seed = match memo {
        Some(lfp) => lfp,
        None => {
            let rows = tasks.iter().map(|t| (t.c.ticks(), t.t.ticks()));
            let u = cmp_utilization_one(rows, exact_fallbacks);
            if u != Ordering::Less {
                return Ok(Err(u));
            }
            let mut seed = blocking;
            for task in tasks {
                seed = seed.try_add(task.c)?;
            }
            seed
        }
    };
    let outcome = fixpoint_counted("busy-period", seed, Time::MAX, config, iters, |l| {
        soa::busy_step(tasks, blocking, l)
    })?;
    match outcome {
        FixOutcome::Converged(l) => {
            if memo.is_none() {
                if let Some(w) = warm {
                    w.store_busy(blocking, tasks, l);
                }
            }
            Ok(Ok(l))
        }
        // Unreachable with bound = Time::MAX short of overflow, which the
        // kernel reports itself.
        FixOutcome::ExceededBound(_) => Err(AnalysisError::Overflow {
            context: "busy period bound",
        }),
    }
}

/// Computes the synchronous busy period `L`.
///
/// # Errors
/// * [`AnalysisError::UtilizationAtLeastOne`] if `Σ Ci/Ti ≥ 1` (the fixpoint
///   does not exist).
/// * [`AnalysisError::EmptySet`] for an empty set (no busy period).
/// * Iteration-cap / overflow errors from pathological inputs.
pub fn synchronous_busy_period(set: &TaskSet, config: FixpointConfig) -> AnalysisResult<Time> {
    busy_period_warm(set.tasks(), Time::ZERO, config, None, &mut 0, &mut 0)
}

/// Computes the blocking-extended busy period: the least fixpoint of
/// `t = B + Σ ⌈(t + Ji)/Ti⌉·Ci`.
///
/// Under non-preemptive dispatching a busy interval can open with a blocker
/// of length up to `B = max Ci`; the extended fixpoint safely bounds the
/// first deadline miss and the arrival candidates of the non-preemptive EDF
/// response-time analysis. It dominates the plain synchronous busy period,
/// so using it where the paper uses `L` only adds (sound) checkpoints.
pub fn nonpreemptive_busy_period(
    set: &TaskSet,
    blocking: Time,
    config: FixpointConfig,
) -> AnalysisResult<Time> {
    busy_period_warm(set.tasks(), blocking, config, None, &mut 0, &mut 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn l(set: &TaskSet) -> Time {
        synchronous_busy_period(set, FixpointConfig::default()).unwrap()
    }

    #[test]
    fn single_task() {
        let set = TaskSet::from_ct(&[(3, 10)]).unwrap();
        assert_eq!(l(&set), t(3));
    }

    #[test]
    fn textbook_busy_period() {
        // C=(26,62), T=(70,200): L0=88, W(88)=2*26+62=114,
        // W(114)=2*26+62=114 ✓.
        let set = TaskSet::from_ct(&[(26, 70), (62, 200)]).unwrap();
        assert_eq!(l(&set), t(114));
    }

    #[test]
    fn busy_period_at_least_total_cost() {
        let set = TaskSet::from_ct(&[(1, 4), (1, 6), (2, 13)]).unwrap();
        assert!(l(&set) >= set.total_cost());
    }

    #[test]
    fn utilization_one_is_rejected() {
        let set = TaskSet::from_ct(&[(1, 2), (1, 2)]).unwrap();
        assert_eq!(
            synchronous_busy_period(&set, FixpointConfig::default()).unwrap_err(),
            AnalysisError::UtilizationAtLeastOne
        );
    }

    #[test]
    fn empty_set_is_rejected() {
        let set = TaskSet::new(vec![]).unwrap();
        assert_eq!(
            synchronous_busy_period(&set, FixpointConfig::default()).unwrap_err(),
            AnalysisError::EmptySet
        );
    }

    #[test]
    fn busy_period_grows_with_utilization() {
        let lo = TaskSet::from_ct(&[(1, 10), (1, 15)]).unwrap();
        let hi = TaskSet::from_ct(&[(4, 10), (5, 15)]).unwrap();
        assert!(l(&hi) > l(&lo));
    }

    #[test]
    fn np_busy_period_dominates_plain() {
        let set = TaskSet::from_ct(&[(26, 70), (62, 200)]).unwrap();
        let plain = l(&set);
        let blocked = nonpreemptive_busy_period(&set, t(62), FixpointConfig::default()).unwrap();
        assert!(blocked >= plain);
        // With zero blocking they coincide.
        let zero = nonpreemptive_busy_period(&set, Time::ZERO, FixpointConfig::default()).unwrap();
        assert_eq!(zero, plain);
    }

    #[test]
    fn np_busy_period_fixpoint_property() {
        let set = TaskSet::from_ct(&[(2, 5), (3, 11)]).unwrap();
        let b = t(7);
        let val = nonpreemptive_busy_period(&set, b, FixpointConfig::default()).unwrap();
        let w = |x: Time| b + t(x.ceil_div(t(5)).max(1) * 2) + t(x.ceil_div(t(11)).max(1) * 3);
        assert_eq!(w(val), val);
    }

    #[test]
    fn warm_memo_hits_are_result_identical_and_one_shot() {
        let set = TaskSet::from_ct(&[(9, 10), (9, 100)]).unwrap();
        let cfg = FixpointConfig::default();
        let mut warm = WarmState::default();
        let (mut cold_iters, mut warm_iters) = (0u64, 0u64);
        let cold = busy_period_warm(
            set.tasks(),
            Time::ZERO,
            cfg,
            Some(&mut warm),
            &mut cold_iters,
            &mut 0,
        )
        .unwrap();
        let hit = busy_period_warm(
            set.tasks(),
            Time::ZERO,
            cfg,
            Some(&mut warm),
            &mut warm_iters,
            &mut 0,
        )
        .unwrap();
        assert_eq!(cold, hit);
        assert!(cold_iters > 1, "cold run iterates: {cold_iters}");
        assert_eq!(warm_iters, 1, "warm hit re-verifies in one evaluation");
        // A different blocking term misses the memo and iterates cold.
        let mut miss_iters = 0u64;
        let blocked = busy_period_warm(
            set.tasks(),
            t(8),
            cfg,
            Some(&mut warm),
            &mut miss_iters,
            &mut 0,
        )
        .unwrap();
        assert_eq!(blocked, nonpreemptive_busy_period(&set, t(8), cfg).unwrap());
        assert!(miss_iters > 1);
    }

    #[test]
    fn jitter_extends_the_busy_period_and_its_memo_key() {
        // (9, 10) and (9, 100): W(t) = ⌈(t + J0)/10⌉·9 + ⌈t/100⌉·9. Without
        // jitter L = 90; with J0 = 5, L = 495 = 50·9 + 5·9.
        let plain = TaskSet::from_ct(&[(9, 10), (9, 100)]).unwrap();
        let jittered = TaskSet::new(vec![
            Task::with_jitter(9, 10, 10, 5).unwrap(),
            Task::implicit(9, 100).unwrap(),
        ])
        .unwrap();
        let cfg = FixpointConfig::default();
        assert_eq!(l(&jittered), t(495));
        // One warm state serves both sets and each still gets its own
        // least fixpoint.
        let mut warm = WarmState::default();
        for set in [&plain, &jittered, &plain, &jittered] {
            let got = busy_period_warm(
                set.tasks(),
                Time::ZERO,
                cfg,
                Some(&mut warm),
                &mut 0,
                &mut 0,
            )
            .unwrap();
            assert_eq!(got, l(set));
        }
    }

    #[test]
    fn high_utilization_long_busy_period() {
        // U = 9/10 + small: busy period spans many periods.
        let set = TaskSet::from_ct(&[(9, 10), (9, 100)]).unwrap();
        // W(t) = ⌈t/10⌉9 + ⌈t/100⌉9; iterates 18, 27, ..., 90; W(90) = 90.
        let val = l(&set);
        assert_eq!(val, t(90));
        // Verify it is a genuine fixpoint.
        let w = |x: Time| t(x.ceil_div(t(10)) * 9) + t(x.ceil_div(t(100)) * 9);
        assert_eq!(w(val), val);
    }
}
