//! Structure-of-arrays summation kernels for the analysis fixpoints.
//!
//! Guarding every addition and multiplication of a fixpoint closure
//! individually (`try_add`/`try_mul`) is the right shape for one-off
//! sums, but the busy-period steps, the fixed-priority RTA interference
//! and the deadline-capped interference of the EDF response-time scan run
//! in the innermost loops of every analysis, and the batch entry points in
//! [`crate::edf::batch`] and [`crate::fixed::batch`] run them once per
//! parameter variant of the same workload. The callers hoist their terms
//! into flat slices (the task rows, or `(period, cost, jitter[, cap])`
//! tuples kept in [`crate::AnalysisScratch`]); the kernels here sum those
//! branch-light, accumulating in `i128` and performing a single range
//! check at the end.
//!
//! Every kernel computes exactly the same value as its scalar counterpart
//! whenever that counterpart succeeds: all inputs are validated `Time`
//! values (costs and periods positive, iterates and jitters non-negative),
//! so each job count is an exact `u64` quotient, each term fits in `i128`
//! with no intermediate overflow, and a final sum above
//! `i64::MAX` reports the same [`AnalysisError::Overflow`] the guarded
//! scalar arithmetic would have hit mid-loop.

use profirt_base::{AnalysisError, AnalysisResult, Task, Time};

/// Converts an `i128` accumulator back to `Time`, reporting overflow with
/// the caller's context label.
#[inline]
fn to_time(sum: i128, context: &'static str) -> AnalysisResult<Time> {
    if sum > i64::MAX as i128 || sum < i64::MIN as i128 {
        Err(AnalysisError::Overflow { context })
    } else {
        Ok(Time::new(sum as i64))
    }
}

/// Jobs of a `(T, J)` row in a window `w >= 0`: `⌈(w + J) / T⌉`, or
/// `⌊(w + J) / T⌋ + 1` with `floor_plus_one`. `w + J` of two non-negative
/// `i64` values fits in `u64`, whose division, unlike `i128`'s, is one
/// hardware instruction — these quotients dominate the fixpoints.
#[inline]
fn jobs_in(w: u64, t: Time, j: Time, floor_plus_one: bool) -> i128 {
    let x = w + j.ticks() as u64;
    let t = t.ticks() as u64;
    let extra = if floor_plus_one {
        1
    } else {
        u64::from(!x.is_multiple_of(t))
    };
    (x / t + extra) as i128
}

/// One busy-period iteration: `blocking + Σ_i max(⌈(l + J_i) / T_i⌉, 1) · C_i`
/// over the `(cost, period, jitter)` view of `tasks`, for an iterate
/// `l >= 0`.
pub fn busy_step(tasks: &[Task], blocking: Time, l: Time) -> AnalysisResult<Time> {
    let lv = l.ticks() as u64;
    let mut sum = blocking.ticks() as i128;
    for task in tasks {
        let n_jobs = jobs_in(lv, task.t, task.j, false).max(1);
        sum += n_jobs * task.c.ticks() as i128;
    }
    to_time(sum, "busy period bound")
}

/// One fixed-priority RTA interference sum over `(period, cost, jitter)`
/// terms: `Σ_j ⌈(w + J_j) / T_j⌉ · C_j` for an iterate `w >= 0`.
pub fn interference(terms: &[(Time, Time, Time)], w: Time) -> AnalysisResult<Time> {
    let wv = w.ticks() as u64;
    let mut sum = 0i128;
    for &(t, c, j) in terms {
        sum += jobs_in(wv, t, j, false) * c.ticks() as i128;
    }
    to_time(sum, "rta interference")
}

/// One non-preemptive fixed-priority interference sum over
/// `(period, cost, _)` terms: `Σ_j (⌊w / T_j⌋ + 1) · C_j` for `w >= 0`
/// (the George start-delay form; the Audsley form is [`interference`] with
/// zero jitter).
pub fn np_interference(terms: &[(Time, Time, Time)], w: Time) -> AnalysisResult<Time> {
    let wv = w.ticks() as u64;
    let mut sum = 0i128;
    for &(t, c, _) in terms {
        sum += jobs_in(wv, t, Time::ZERO, true) * c.ticks() as i128;
    }
    to_time(sum, "rta interference")
}

/// One deadline-capped interference sum over `(period, cost, jitter, cap)`
/// terms: `Σ_j C_j · max(min(n_time(w + J_j, T_j), cap_j), 0)` where
/// `n_time(x, T)` is `⌈x / T⌉` for the preemptive EDF busy window and
/// `⌊x / T⌋ + 1` for the non-preemptive one (`floor_plus_one`).
pub fn capped_interference(
    caps: &[(Time, Time, Time, i64)],
    w: Time,
    floor_plus_one: bool,
) -> AnalysisResult<Time> {
    let wv = w.ticks() as u64;
    let mut sum = 0i128;
    for &(t, c, j, cap) in caps {
        let by_time = jobs_in(wv, t, j, floor_plus_one);
        sum += c.ticks() as i128 * by_time.min(cap as i128).max(0);
    }
    to_time(sum, "edf-rta interference")
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn tasks() -> Vec<Task> {
        vec![
            Task::new(t(2), t(7), t(10)).unwrap(),
            Task::new(t(3), t(15), t(15)).unwrap(),
            Task::new(t(5), t(40), t(50)).unwrap(),
        ]
    }

    #[test]
    fn busy_step_matches_scalar_form() {
        let ts = tasks();
        // l = 0: every task contributes max(0, 1) = 1 job.
        assert_eq!(busy_step(&ts, t(4), t(0)).unwrap(), t(4 + 2 + 3 + 5));
        // l = 30: ceil(30/10)=3, ceil(30/15)=2, ceil(30/50)=1.
        assert_eq!(busy_step(&ts, t(0), t(30)).unwrap(), t(3 * 2 + 2 * 3 + 5));
        // Jitter J=1 on the first task: ceil(31/10)=4.
        let mut jittered = ts.clone();
        jittered[0].j = t(1);
        assert_eq!(
            busy_step(&jittered, t(0), t(30)).unwrap(),
            t(4 * 2 + 2 * 3 + 5)
        );
    }

    #[test]
    fn interference_kernels_match_scalar_forms() {
        let terms = vec![(t(10), t(2), t(0)), (t(15), t(3), t(5))];
        // w = 20: ceil(20/10)*2 + ceil(25/15)*3 = 4 + 6.
        assert_eq!(interference(&terms, t(20)).unwrap(), t(10));
        // George: (floor(20/10)+1)*2 + (floor(20/15)+1)*3 = 6 + 6.
        assert_eq!(np_interference(&terms, t(20)).unwrap(), t(12));
        let caps = vec![(t(10), t(2), t(0), 2i64), (t(15), t(3), t(0), -1i64)];
        // ceil(20/10)=2 capped at 2 → 4; negative cap clamps to zero.
        assert_eq!(capped_interference(&caps, t(20), false).unwrap(), t(4));
        // floor(20/10)+1=3 capped at 2 → 4.
        assert_eq!(capped_interference(&caps, t(20), true).unwrap(), t(4));
        // Jitter advances the by-time count: ceil(25/10)=3, floor(25/10)+1=3.
        let jittered = vec![(t(10), t(2), t(5), 9i64)];
        assert_eq!(capped_interference(&jittered, t(20), false).unwrap(), t(6));
        assert_eq!(capped_interference(&jittered, t(20), true).unwrap(), t(6));
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let ts = vec![Task::new(Time::new(i64::MAX / 2), Time::MAX, Time::ONE).unwrap()];
        let err = busy_step(&ts, t(0), Time::new(10)).unwrap_err();
        assert!(matches!(err, AnalysisError::Overflow { .. }));
    }
}
