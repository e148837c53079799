//! Worst-case response times under preemptive EDF — Spuri's deadline
//! busy-period analysis, the paper's eqs. (6)–(8).
//!
//! Unlike the fixed-priority case, the worst case for EDF is *not* the
//! synchronous release. Spuri \[32\] showed the worst-case response time of
//! `τi` is found in a *deadline busy period*: all tasks `j ≠ i` released
//! synchronously at time 0 at maximum rate, while `τi` has an instance
//! arriving at some offset `a ≥ 0` (with earlier instances as-soon-as-
//! possible, i.e. at `a − k·Ti`).
//!
//! For a given `a`, the busy-period length solves (eq. (6)'s companion):
//!
//! `Li(a) = Wi(a, Li(a)) + (1 + ⌊a/Ti⌋) · Ci`
//!
//! `Wi(a, t) = Σ_{j≠i, Dj ≤ a+Di} min{⌈t/Tj⌉, 1 + ⌊(a+Di−Dj)/Tj⌋} · Cj`
//!
//! — only jobs of `τj` with absolute deadline no later than `a + Di`
//! interfere (EDF dispatches by earliest deadline), capped by both the jobs
//! released within `t` and the jobs whose deadlines qualify. Then
//!
//! `ri(a) = max{Ci, Li(a) − a}`                         (eq. (6))
//! `ri = max_{a ≥ 0} ri(a)`                             (eq. (7))
//!
//! and `a` needs checking only where `Wi` steps (eq. (8)):
//! `a ∈ ⋃_j {k·Tj + Dj − Di ≥ 0} ∩ [0, L)` with `L` the synchronous busy
//! period. Release jitter `Jj` enters as in the message analysis of
//! eqs. (17)–(18): see the `scan` module.
//!
//! ### The candidate scan
//!
//! `Li(a)` is non-decreasing in `a`: the `⌊a/Ti⌋` own-job count, the set of
//! deadline-qualified tasks and every `by_deadline` cap only grow. The scan
//! (shared with [`crate::edf::rta_np`], see the `scan` module) therefore
//! seeds each candidate's fixpoint with the previous candidate's `Li`,
//! which reaches the same least fixpoint as a seed of zero; a warm fixpoint
//! that fails is redone from zero, so errors are the cold ones. Since
//! `Li(a) ≤ L`, `ri(a) ≤ max{Ci, L − a}`, and the scan stops at the first
//! candidate with `L − a ≤` the best response so far: no later offset can
//! beat it strictly. The one permitted divergence from scanning every
//! candidate from zero: a candidate whose cold chain would hit
//! `FixpointConfig::max_iterations` may converge from its warm seed, and an
//! arithmetic error at a candidate past the stop no longer surfaces.
//! Verdicts, `wcrt` and `critical_a` are otherwise identical.
//!
//! ### Allocation discipline
//!
//! One call merges one deadline walk for the whole set, and every task's
//! scan reads it from its own offset (see the `scan` module). The merge
//! heap, the walk's points with the rows stepping at each, the per-set
//! deadline order and the interference slots of the fixpoint closure all
//! live in [`AnalysisScratch`]; [`edf_response_times_with`] reuses a
//! caller-owned scratch across calls (campaign sweeps run one scratch per
//! worker). The deadline caps `1 + ⌊(a+Di−Dj+Jj)/Tj⌋` are kept per slot
//! and advanced only for the tasks that step at the current point, outside
//! the fixpoint closure — each iteration only computes the `⌈t/Tj⌉` side
//! of the `min`.

use profirt_base::{AnalysisResult, TaskSet, Time};

use crate::edf::busy_period::busy_period_warm;
use crate::edf::scan::{scan_arrivals, with_verdicts, ScanSpec};
use crate::fixpoint::FixpointConfig;
use crate::scratch::AnalysisScratch;
use crate::SetAnalysis;

/// Configuration for the preemptive EDF response-time analysis.
#[derive(Clone, Copy, Debug)]
pub struct EdfRtaConfig {
    /// Fixpoint limits for each per-`a` busy-period iteration.
    pub fixpoint: FixpointConfig,
    /// Hard cap on the number of arrival candidates per task (guards against
    /// pathological `L / min Tj` blow-ups; exceeding it is a typed error,
    /// not an incorrect answer).
    pub max_candidates: u64,
}

impl Default for EdfRtaConfig {
    fn default() -> Self {
        EdfRtaConfig {
            fixpoint: FixpointConfig::default(),
            max_candidates: 2_000_000,
        }
    }
}

/// Per-task worst-case response time and the critical arrival offset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EdfWcrt {
    /// The worst-case response time.
    pub wcrt: Time,
    /// The arrival offset `a` at which it is attained.
    pub critical_a: Time,
    /// Number of arrival candidates examined before the scan stopped
    /// (the candidate at which the early-stop rule fired included).
    pub candidates: usize,
}

/// Computes preemptive-EDF worst-case response times for every task
/// (eqs. (6)–(8)) and deadline verdicts.
///
/// # Errors
/// * [`profirt_base::AnalysisError::UtilizationAtLeastOne`] if `Σ Ci/Ti ≥ 1`.
/// * [`profirt_base::AnalysisError::EmptySet`] for an empty set.
/// * Candidate/iteration caps from [`EdfRtaConfig`].
pub fn edf_response_times(
    set: &TaskSet,
    config: &EdfRtaConfig,
) -> AnalysisResult<(SetAnalysis, Vec<EdfWcrt>)> {
    edf_response_times_with(set, config, &mut AnalysisScratch::new())
}

/// [`edf_response_times`] with caller-owned scratch buffers — identical
/// results, no per-call allocations beyond the returned vectors.
pub fn edf_response_times_with(
    set: &TaskSet,
    config: &EdfRtaConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<(SetAnalysis, Vec<EdfWcrt>)> {
    let l = busy_period_warm(
        set.tasks(),
        Time::ZERO,
        config.fixpoint,
        Some(&mut scratch.warm),
        &mut scratch.fixpoint_iters,
        &mut scratch.exact_fallbacks,
    )?;
    // Candidates lie in [0, L) (eq. (8)). L itself is excluded: a busy
    // period starting the instance at a >= L cannot extend it (the
    // synchronous period has ended).
    let spec = ScanSpec {
        candidates_what: "edf-rta candidates",
        busy_what: "edf-rta busy period",
        fixpoint: config.fixpoint,
        max_candidates: config.max_candidates,
        candidate_bound: (l - Time::ONE).max_zero(),
        fix_bound: l,
        blocking: None,
    };
    let details = scan_arrivals(&spec, set.tasks(), scratch)?;
    Ok(with_verdicts(set, details))
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::AnalysisError;

    fn analyze(set: &TaskSet) -> (SetAnalysis, Vec<EdfWcrt>) {
        edf_response_times(set, &EdfRtaConfig::default()).unwrap()
    }

    #[test]
    fn single_task_wcrt_is_cost() {
        let set = TaskSet::from_ct(&[(3, 10)]).unwrap();
        let (an, d) = analyze(&set);
        assert_eq!(an.verdicts[0].wcrt(), Some(t(3)));
        assert_eq!(d[0].wcrt, t(3));
        assert_eq!(d[0].critical_a, t(0));
    }

    #[test]
    fn spuri_example_two_tasks() {
        // C=(2,4), T=D=(5,7): U = 2/5+4/7 = 34/35 < 1.
        // Busy period: L0=6, W(6)=2*2+4=8, W(8)=2*2+2*4=12, W(12)=3*2+2*4=14,
        // W(14)=3*2+2*4=14 ✓ L=14.
        let set = TaskSet::from_ct(&[(2, 5), (4, 7)]).unwrap();
        let (an, _) = analyze(&set);
        // Both must be schedulable (EDF, U < 1, implicit deadlines).
        assert!(an.all_schedulable());
        // Task 1 (C=4, D=7): at a=0 its deadline is 7; task 0's jobs with
        // deadline <= 7: those released at 0 (d=5): 1 job (next release at 5
        // has deadline 10 > 7). L1(0) = min stuff: W = 1*2 = 2, own = 4 ->
        // L=6, r = max(4, 6) = 6.
        assert_eq!(an.verdicts[1].wcrt(), Some(t(6)));
        // Task 0 (C=2, D=5): a=0: jobs of τ1 with deadline <= 5: none
        // (D1=7) -> r(0)=2. Worst case over a: e.g. a=2 (k=0: D1-D0=2):
        // deadline_0 = 7; τ1 jobs with deadline <= 7: 1; own = (1+0)*2 = 2;
        // L = fixpoint: W = min(⌈t/7⌉, 1+⌊0/7⌋)*4 -> first iter t=0: W=0 ->
        // L=2... iterate: L=2: W=min(1,1)*4=4 -> L=6; L=6: W=min(1,1)*4=4 ->
        // 6 ✓. r(2) = max(2, 6-2) = 4.
        assert_eq!(an.verdicts[0].wcrt(), Some(t(4)));
    }

    #[test]
    fn edf_wcrt_not_at_synchronous_arrival() {
        // The defining feature of Spuri's analysis: some task's worst case
        // occurs at a > 0.
        let set = TaskSet::from_ct(&[(2, 5), (4, 7)]).unwrap();
        let (_, d) = analyze(&set);
        assert!(
            d.iter().any(|w| w.critical_a > t(0)),
            "expected a non-synchronous critical arrival, got {d:?}"
        );
    }

    #[test]
    fn utilization_one_rejected() {
        let set = TaskSet::from_ct(&[(1, 2), (1, 2)]).unwrap();
        assert_eq!(
            edf_response_times(&set, &EdfRtaConfig::default()).unwrap_err(),
            AnalysisError::UtilizationAtLeastOne
        );
    }

    #[test]
    fn empty_set_rejected() {
        let set = TaskSet::new(vec![]).unwrap();
        assert_eq!(
            edf_response_times(&set, &EdfRtaConfig::default()).unwrap_err(),
            AnalysisError::EmptySet
        );
    }

    #[test]
    fn constrained_deadline_miss_detected() {
        // High-utilisation pair with one tight deadline: the demand test
        // and the RTA must agree on the verdict.
        let set = TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap();
        let (an, _) = analyze(&set);
        assert!(!an.all_schedulable());
        let dem = crate::edf::demand::edf_feasible_preemptive(
            &set,
            &crate::edf::demand::DemandConfig::default(),
        )
        .unwrap();
        assert!(!dem.feasible);
    }

    #[test]
    fn rta_and_demand_agree_on_feasible_sets() {
        let sets = [
            TaskSet::from_cdt(&[(1, 4, 5), (2, 6, 10), (3, 15, 20)]).unwrap(),
            TaskSet::from_cdt(&[(2, 5, 5), (1, 9, 9), (1, 18, 18)]).unwrap(),
            TaskSet::from_cdt(&[(1, 3, 6), (2, 8, 9), (2, 14, 14)]).unwrap(),
        ];
        for set in &sets {
            let (an, _) = analyze(set);
            let dem = crate::edf::demand::edf_feasible_preemptive(
                set,
                &crate::edf::demand::DemandConfig::default(),
            )
            .unwrap();
            assert_eq!(
                an.all_schedulable(),
                dem.feasible,
                "RTA and demand disagree on {set:?}"
            );
        }
    }

    #[test]
    fn wcrt_at_least_cost_and_within_busy_period() {
        let set = TaskSet::from_ct(&[(1, 4), (2, 7), (3, 19)]).unwrap();
        let l = crate::edf::busy_period::synchronous_busy_period(&set, FixpointConfig::default())
            .unwrap();
        let (_, details) = analyze(&set);
        for (i, d) in details.iter().enumerate() {
            assert!(d.wcrt >= set.tasks()[i].c);
            assert!(d.wcrt <= l);
        }
    }

    #[test]
    fn candidate_cap_is_enforced() {
        let set = TaskSet::from_ct(&[(1, 2), (99, 200)]).unwrap();
        let cfg = EdfRtaConfig {
            max_candidates: 3,
            ..Default::default()
        };
        let err = edf_response_times(&set, &cfg).unwrap_err();
        assert!(matches!(err, AnalysisError::IterationLimit { .. }));
    }

    #[test]
    fn candidate_cap_error_is_unchanged() {
        // Checked before the early-stop test: the exact error of a full scan.
        let set = TaskSet::from_ct(&[(1, 2), (99, 200)]).unwrap();
        let cfg = EdfRtaConfig {
            max_candidates: 3,
            ..Default::default()
        };
        assert_eq!(
            edf_response_times(&set, &cfg).unwrap_err(),
            AnalysisError::IterationLimit {
                what: "edf-rta candidates",
                limit: 3
            }
        );
    }

    #[test]
    fn periods_near_half_max_do_not_overflow() {
        // Periods and deadlines near i64::MAX / 2, busy period 2C + 1.
        let p = i64::MAX / 2;
        let c = p / 5 * 2;
        let set = TaskSet::from_cdt(&[(c, p - 1, p), (c, p, p), (1, p, p - 1)]).unwrap();
        let (an, d) = analyze(&set);
        assert!(an.all_schedulable());
        let got: Vec<_> = d.iter().map(|w| (w.wcrt, w.critical_a)).collect();
        assert_eq!(
            got,
            [(t(2 * c), t(1)), (t(2 * c + 1), t(0)), (t(2 * c + 1), t(0))]
        );
    }

    #[test]
    fn scratch_reuse_is_invisible_in_results() {
        let sets = [
            TaskSet::from_ct(&[(2, 5), (4, 7)]).unwrap(),
            TaskSet::from_cdt(&[(1, 4, 5), (2, 6, 10), (3, 15, 20)]).unwrap(),
            TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap(),
        ];
        let mut scratch = AnalysisScratch::new();
        for set in &sets {
            let fresh = edf_response_times(set, &EdfRtaConfig::default()).unwrap();
            let reused =
                edf_response_times_with(set, &EdfRtaConfig::default(), &mut scratch).unwrap();
            assert_eq!(fresh.0, reused.0);
            assert_eq!(fresh.1, reused.1);
        }
    }
}
