//! Worst-case response times under **non-preemptive** EDF — George,
//! Rivierre & Spuri's analysis, the paper's eqs. (9)–(10).
//!
//! Two changes versus the preemptive case:
//!
//! 1. A job with a *later* absolute deadline can block (priority inversion
//!    through non-preemptability): the busy period gains the term
//!    `max_{Dj > a+Di} (Cj − 1)`.
//! 2. We analyse the busy period preceding the **execution start** of the
//!    instance, not its completion: the instance's own `Ci` is excluded from
//!    the fixpoint (only `⌊a/Ti⌋` *earlier* instances count) and added back
//!    afterwards:
//!
//! `ri(a) = max{Ci, Li(a) + Ci − a}`                        (eq. (9))
//!
//! `Li(a) = max_{Dj > a+Di}{Cj − 1}
//!        + Σ_{j≠i, Dj ≤ a+Di} min{1 + ⌊Li(a)/Tj⌋, 1 + ⌊(a+Di−Dj)/Tj⌋}·Cj
//!        + ⌊a/Ti⌋·Ci`
//!
//! with arrival candidates (eq. (10)):
//! `a ∈ ⋃_j {k·Tj + Dj − Di ≥ 0} ∩ [0, L]`, `L` the synchronous busy period.
//!
//! Release jitter `Jj` enters as in the paper's message analysis,
//! eqs. (17)–(18), which is this analysis with every cost replaced by the
//! token cycle: see the `scan` module and [`np_edf_rows_with`]. How long a
//! later-deadline job blocks is a [`BlockingRule`]: tasks block for
//! `Cj − 1` (the blocker must have started strictly earlier), messages for
//! their full cost.
//!
//! Deviation note: we bound the per-`a` fixpoints (and optionally the
//! candidate range, see [`NpEdfRtaConfig::extend_candidates_with_blocking`])
//! by the *blocking-extended* busy period, which dominates the paper's `L` —
//! strictly more candidates, never fewer, so the bound stays sound.
//!
//! The candidate scan is the one of [`crate::edf::rta`] (warm seeds, early
//! stop, cold redo on error) with two changes. The blocking term
//! `max_{Dj > a+Di}(Cj − 1)` (`Cj` for messages) only *shrinks* as `a`
//! grows, so a candidate reuses the previous `Li` as its seed only while
//! the blocking value is unchanged, and restarts from zero when it changes
//! (at most `n` times per task). The blocking value is read from a suffix
//! maximum over the tasks in deadline order, built once per set. And the
//! stop rule uses the fixpoint bound `B` (the blocking-extended busy
//! period): `ri(a) ≤ max{Ci, B + Ci − a}`, so the scan ends once
//! `B − a ≤ best − Ci`. The same divergence is permitted: a warm seed may
//! converge where the cold chain would hit the iteration cap, and errors
//! past the stop no longer surface.
//!
//! Buffers (the shared deadline walk, merge heap, interference slots) come
//! from [`AnalysisScratch`]; see [`crate::edf::rta`] for the allocation
//! discipline.

use profirt_base::{AnalysisResult, Task, TaskSet, Time};

use crate::edf::busy_period::busy_period_warm;
use crate::edf::rta::EdfWcrt;
use crate::edf::scan::{scan_arrivals, with_verdicts, ScanSpec};
use crate::fixed::BlockingRule;
use crate::fixpoint::FixpointConfig;
use crate::scratch::AnalysisScratch;
use crate::SetAnalysis;

/// Configuration for the non-preemptive EDF response-time analysis.
#[derive(Clone, Copy, Debug)]
pub struct NpEdfRtaConfig {
    /// Fixpoint limits per arrival candidate.
    pub fixpoint: FixpointConfig,
    /// Hard cap on arrival candidates per task.
    pub max_candidates: u64,
    /// If `true`, enumerate candidates up to the blocking-extended busy
    /// period instead of the paper's plain `L` (sound superset; default
    /// `true`).
    pub extend_candidates_with_blocking: bool,
}

impl Default for NpEdfRtaConfig {
    fn default() -> Self {
        NpEdfRtaConfig {
            fixpoint: FixpointConfig::default(),
            max_candidates: 2_000_000,
            extend_candidates_with_blocking: true,
        }
    }
}

impl NpEdfRtaConfig {
    /// The literal candidate range of the paper (plain synchronous `L`).
    pub fn paper() -> NpEdfRtaConfig {
        NpEdfRtaConfig {
            extend_candidates_with_blocking: false,
            ..Default::default()
        }
    }
}

/// Computes non-preemptive-EDF worst-case response times (eqs. (9)–(10)).
///
/// # Errors
/// Same conditions as [`crate::edf::rta::edf_response_times`].
pub fn np_edf_response_times(
    set: &TaskSet,
    config: &NpEdfRtaConfig,
) -> AnalysisResult<(SetAnalysis, Vec<EdfWcrt>)> {
    np_edf_response_times_with(set, config, &mut AnalysisScratch::new())
}

/// [`np_edf_response_times`] with caller-owned scratch buffers — identical
/// results, no per-call allocations beyond the returned vectors.
pub fn np_edf_response_times_with(
    set: &TaskSet,
    config: &NpEdfRtaConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<(SetAnalysis, Vec<EdfWcrt>)> {
    let rule = BlockingRule::MaxLowerCostMinusOne;
    let details = np_edf_rows_with(set.tasks(), rule, config, scratch)?;
    Ok(with_verdicts(set, details))
}

/// The worst cases of [`np_edf_response_times_with`] over bare rows
/// `(C, D, T, J)`, with the blocking of a later-deadline job given by
/// `blocking`; the caller judges them against its deadlines.
///
/// The rows need not form a [`TaskSet`]: a row's cost may exceed its
/// deadline. That is the shape of the paper's message analysis
/// (eqs. (17)–(18)), where every stream costs one token cycle `Tcycle`
/// whatever its deadline and blocks for all of it
/// ([`BlockingRule::MaxLowerCost`]). Costs and periods must be positive
/// and jitters non-negative.
///
/// # Errors
/// Same conditions as [`crate::edf::rta::edf_response_times`], with the
/// utilisation `Σ Ci/Ti` taken over the rows.
pub fn np_edf_rows_with(
    rows: &[Task],
    blocking: BlockingRule,
    config: &NpEdfRtaConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<Vec<EdfWcrt>> {
    let max_block = rows
        .iter()
        .map(|row| blocking.of(row.c))
        .max()
        .unwrap_or(Time::ZERO);
    let l_blocked = busy_period_warm(
        rows,
        max_block,
        config.fixpoint,
        Some(&mut scratch.warm),
        &mut scratch.fixpoint_iters,
        &mut scratch.exact_fallbacks,
    )?;
    // Eq. (10) is inclusive of the candidate bound.
    let spec = ScanSpec {
        candidates_what: "np-edf-rta candidates",
        busy_what: "np-edf-rta busy period",
        fixpoint: config.fixpoint,
        max_candidates: config.max_candidates,
        candidate_bound: if config.extend_candidates_with_blocking {
            l_blocked
        } else {
            busy_period_warm(
                rows,
                Time::ZERO,
                config.fixpoint,
                Some(&mut scratch.warm),
                &mut scratch.fixpoint_iters,
                &mut scratch.exact_fallbacks,
            )?
        },
        fix_bound: l_blocked,
        blocking: Some(blocking),
    };
    scan_arrivals(&spec, rows, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::AnalysisError;

    fn analyze(set: &TaskSet) -> (SetAnalysis, Vec<EdfWcrt>) {
        np_edf_response_times(set, &NpEdfRtaConfig::default()).unwrap()
    }

    #[test]
    fn single_task() {
        let set = TaskSet::from_ct(&[(3, 10)]).unwrap();
        let (an, d) = analyze(&set);
        assert_eq!(an.verdicts[0].wcrt(), Some(t(3)));
        assert_eq!(d[0].critical_a, t(0));
    }

    #[test]
    fn blocking_from_later_deadline_job() {
        // τ0 tight (C=1, D=4, T=10); τ1 long (C=5, D=50, T=50).
        // a=0 for τ0: deadline 4; τ1 has D=50 > 4 -> blocking = 5-1 = 4;
        // no interference (τ1's deadline excludes it); own_prior = 0:
        // L0(0) = 4; r = max(1, 4 + 1 - 0) = 5 > D=4: unschedulable.
        let set = TaskSet::from_cdt(&[(1, 4, 10), (5, 50, 50)]).unwrap();
        let (an, d) = analyze(&set);
        assert_eq!(d[0].wcrt, t(5));
        assert!(!an.verdicts[0].is_schedulable());
        assert!(an.verdicts[1].is_schedulable());
    }

    #[test]
    fn no_blocking_when_all_deadlines_earlier() {
        // The latest-deadline task suffers no non-preemptive blocking.
        let set = TaskSet::from_cdt(&[(2, 5, 10), (3, 20, 20)]).unwrap();
        let (_, d) = analyze(&set);
        // τ1 at a=0: deadline 20; τ0's jobs with D <= 20 interfere:
        // min(1+⌊t/10⌋, 1+⌊15/10⌋)=min(.., 2): L = 2 (t=0: 1*2=2),
        // t=2: 1+0=1 -> 2 ✓; r = max(3, 2+3-0) = 5.
        assert_eq!(d[1].wcrt, t(5));
    }

    #[test]
    fn np_wcrt_dominates_preemptive_wcrt_with_blocking_present() {
        // Non-preemptive response times are >= preemptive ones for the
        // highest-urgency work when blocking exists.
        let set = TaskSet::from_cdt(&[(1, 6, 12), (4, 24, 24)]).unwrap();
        let (_, np) = analyze(&set);
        let (_, p) = crate::edf::rta::edf_response_times(&set, &Default::default()).unwrap();
        assert!(np[0].wcrt >= p[0].wcrt);
    }

    #[test]
    fn matches_np_feasibility_verdict() {
        let sets = [
            TaskSet::from_cdt(&[(1, 4, 10), (5, 50, 50)]).unwrap(), // infeasible
            TaskSet::from_cdt(&[(2, 12, 20), (9, 100, 100)]).unwrap(), // feasible
            TaskSet::from_cdt(&[(2, 10, 20), (9, 100, 100)]).unwrap(), // feasible
        ];
        for set in &sets {
            let (an, _) = analyze(set);
            let feas = crate::edf::feasibility_np::edf_feasible_nonpreemptive(
                set,
                &crate::edf::feasibility_np::NpFeasibilityConfig::default(),
            )
            .unwrap();
            assert_eq!(
                an.all_schedulable(),
                feas.feasible,
                "RTA vs feasibility disagree on {set:?}"
            );
        }
    }

    #[test]
    fn non_preemptive_anomaly_tightest_task_hurt_most() {
        // The shorter the deadline, the larger the relative penalty from
        // blocking — the phenomenon motivating the paper's §4 queue design.
        let set = TaskSet::from_cdt(&[(1, 8, 20), (1, 14, 20), (6, 60, 60)]).unwrap();
        let (_, np) = analyze(&set);
        let (_, p) = crate::edf::rta::edf_response_times(&set, &Default::default()).unwrap();
        let penalty0 = np[0].wcrt - p[0].wcrt;
        let penalty2 = np[2].wcrt - p[2].wcrt;
        assert!(penalty0 > penalty2);
    }

    #[test]
    fn paper_candidate_range_subset_of_extended() {
        let set = TaskSet::from_cdt(&[(2, 9, 15), (3, 20, 25), (4, 50, 60)]).unwrap();
        let (_, lit) = np_edf_response_times(&set, &NpEdfRtaConfig::paper()).unwrap();
        let (_, ext) = analyze(&set);
        for (a, b) in lit.iter().zip(ext.iter()) {
            assert!(b.wcrt >= a.wcrt); // extended range can only find worse cases
            assert!(b.candidates >= a.candidates);
        }
    }

    #[test]
    fn utilization_one_rejected() {
        let set = TaskSet::from_ct(&[(1, 2), (1, 2)]).unwrap();
        assert!(matches!(
            np_edf_response_times(&set, &NpEdfRtaConfig::default()),
            Err(AnalysisError::UtilizationAtLeastOne)
        ));
    }

    #[test]
    fn empty_set_rejected() {
        let set = TaskSet::new(vec![]).unwrap();
        for cfg in [NpEdfRtaConfig::default(), NpEdfRtaConfig::paper()] {
            assert_eq!(
                np_edf_response_times(&set, &cfg).unwrap_err(),
                AnalysisError::EmptySet
            );
        }
    }

    #[test]
    fn candidate_cap_error_is_unchanged() {
        // The cap is checked before the early-stop test, so a scan that
        // would stop early still reports the cap it crossed first.
        let set = TaskSet::from_ct(&[(1, 2), (99, 200)]).unwrap();
        for cfg in [NpEdfRtaConfig::default(), NpEdfRtaConfig::paper()] {
            let cfg = NpEdfRtaConfig {
                max_candidates: 3,
                ..cfg
            };
            assert_eq!(
                np_edf_response_times(&set, &cfg).unwrap_err(),
                AnalysisError::IterationLimit {
                    what: "np-edf-rta candidates",
                    limit: 3
                }
            );
        }
    }

    #[test]
    fn periods_near_half_max_do_not_overflow() {
        // T = i64::MAX / 2 and C = 0.4·T: the blocked busy period is about
        // 2T ≈ i64::MAX, so `bound + Ci` is not representable; the stop test
        // and the response formula must never form it.
        let p = i64::MAX / 2;
        let c = p / 5 * 2;
        let set = TaskSet::from_ct(&[(c, p), (c, p)]).unwrap();
        let (an, d) = analyze(&set);
        assert!(an.all_schedulable());
        for w in &d {
            // a = 0: the other task interferes once, no blocking.
            assert_eq!(w.wcrt, t(2 * c));
            assert_eq!(w.critical_a, t(0));
            // a = 0 and a = T, both evaluated: the stop cannot fire.
            assert_eq!(w.candidates, 2);
        }
    }

    #[test]
    fn wcrt_at_least_cost() {
        let set = TaskSet::from_cdt(&[(2, 30, 30), (3, 40, 40), (4, 50, 50)]).unwrap();
        let (_, d) = analyze(&set);
        for (i, w) in d.iter().enumerate() {
            assert!(w.wcrt >= set.tasks()[i].c);
        }
    }

    #[test]
    fn scratch_reuse_is_invisible_in_results() {
        let sets = [
            TaskSet::from_cdt(&[(1, 4, 10), (5, 50, 50)]).unwrap(),
            TaskSet::from_cdt(&[(2, 9, 15), (3, 20, 25), (4, 50, 60)]).unwrap(),
        ];
        let mut scratch = AnalysisScratch::new();
        for set in &sets {
            let fresh = np_edf_response_times(set, &NpEdfRtaConfig::default()).unwrap();
            let reused =
                np_edf_response_times_with(set, &NpEdfRtaConfig::default(), &mut scratch).unwrap();
            assert_eq!(fresh.0, reused.0);
            assert_eq!(fresh.1, reused.1);
        }
    }
}
