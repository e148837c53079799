//! Batched EDF feasibility: one workload, many analysis variants.
//!
//! The campaign engine evaluates the *same* task set under several variant
//! axes — demand formula, blocking model, preemptive vs non-preemptive —
//! and the per-call entry points each re-derive the busy-period horizon and
//! re-walk the checkpoint sequence. [`edf_feasibility_batch`] amortizes
//! both:
//!
//! * the busy-period fixpoints are shared through the scratch's warm memo
//!   (the synchronous and blocking-extended busy periods depend only on the
//!   `(cost, period)` columns, so every variant after the first re-verifies
//!   a cached least fixpoint in one evaluation);
//! * every variant that routes to the exhaustive forward scan joins a
//!   single merged checkpoint walk — one cursor, one incremental demand
//!   accumulator, one amortised suffix-blocking pointer — instead of one
//!   walk per variant.
//!
//! Route fidelity is exact: each variant takes the same QPA-vs-exhaustive
//! decision as its per-call counterpart, and the merged walk reproduces the
//! per-variant horizons, early exits and `checked_points` bit-for-bit (the
//! checkpoint sequence below a smaller horizon is a prefix of the merged
//! one). The differential property tests in `tests/prop_batch.rs` pin
//! full [`Feasibility`] equality against the per-call path.

use profirt_base::{AnalysisResult, TaskSet, Time};

use crate::edf::demand::{
    load_dpc, preemptive_plan, DemandConfig, DemandFormula, Feasibility, ScanPlan,
};
use crate::edf::feasibility_np::{
    build_segments, build_suffix, np_plan, NpBlockingModel, NpFeasibilityConfig,
};
use crate::edf::qpa::{self, QpaOutcome};
use crate::fixpoint::FixpointConfig;
use crate::scratch::AnalysisScratch;

/// One feasibility-analysis variant of the batch: a demand formula plus an
/// optional non-preemptive blocking model (`None` = preemptive EDF).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DemandVariantSpec {
    /// Demand job-count formula.
    pub formula: DemandFormula,
    /// `Some(model)` analyses non-preemptive EDF under that blocking model;
    /// `None` analyses preemptive EDF.
    pub blocking: Option<NpBlockingModel>,
}

/// Per-variant state of the merged exhaustive scan.
struct PendingScan {
    idx: usize,
    formula: DemandFormula,
    horizon: Time,
    constant: Time,
    use_suffix: bool,
    checked: usize,
}

/// Evaluates every `variants` entry against `set`, returning one
/// [`Feasibility`] per variant — each identical to what the corresponding
/// per-call entry point ([`crate::edf::edf_feasible_preemptive_with`] /
/// [`crate::edf::edf_feasible_nonpreemptive_with`]) would return with the
/// same scratch, including `checked_points` and `horizon`.
///
/// # Errors
/// The same conditions as the per-call tests (divergent busy periods,
/// overflow); the first failing variant aborts the batch.
pub fn edf_feasibility_batch(
    set: &TaskSet,
    variants: &[DemandVariantSpec],
    fixpoint: FixpointConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<Vec<Feasibility>> {
    let AnalysisScratch {
        checkpoints,
        progressions,
        dpc,
        segments,
        suffix,
        warm,
        fixpoint_iters,
        exact_fallbacks,
        ..
    } = scratch;
    let mut out: Vec<Option<Feasibility>> = vec![None; variants.len()];
    let mut pending: Vec<PendingScan> = Vec::new();
    let mut dpc_loaded = false;
    let mut suffix_built = false;
    for (idx, variant) in variants.iter().enumerate() {
        let formula = variant.formula;
        match variant.blocking {
            None => {
                let cfg = DemandConfig { formula, fixpoint };
                let horizon = match preemptive_plan(
                    set,
                    &cfg,
                    Some(&mut *warm),
                    fixpoint_iters,
                    exact_fallbacks,
                )? {
                    ScanPlan::Done(f) => {
                        out[idx] = Some(f);
                        continue;
                    }
                    ScanPlan::UpTo(h) => h,
                };
                if !dpc_loaded {
                    load_dpc(set, dpc);
                    dpc_loaded = true;
                }
                if qpa::estimated_points(dpc, horizon) > qpa::QPA_MIN_POINTS {
                    if let QpaOutcome::Feasible(evals) =
                        qpa::qpa_scan(dpc, formula, &[(Time::ZERO, Time::ZERO)], horizon)
                    {
                        out[idx] = Some(Feasibility {
                            feasible: true,
                            violation: None,
                            checked_points: evals,
                            horizon,
                        });
                        continue;
                    }
                }
                pending.push(PendingScan {
                    idx,
                    formula,
                    horizon,
                    constant: Time::ZERO,
                    use_suffix: false,
                    checked: 0,
                });
            }
            Some(blocking) => {
                let cfg = NpFeasibilityConfig {
                    blocking,
                    formula,
                    fixpoint,
                };
                let horizon =
                    match np_plan(set, &cfg, Some(&mut *warm), fixpoint_iters, exact_fallbacks)? {
                        ScanPlan::Done(f) => {
                            out[idx] = Some(f);
                            continue;
                        }
                        ScanPlan::UpTo(h) => h,
                    };
                if !dpc_loaded {
                    load_dpc(set, dpc);
                    dpc_loaded = true;
                }
                let est = qpa::estimated_points(dpc, horizon);
                let run_qpa = match blocking {
                    NpBlockingModel::ZhengShin => est > qpa::QPA_MIN_POINTS,
                    NpBlockingModel::George => {
                        est > qpa::QPA_MIN_POINTS && est > 32 * (set.len() as u64 + 1)
                    }
                };
                if run_qpa {
                    match blocking {
                        NpBlockingModel::ZhengShin => {
                            segments.clear();
                            segments.push((Time::ZERO, set.max_cost().unwrap_or(Time::ZERO)));
                        }
                        NpBlockingModel::George => {
                            if !suffix_built {
                                build_suffix(dpc, suffix);
                                suffix_built = true;
                            }
                            build_segments(suffix, segments);
                        }
                    }
                    if let QpaOutcome::Feasible(evals) =
                        qpa::qpa_scan(dpc, formula, segments, horizon)
                    {
                        out[idx] = Some(Feasibility {
                            feasible: true,
                            violation: None,
                            checked_points: evals,
                            horizon,
                        });
                        continue;
                    }
                }
                let (constant, use_suffix) = match blocking {
                    NpBlockingModel::ZhengShin => (set.max_cost().unwrap_or(Time::ZERO), false),
                    NpBlockingModel::George => {
                        if !suffix_built {
                            build_suffix(dpc, suffix);
                            suffix_built = true;
                        }
                        (Time::ZERO, true)
                    }
                };
                pending.push(PendingScan {
                    idx,
                    formula,
                    horizon,
                    constant,
                    use_suffix,
                    checked: 0,
                });
            }
        }
    }

    // Merged forward scan: all exhaustive-routed variants walk one cursor
    // up to the largest pending horizon. For each variant, the checkpoints
    // at or below its own horizon form exactly the sequence its per-call
    // scan would visit, so early exits and checked counts coincide.
    if !pending.is_empty() {
        let max_horizon = pending
            .iter()
            .map(|p| p.horizon)
            .max()
            .unwrap_or(Time::ZERO);
        progressions.clear();
        progressions.extend(dpc.iter().map(|&(d, p, _)| (d, p)));
        let mut cursor = checkpoints.start(progressions, max_horizon);
        let mut h_std = Time::ZERO;
        let mut suffix_at = 0usize;
        let mut undecided = pending.len();
        while undecided > 0 {
            let Some((point, steppers)) = cursor.next_with_steppers() else {
                break;
            };
            let mut step_cost = Time::ZERO;
            for &i in steppers {
                step_cost += dpc[i].2;
            }
            h_std += step_cost;
            let mut sfx_b = Time::ZERO;
            if suffix_built {
                while suffix_at < suffix.len() && suffix[suffix_at].0 <= point {
                    suffix_at += 1;
                }
                if suffix_at < suffix.len() {
                    sfx_b = suffix[suffix_at].1;
                }
            }
            for p in pending.iter_mut() {
                if out[p.idx].is_some() {
                    continue;
                }
                if point > p.horizon {
                    out[p.idx] = Some(Feasibility {
                        feasible: true,
                        violation: None,
                        checked_points: p.checked,
                        horizon: p.horizon,
                    });
                    undecided -= 1;
                    continue;
                }
                p.checked += 1;
                let h = match p.formula {
                    DemandFormula::Standard => h_std,
                    DemandFormula::PaperCeiling => h_std - step_cost,
                };
                let b = if p.use_suffix {
                    p.constant + sfx_b
                } else {
                    p.constant
                };
                if h + b > point {
                    out[p.idx] = Some(Feasibility {
                        feasible: false,
                        violation: Some((point, h + b)),
                        checked_points: p.checked,
                        horizon: p.horizon,
                    });
                    undecided -= 1;
                }
            }
        }
        for p in &pending {
            if out[p.idx].is_none() {
                out[p.idx] = Some(Feasibility {
                    feasible: true,
                    violation: None,
                    checked_points: p.checked,
                    horizon: p.horizon,
                });
            }
        }
    }

    Ok(out
        .into_iter()
        .map(|f| f.expect("every variant decided"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edf::demand::edf_feasible_preemptive_with;
    use crate::edf::feasibility_np::edf_feasible_nonpreemptive_with;

    fn all_variants() -> Vec<DemandVariantSpec> {
        let mut v = Vec::new();
        for formula in [DemandFormula::Standard, DemandFormula::PaperCeiling] {
            for blocking in [
                None,
                Some(NpBlockingModel::ZhengShin),
                Some(NpBlockingModel::George),
            ] {
                v.push(DemandVariantSpec { formula, blocking });
            }
        }
        v
    }

    fn per_call(set: &TaskSet, v: DemandVariantSpec) -> Feasibility {
        let fixpoint = FixpointConfig::default();
        let mut scratch = AnalysisScratch::new();
        match v.blocking {
            None => edf_feasible_preemptive_with(
                set,
                &DemandConfig {
                    formula: v.formula,
                    fixpoint,
                },
                &mut scratch,
            )
            .unwrap(),
            Some(blocking) => edf_feasible_nonpreemptive_with(
                set,
                &NpFeasibilityConfig {
                    blocking,
                    formula: v.formula,
                    fixpoint,
                },
                &mut scratch,
            )
            .unwrap(),
        }
    }

    #[test]
    fn batch_equals_per_call_on_mixed_verdict_sets() {
        let sets = [
            TaskSet::from_cdt(&[(3, 3, 10), (3, 4, 10)]).unwrap(),
            TaskSet::from_cdt(&[(1, 4, 10), (5, 50, 50)]).unwrap(),
            TaskSet::from_cdt(&[(2, 12, 20), (9, 100, 100)]).unwrap(),
            TaskSet::from_cdt(&[(5, 10, 10), (4, 9, 10)]).unwrap(),
            TaskSet::from_cdt(&[(26, 70, 70), (62, 180, 200)]).unwrap(),
            TaskSet::from_ct(&[(2, 3), (2, 3)]).unwrap(),
            TaskSet::new(vec![]).unwrap(),
        ];
        let variants = all_variants();
        for set in &sets {
            let mut scratch = AnalysisScratch::new();
            let batch =
                edf_feasibility_batch(set, &variants, FixpointConfig::default(), &mut scratch)
                    .unwrap();
            for (v, got) in variants.iter().zip(batch.iter()) {
                let want = per_call(set, *v);
                assert_eq!(*got, want, "variant {v:?} on {set:?}");
            }
        }
    }

    #[test]
    fn batch_on_qpa_scale_set_matches_per_call() {
        // Large-horizon set: the preemptive and Zheng-Shin variants route
        // through QPA while George may stay exhaustive; all must still
        // agree with their per-call counterparts exactly.
        let mut tasks: Vec<profirt_base::Task> = (0..31i64)
            .map(|i| profirt_base::Task::new(28, 970 + i, 1_000).unwrap())
            .collect();
        tasks.push(profirt_base::Task::implicit(1_800, 20_000).unwrap());
        let set = TaskSet::new(tasks).unwrap();
        let variants = all_variants();
        let mut scratch = AnalysisScratch::new();
        let batch = edf_feasibility_batch(&set, &variants, FixpointConfig::default(), &mut scratch)
            .unwrap();
        for (v, got) in variants.iter().zip(batch.iter()) {
            assert_eq!(*got, per_call(&set, *v), "variant {v:?}");
        }
    }

    #[test]
    fn repeated_batches_share_warm_state() {
        let set = TaskSet::from_cdt(&[(2, 12, 20), (9, 100, 100)]).unwrap();
        let variants = all_variants();
        let mut scratch = AnalysisScratch::new();
        let first = edf_feasibility_batch(&set, &variants, FixpointConfig::default(), &mut scratch)
            .unwrap();
        let cold_iters = scratch.take_fixpoint_iters();
        let second =
            edf_feasibility_batch(&set, &variants, FixpointConfig::default(), &mut scratch)
                .unwrap();
        let warm_iters = scratch.take_fixpoint_iters();
        assert_eq!(first, second);
        assert!(
            warm_iters <= cold_iters,
            "warm batch must not iterate more: {warm_iters} vs {cold_iters}"
        );
    }
}
