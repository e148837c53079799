//! Non-preemptive fixed-priority response-time analysis — the paper's
//! eqs. (1)–(2).
//!
//! In a non-preemptive system a lower-priority task that has started executes
//! to completion, blocking higher-priority releases. Audsley et al. \[24\]
//! extend Joseph & Pandya with a blocking factor:
//!
//! `ri = wi + Ci`  where  `wi = Bi + Σ_{j ∈ hp(i)} ⌈wi / Tj⌉ · Cj`   (eq. 1)
//!
//! `Bi = max_{j ∈ lp(i)} Cj`                                        (eq. 2)
//!
//! `wi` is the worst-case *start delay* (queuing time) of `τi`; once started,
//! the task runs for `Ci` without preemption.
//!
//! ### The `w = 0` degeneracy and the two variants
//!
//! Read literally, eq. (1) admits the spurious fixpoint `wi = 0` whenever
//! `Bi = 0` (no lower-priority task), because `⌈0/Tj⌉ = 0` erases the
//! critical-instant releases of the higher-priority tasks. Two standard
//! repairs exist and we implement both:
//!
//! * [`NpFixedVariant::Audsley`] — the paper's ceiling form, **seeded** with
//!   `wi⁰ = Bi + Σ_{j∈hp(i)} Cj` (the workload present at the critical
//!   instant). The monotone iteration then converges to the least fixpoint
//!   that accounts for the initial releases.
//! * [`NpFixedVariant::George`] — the exact start-time form of George,
//!   Rivierre & Spuri \[31\]: `wi = Bi + Σ_{j∈hp(i)} (⌊wi/Tj⌋ + 1) · Cj`,
//!   which counts a higher-priority job released exactly at the candidate
//!   start time as delaying the start. This is never smaller than the
//!   Audsley form (the B-A5 `ablation_np_variant` bench quantifies the gap:
//!   they differ only when a fixpoint lands exactly on a release boundary).

use profirt_base::{AnalysisResult, TaskSet, Time};

use crate::fixed::assignment::PriorityMap;
use crate::fixpoint::{fixpoint_counted, FixOutcome, FixpointConfig};
use crate::scratch::AnalysisScratch;
use crate::{soa, SetAnalysis, TaskVerdict};

/// Which interference formula to use for the start-delay recurrence.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NpFixedVariant {
    /// The paper's eq. (1): `⌈w/Tj⌉` interference, seeded at
    /// `Bi + Σ_{hp} Cj`.
    Audsley,
    /// George et al.'s exact start-time analysis: `⌊w/Tj⌋ + 1` interference.
    #[default]
    George,
}

/// How the blocking factor `Bi` is computed from lower-priority costs.
///
/// The non-preemptive EDF analysis ([`crate::edf::rta_np`]) applies the
/// same rule to the later-deadline jobs: tasks use
/// [`BlockingRule::MaxLowerCostMinusOne`], while PROFIBUS messages, whose
/// token-cycle cost is an upper bound rather than an execution time, block
/// for the full cost ([`BlockingRule::MaxLowerCost`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BlockingRule {
    /// The paper's eq. (2): `Bi = max_{j ∈ lp(i)} Cj`.
    #[default]
    MaxLowerCost,
    /// The refinement used by George et al. in continuous time
    /// (`Cj − ε`, here `Cj − 1` tick): the blocker must have *started*
    /// strictly before the critical instant.
    MaxLowerCostMinusOne,
}

impl BlockingRule {
    /// Computes `Bi` for element `i` under this rule.
    pub fn blocking(self, set: &TaskSet, prio: &PriorityMap, i: usize) -> Time {
        let worst = prio
            .lp(i)
            .map(|j| set.tasks()[j].c)
            .max()
            .unwrap_or(Time::ZERO);
        self.of(worst)
    }

    /// The blocking a started blocker of cost `c` can cause under this
    /// rule.
    pub fn of(self, c: Time) -> Time {
        match self {
            BlockingRule::MaxLowerCost => c,
            BlockingRule::MaxLowerCostMinusOne => (c - Time::ONE).max_zero(),
        }
    }
}

/// Configuration for the non-preemptive fixed-priority analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NpFixedConfig {
    /// Interference formula.
    pub variant: NpFixedVariant,
    /// Blocking-factor rule.
    pub blocking: BlockingRule,
    /// Fixpoint iteration limits.
    pub fixpoint: FixpointConfig,
}

impl NpFixedConfig {
    /// The literal configuration of the paper: Audsley ceilings with
    /// `Bi = max lp Cj`.
    pub fn paper() -> NpFixedConfig {
        NpFixedConfig {
            variant: NpFixedVariant::Audsley,
            blocking: BlockingRule::MaxLowerCost,
            ..NpFixedConfig::default()
        }
    }

    /// The exact configuration of George et al. \[31\].
    pub fn george() -> NpFixedConfig {
        NpFixedConfig {
            variant: NpFixedVariant::George,
            blocking: BlockingRule::MaxLowerCostMinusOne,
            ..NpFixedConfig::default()
        }
    }
}

/// Non-preemptive worst-case response times `ri = wi + Ci` (eq. (1)).
///
/// Valid for constrained deadlines (`Di ≤ Ti`): a task is reported
/// unschedulable as soon as `wi + Ci` exceeds `Di`.
pub fn np_response_times(
    set: &TaskSet,
    prio: &PriorityMap,
    config: &NpFixedConfig,
) -> AnalysisResult<SetAnalysis> {
    np_response_times_with(set, prio, config, &mut AnalysisScratch::new())
}

/// [`np_response_times`] with caller-owned scratch buffers — identical
/// results, no per-call allocations beyond the returned verdicts.
pub fn np_response_times_with(
    set: &TaskSet,
    prio: &PriorityMap,
    config: &NpFixedConfig,
    scratch: &mut AnalysisScratch,
) -> AnalysisResult<SetAnalysis> {
    assert_eq!(
        prio.len(),
        set.len(),
        "priority map must cover the task set"
    );
    let AnalysisScratch {
        terms,
        warm,
        fixpoint_iters,
        ..
    } = scratch;
    // Exact-match warm memo (see [`crate::fixed::rta`]): the tag encodes
    // the (variant, blocking-rule) pair so no two formulas share an entry.
    let tag: u8 =
        2 + match config.variant {
            NpFixedVariant::Audsley => 0,
            NpFixedVariant::George => 2,
        } + match config.blocking {
            BlockingRule::MaxLowerCost => 0,
            BlockingRule::MaxLowerCostMinusOne => 1,
        };
    let order = prio.by_urgency();
    let cols: Vec<(Time, Time, Time, Time)> =
        set.tasks().iter().map(|t| (t.c, t.d, t.t, t.j)).collect();
    let seeded: Option<Vec<Option<Time>>> = warm.lookup_rta(tag, order, &cols).map(<[_]>::to_vec);
    let mut memo_w: Vec<Option<Time>> = Vec::with_capacity(set.len());
    let mut verdicts = Vec::with_capacity(set.len());
    for (i, task) in set.iter() {
        // Hoisted higher-priority (period, cost) rows; the jitter slot of
        // the shared buffer is unused here.
        terms.clear();
        for j in prio.hp(i) {
            let tj = set.tasks()[j];
            terms.push((tj.t, tj.c, Time::ZERO));
        }
        let b_i = config.blocking.blocking(set, prio, i);
        // Schedulable iff w + Ci <= Di, i.e. w <= Di - Ci.
        let bound = task.d - task.c;

        let memo_seed = seeded.as_ref().and_then(|w| w[i]);
        let seed = match memo_seed {
            Some(w) => w,
            None => match config.variant {
                NpFixedVariant::Audsley => {
                    // Bi + Σ_{hp} Cj: the critical-instant workload, avoiding
                    // the spurious w = 0 fixpoint of the ceiling form.
                    let mut s = b_i;
                    for &(_, c_j, _) in terms.iter() {
                        s = s.try_add(c_j)?;
                    }
                    s
                }
                NpFixedVariant::George => b_i,
            },
        };

        let outcome = fixpoint_counted(
            "np-fp-rta",
            seed,
            bound,
            config.fixpoint,
            fixpoint_iters,
            |w| {
                let interf = match config.variant {
                    NpFixedVariant::Audsley => soa::interference(terms, w)?,
                    NpFixedVariant::George => soa::np_interference(terms, w)?,
                };
                b_i.try_add(interf)
            },
        )?;
        verdicts.push(match outcome {
            FixOutcome::Converged(w) => {
                memo_w.push(Some(w));
                TaskVerdict::Schedulable { wcrt: w + task.c }
            }
            FixOutcome::ExceededBound(w) => {
                memo_w.push(None);
                TaskVerdict::Unschedulable {
                    exceeded_at: w + task.c,
                }
            }
        });
    }
    if seeded.is_none() {
        warm.store_rta(tag, order, cols, memo_w);
    }
    Ok(SetAnalysis { verdicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn analyze(set: &TaskSet, cfg: NpFixedConfig) -> Vec<TaskVerdict> {
        let pm = PriorityMap::deadline_monotonic(set);
        np_response_times(set, &pm, &cfg).unwrap().verdicts
    }

    #[test]
    fn single_task_no_blocking() {
        let set = TaskSet::from_ct(&[(3, 10)]).unwrap();
        for cfg in [NpFixedConfig::paper(), NpFixedConfig::george()] {
            let v = analyze(&set, cfg);
            assert_eq!(v[0].wcrt(), Some(t(3)));
        }
    }

    #[test]
    fn highest_priority_is_blocked_by_longest_lower_task() {
        // DM order: τ0 (D=10) > τ1 (D=50). B0 = C1 = 7.
        // Paper variant: w0 = 7 (no hp), r0 = 7 + 2 = 9.
        let set = TaskSet::from_cdt(&[(2, 10, 20), (7, 50, 50)]).unwrap();
        let v = analyze(&set, NpFixedConfig::paper());
        assert_eq!(v[0].wcrt(), Some(t(9)));
        // George blocking: B0 = 7-1 = 6, r0 = 8.
        let v = analyze(&set, NpFixedConfig::george());
        assert_eq!(v[0].wcrt(), Some(t(8)));
    }

    #[test]
    fn lowest_priority_has_no_blocking_but_full_interference() {
        // τ1 lowest: B1 = 0; hp interference from τ0.
        // Paper (Audsley, seeded): w1 seeded at C0=2; w=⌈2/20⌉*2=2 ✓;
        // r1 = 2 + 7 = 9.
        let set = TaskSet::from_cdt(&[(2, 10, 20), (7, 50, 50)]).unwrap();
        let v = analyze(&set, NpFixedConfig::paper());
        assert_eq!(v[1].wcrt(), Some(t(9)));
        // George: w1 = (⌊w/20⌋+1)*2 -> w=2, r = 9 (same here).
        let v = analyze(&set, NpFixedConfig::george());
        assert_eq!(v[1].wcrt(), Some(t(9)));
    }

    #[test]
    fn seeding_avoids_spurious_zero_fixpoint() {
        // Without the seed, the Audsley form would give w=0 and r=C for the
        // lowest-priority task even under heavy hp load.
        let set = TaskSet::from_cdt(&[(4, 10, 10), (4, 11, 40)]).unwrap();
        let v = analyze(&set, NpFixedConfig::paper());
        // w1 seeded at 4: ⌈4/10⌉*4 = 4 ✓ -> r1 = 4 + 4 = 8 (not 4).
        assert_eq!(v[1].wcrt(), Some(t(8)));
    }

    #[test]
    fn george_counts_boundary_releases_audsley_does_not() {
        // Construct a case where w lands exactly on a release of τ0.
        // τ0: C=2, T=5. τ1: C=3. George: w1 = (⌊w/5⌋+1)*2:
        //   w=2 -> (0+1)*2=2 ✓ -> r1 = 5.
        // Make blocking push w to 5 exactly: add τ2 lp with C=5... use B via
        // a third task: τ2: C=5,D=100,T=100 (lowest). For τ1: B=5 (paper),
        // Audsley: w = 5 + ⌈w/5⌉*2: seed 5+2=7 -> 5+⌈7/5⌉*2=9 -> 5+2*2=9 ✓ r=12.
        // George rule MaxLowerCost for comparability:
        //   w = 5 + (⌊w/5⌋+1)*2: seed 5 -> 5+2*2=9 -> 5+2*2=9 ✓... floor(9/5)=1 ->
        //   (1+1)*2=4 -> w=9 ✓ r=12. Same. Boundary case needs w multiple of 5:
        //   B=3: Audsley w=3+⌈w/5⌉*2: seed 5 -> 3+2=5 -> ⌈5/5⌉=1 -> 5 ✓ (w=5)
        //   George w=3+(⌊w/5⌋+1)*2: 3+2=5 -> ⌊5/5⌋+1=2 -> 3+4=7 -> ⌊7/5⌋+1=2 -> 7 ✓
        // So George = 7 > Audsley = 5: the boundary release is counted.
        let set = TaskSet::from_cdt(&[(2, 5, 5), (3, 40, 40), (3, 100, 100)]).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        let aud = np_response_times(
            &set,
            &pm,
            &NpFixedConfig {
                variant: NpFixedVariant::Audsley,
                blocking: BlockingRule::MaxLowerCost,
                ..Default::default()
            },
        )
        .unwrap();
        let geo = np_response_times(
            &set,
            &pm,
            &NpFixedConfig {
                variant: NpFixedVariant::George,
                blocking: BlockingRule::MaxLowerCost,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(aud.verdicts[1].wcrt(), Some(t(5 + 3)));
        assert_eq!(geo.verdicts[1].wcrt(), Some(t(7 + 3)));
    }

    #[test]
    fn george_never_below_audsley() {
        // Spot-check the dominance relation on a few sets (same blocking).
        let sets = [
            TaskSet::from_cdt(&[(1, 4, 4), (2, 9, 9), (3, 20, 20)]).unwrap(),
            TaskSet::from_cdt(&[(2, 10, 10), (2, 12, 12), (2, 14, 14), (5, 50, 50)]).unwrap(),
            TaskSet::from_cdt(&[(1, 7, 7), (1, 11, 11), (1, 13, 13)]).unwrap(),
        ];
        for set in &sets {
            let pm = PriorityMap::deadline_monotonic(set);
            let mk = |variant| NpFixedConfig {
                variant,
                blocking: BlockingRule::MaxLowerCost,
                ..Default::default()
            };
            let aud = np_response_times(set, &pm, &mk(NpFixedVariant::Audsley)).unwrap();
            let geo = np_response_times(set, &pm, &mk(NpFixedVariant::George)).unwrap();
            for (a, g) in aud.verdicts.iter().zip(geo.verdicts.iter()) {
                if let (Some(ra), Some(rg)) = (a.wcrt(), g.wcrt()) {
                    assert!(rg >= ra, "George {rg:?} < Audsley {ra:?}");
                }
            }
        }
    }

    #[test]
    fn non_preemption_makes_otherwise_schedulable_set_fail() {
        // Preemptively trivial; non-preemptively the long τ1 blocks τ0 past
        // its deadline: B0 = 8 > D0 - C0 = 5 - 1.
        let set = TaskSet::from_cdt(&[(1, 5, 10), (8, 100, 100)]).unwrap();
        let v = analyze(&set, NpFixedConfig::paper());
        assert!(matches!(v[0], TaskVerdict::Unschedulable { .. }));
    }

    #[test]
    fn scratch_reuse_is_invisible_in_results() {
        let sets = [
            TaskSet::from_cdt(&[(2, 10, 20), (7, 50, 50)]).unwrap(),
            TaskSet::from_cdt(&[(2, 5, 5), (3, 40, 40), (3, 100, 100)]).unwrap(),
        ];
        let mut scratch = AnalysisScratch::new();
        for set in &sets {
            let pm = PriorityMap::deadline_monotonic(set);
            for cfg in [NpFixedConfig::paper(), NpFixedConfig::george()] {
                let fresh = np_response_times(set, &pm, &cfg).unwrap();
                let reused = np_response_times_with(set, &pm, &cfg, &mut scratch).unwrap();
                assert_eq!(fresh, reused);
            }
        }
    }

    #[test]
    fn warm_memo_hit_is_identical_per_variant() {
        // Chosen so the lowest task's cold recurrence iterates under both
        // variants (critical-instant seed 8 exceeds τ0's period 7).
        let set = TaskSet::from_cdt(&[(3, 20, 7), (5, 30, 30), (2, 60, 60)]).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        for cfg in [NpFixedConfig::paper(), NpFixedConfig::george()] {
            let mut scratch = AnalysisScratch::new();
            let cold = np_response_times_with(&set, &pm, &cfg, &mut scratch).unwrap();
            let cold_iters = scratch.take_fixpoint_iters();
            let hit = np_response_times_with(&set, &pm, &cfg, &mut scratch).unwrap();
            let hit_iters = scratch.take_fixpoint_iters();
            assert_eq!(cold, hit);
            assert!(
                hit_iters < cold_iters,
                "warm hit must iterate less: {hit_iters} vs {cold_iters}"
            );
        }
    }

    #[test]
    fn blocking_rules_differ_by_one_tick() {
        let set = TaskSet::from_cdt(&[(1, 9, 10), (7, 70, 70)]).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        assert_eq!(BlockingRule::MaxLowerCost.blocking(&set, &pm, 0), t(7));
        assert_eq!(
            BlockingRule::MaxLowerCostMinusOne.blocking(&set, &pm, 0),
            t(6)
        );
        // Lowest priority: no blockers under either rule.
        assert_eq!(BlockingRule::MaxLowerCost.blocking(&set, &pm, 1), t(0));
        assert_eq!(
            BlockingRule::MaxLowerCostMinusOne.blocking(&set, &pm, 1),
            t(0)
        );
    }
}
