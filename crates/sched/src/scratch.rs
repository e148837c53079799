//! Reusable buffers and warm-start memos for the analysis hot loops.
//!
//! Every response-time and feasibility routine in this crate needs a handful
//! of short-lived vectors per call: arrival-candidate progressions, the
//! checkpoint merge heap, the EDF response-time scans' deadline walk,
//! hoisted per-task `(deadline, period, cost)` tables,
//! and interference-term arrays for the fixpoint closures. Campaign sweeps
//! call these analyses millions of times on small task sets, where the
//! allocator — not the arithmetic — dominates. [`AnalysisScratch`] owns all
//! of those buffers so one instance can be threaded through an arbitrary
//! number of calls (`*_with` variants of the analyses) and every buffer is
//! allocated once and then only ever cleared.
//!
//! Beyond capacity, the scratch carries a [`WarmState`]: exact-match memos of
//! previously converged fixpoints that seed later calls on *identical*
//! sub-inputs. A memo hit never changes a result — the fixpoint cores re-run
//! the recurrence from the memoized least fixpoint `L`, and since `f(L) == L`
//! for the deterministic recurrences here, the iteration confirms `L` in a
//! single evaluation. A miss (any column differs) falls back to the cold
//! seed. The differential property tests pin warm ≡ cold results.
//!
//! The plain entry points (e.g. [`crate::edf::rta::edf_response_times`])
//! construct a fresh scratch internally, so results are *identical* whether
//! or not a scratch is reused.

use profirt_base::{Task, Time};

use crate::checkpoints::CheckpointScratch;
use crate::edf::scan::DeadlineWalk;

/// Memoized least fixpoint of one busy-period recurrence, keyed by the exact
/// inputs the recurrence reads: the blocking seed term and the per-task
/// `(cost, period, jitter)` columns. Deadlines, priorities and scan formulas do not
/// enter a busy-period computation, so one memo entry serves every analysis
/// variant of the same workload — the main sharing lever of a policy sweep.
/// An entry exists only for columns whose `Σ Ci/Ti < 1` was checked, so a
/// hit also answers that check.
#[derive(Debug, Clone)]
struct BusyMemo {
    blocking: Time,
    /// `(cost, period, jitter)` per task, in task-set order.
    cols: Vec<(Time, Time, Time)>,
    /// The converged least fixpoint.
    lfp: Time,
}

/// Memoized per-task response-time iterates of one fixed-priority RTA run,
/// keyed by the exact inputs that run read: an analysis-variant tag, the
/// urgency order, and the `(cost, deadline, period, jitter)` columns.
/// `w[i]` is `Some` only for tasks whose window recurrence converged;
/// `None` tasks (deadline exceeded or skipped) always restart cold so the
/// exceeded-at trajectory is reproduced exactly.
#[derive(Debug, Clone)]
struct RtaMemo {
    /// Which analysis produced the memo (preemptive / jitter / NP variant ×
    /// blocking rule) — distinct recurrences must never share seeds.
    tag: u8,
    order: Vec<usize>,
    /// `(cost, deadline, period, jitter)` per task, in task-set order.
    cols: Vec<(Time, Time, Time, Time)>,
    w: Vec<Option<Time>>,
}

/// How many busy-period memo entries are retained. A demand-variant sweep
/// touches one key per distinct blocking term (zero for the preemptive
/// analyses, the two non-preemptive blocking bounds), while the fixed-
/// priority RTA touches one key per task — each level-`i` busy period reads
/// a different higher-priority column subset. The cap must cover a whole
/// sweep's key set: with eviction being FIFO, a cyclic access pattern one
/// key wider than the cap misses on *every* lookup. 32 covers the variant
/// keys plus level-`i` keys for task sets up to the high twenties while
/// still bounding the column comparisons done on a miss.
const BUSY_MEMO_CAP: usize = 32;

/// Warm-start memos carried by [`AnalysisScratch`].
///
/// The "fingerprint" of each memo is the exact value of every input the
/// memoized computation read — no hashing, no tolerance. Matching is by
/// column comparison, so any change to a relevant parameter is a miss and
/// the computation restarts from its cold seed. Parameters a computation
/// does *not* read (deadlines for busy periods, the scan formula for either
/// memo) are deliberately absent from its key: that is what lets a sweep
/// that varies only those parameters hit the memo.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    busy: Vec<BusyMemo>,
    rta: Option<RtaMemo>,
}

impl WarmState {
    /// Drops all memos, forcing cold starts until repopulated. Results never
    /// depend on this; it only exists for measurements and tests.
    pub fn clear(&mut self) {
        self.busy.clear();
        self.rta = None;
    }

    /// Looks up the memoized busy-period least fixpoint for exactly this
    /// blocking term and these `(cost, period, jitter)` columns.
    pub(crate) fn lookup_busy(&self, blocking: Time, tasks: &[Task]) -> Option<Time> {
        self.busy
            .iter()
            .find(|m| {
                m.blocking == blocking
                    && m.cols.len() == tasks.len()
                    && m.cols
                        .iter()
                        .zip(tasks)
                        .all(|(&(c, t, j), task)| c == task.c && t == task.t && j == task.j)
            })
            .map(|m| m.lfp)
    }

    /// Records a converged busy-period least fixpoint, evicting the oldest
    /// entry beyond [`BUSY_MEMO_CAP`].
    pub(crate) fn store_busy(&mut self, blocking: Time, tasks: &[Task], lfp: Time) {
        if self.busy.len() == BUSY_MEMO_CAP {
            self.busy.remove(0);
        }
        self.busy.push(BusyMemo {
            blocking,
            cols: tasks.iter().map(|t| (t.c, t.t, t.j)).collect(),
            lfp,
        });
    }

    /// Looks up the memoized per-task RTA iterates for exactly this variant
    /// tag, urgency order and task columns. Returns the per-task seeds in
    /// task-set order.
    pub(crate) fn lookup_rta(
        &self,
        tag: u8,
        order: &[usize],
        cols: &[(Time, Time, Time, Time)],
    ) -> Option<&[Option<Time>]> {
        let m = self.rta.as_ref()?;
        (m.tag == tag && m.order == order && m.cols == cols).then_some(m.w.as_slice())
    }

    /// Records the per-task iterates of a completed RTA run (single entry;
    /// a new run replaces the previous memo).
    pub(crate) fn store_rta(
        &mut self,
        tag: u8,
        order: &[usize],
        cols: Vec<(Time, Time, Time, Time)>,
        w: Vec<Option<Time>>,
    ) {
        self.rta = Some(RtaMemo {
            tag,
            order: order.to_vec(),
            cols,
            w,
        });
    }
}

/// Reusable working memory for the schedulability analyses.
///
/// Create one with [`AnalysisScratch::new`] (or `Default`) and pass it to
/// the `*_with` analysis variants. The scratch carries capacity plus the
/// [`WarmState`] fixpoint memos; neither ever changes a result, so reusing
/// one scratch across unrelated task sets is safe.
#[derive(Debug, Clone, Default)]
pub struct AnalysisScratch {
    /// Checkpoint / arrival-candidate merge state.
    pub(crate) checkpoints: CheckpointScratch,
    /// `(offset, step)` progressions for candidate enumeration.
    pub(crate) progressions: Vec<(Time, Time)>,
    /// Hoisted per-task `(deadline, period, cost)` rows.
    pub(crate) dpc: Vec<(Time, Time, Time)>,
    /// `(period, cost, jitter, job cap)` interference terms for the EDF
    /// busy-period fixpoints (the deadline-qualified `min{·, cap}` sums).
    pub(crate) caps: Vec<(Time, Time, Time, i64)>,
    /// `(period, cost, jitter)` interference terms for the fixed-priority
    /// fixpoints.
    pub(crate) terms: Vec<(Time, Time, Time)>,
    /// `(segment start, blocking)` rows for piecewise-constant blocking
    /// (non-preemptive EDF), descending by start.
    pub(crate) segments: Vec<(Time, Time)>,
    /// Ascending `(deadline, suffix-max blocking)` rows for the incremental
    /// George blocking lookup of the exhaustive non-preemptive scan.
    pub(crate) suffix: Vec<(Time, Time)>,
    /// The merged deadline walk of the EDF response-time scans.
    pub(crate) walk: DeadlineWalk,
    /// Warm-start fixpoint memos (exact-match; results never depend on it).
    pub(crate) warm: WarmState,
    /// Running count of fixpoint evaluations through this scratch.
    pub(crate) fixpoint_iters: u64,
    /// Running count of deadline-walk points generated through this
    /// scratch.
    pub(crate) walk_points: u64,
    /// Running count of utilisation checks the integer filter of
    /// [`profirt_base::cmp_utilization_one`] left to its exact fallback.
    pub(crate) exact_fallbacks: u64,
}

impl AnalysisScratch {
    /// Creates an empty scratch; buffers grow on first use and are then
    /// reused.
    pub fn new() -> AnalysisScratch {
        AnalysisScratch::default()
    }

    /// Total fixpoint evaluations performed through this scratch since
    /// creation or the last [`take_fixpoint_iters`](Self::take_fixpoint_iters).
    pub fn fixpoint_iters(&self) -> u64 {
        self.fixpoint_iters
    }

    /// Returns the fixpoint-evaluation counter and resets it to zero.
    pub fn take_fixpoint_iters(&mut self) -> u64 {
        std::mem::take(&mut self.fixpoint_iters)
    }

    /// Total points the EDF response-time scans merged into their deadline
    /// walks through this scratch since creation: one per distinct
    /// absolute deadline point a walk generated, however many rows read it.
    pub fn walk_points(&self) -> u64 {
        self.walk_points
    }

    /// Total `Σ Ci/Ti ⋚ 1` checks through this scratch since creation that
    /// the integer filter could not decide, so the exact comparison ran
    /// (sums within about `n/2^64` of 1, such as exactly 1 over periods
    /// that are not powers of two).
    pub fn exact_fallbacks(&self) -> u64 {
        self.exact_fallbacks
    }

    /// Drops the warm-start memos (results never depend on them; this only
    /// forces cold starts for measurements and tests).
    pub fn clear_warm(&mut self) {
        self.warm.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn default_is_empty_and_cloneable() {
        let s = AnalysisScratch::new();
        let c = s.clone();
        assert!(c.progressions.is_empty());
        assert!(c.dpc.is_empty());
        assert!(c.caps.is_empty());
        assert!(c.terms.is_empty());
        assert!(c.segments.is_empty());
        assert!(c.suffix.is_empty());
        assert_eq!(c.fixpoint_iters(), 0);
    }

    #[test]
    fn exact_utilisation_fallbacks_are_counted() {
        use crate::edf::{
            edf_feasible_preemptive_with, edf_response_times_with, DemandConfig, EdfRtaConfig,
        };
        use profirt_base::{AnalysisError, TaskSet};

        let mut s = AnalysisScratch::new();
        // U = 1/3 + 1/3 + 1/3 = 1 exactly: only the exact comparison can
        // tell, once per check.
        let one = TaskSet::from_ct(&[(1, 3), (1, 3), (1, 3)]).unwrap();
        assert_eq!(
            edf_response_times_with(&one, &EdfRtaConfig::default(), &mut s).unwrap_err(),
            AnalysisError::UtilizationAtLeastOne
        );
        assert_eq!(s.exact_fallbacks(), 1);
        // U = 1 with implicit deadlines: feasible without a scan.
        let f = edf_feasible_preemptive_with(&one, &DemandConfig::default(), &mut s).unwrap();
        assert!(f.feasible);
        assert_eq!(s.exact_fallbacks(), 2);
        // The filter decides an ordinary set alone.
        let light = TaskSet::from_ct(&[(1, 3), (1, 4)]).unwrap();
        edf_response_times_with(&light, &EdfRtaConfig::default(), &mut s).unwrap();
        assert_eq!(s.exact_fallbacks(), 2);
    }

    #[test]
    fn busy_memo_is_exact_match_and_capped() {
        let mut w = WarmState::default();
        let tasks = vec![
            Task::new(t(2), t(10), t(10)).unwrap(),
            Task::new(t(3), t(15), t(15)).unwrap(),
        ];
        assert_eq!(w.lookup_busy(Time::ZERO, &tasks), None);
        w.store_busy(Time::ZERO, &tasks, t(5));
        assert_eq!(w.lookup_busy(Time::ZERO, &tasks), Some(t(5)));
        // A different blocking term, task count or any (cost, period, jitter)
        // column is a miss; deadlines are deliberately not part of the key.
        assert_eq!(w.lookup_busy(t(1), &tasks), None);
        assert_eq!(w.lookup_busy(Time::ZERO, &tasks[..1]), None);
        let mut tightened = tasks.clone();
        tightened[1] = Task::new(t(3), t(7), t(15)).unwrap();
        assert_eq!(w.lookup_busy(Time::ZERO, &tightened), Some(t(5)));
        let changed = vec![
            Task::new(t(2), t(10), t(10)).unwrap(),
            Task::new(t(4), t(15), t(15)).unwrap(),
        ];
        assert_eq!(w.lookup_busy(Time::ZERO, &changed), None);
        // Capacity evicts the oldest entry.
        for k in 0..BUSY_MEMO_CAP as i64 {
            w.store_busy(t(100 + k), &tasks, t(k));
        }
        assert_eq!(w.lookup_busy(Time::ZERO, &tasks), None);
        assert_eq!(w.lookup_busy(t(100), &tasks), Some(t(0)));
        w.clear();
        assert_eq!(w.lookup_busy(t(100), &tasks), None);
    }

    #[test]
    fn busy_memo_key_includes_jitter() {
        // Two sets that differ only in one task's jitter never share an
        // entry, in either order of storing.
        let mut w = WarmState::default();
        let plain = vec![
            Task::new(t(2), t(10), t(10)).unwrap(),
            Task::new(t(3), t(15), t(15)).unwrap(),
        ];
        let mut jittered = plain.clone();
        jittered[1].j = t(4);
        w.store_busy(Time::ZERO, &plain, t(5));
        assert_eq!(w.lookup_busy(Time::ZERO, &jittered), None);
        w.store_busy(Time::ZERO, &jittered, t(8));
        assert_eq!(w.lookup_busy(Time::ZERO, &plain), Some(t(5)));
        assert_eq!(w.lookup_busy(Time::ZERO, &jittered), Some(t(8)));
    }

    #[test]
    fn rta_memo_matches_on_tag_order_and_columns() {
        let mut w = WarmState::default();
        let cols = vec![(t(2), t(10), t(10), t(0)), (t(3), t(15), t(15), t(0))];
        let seeds = vec![Some(t(2)), None];
        w.store_rta(1, &[0, 1], cols.clone(), seeds.clone());
        assert_eq!(w.lookup_rta(1, &[0, 1], &cols), Some(seeds.as_slice()));
        assert_eq!(w.lookup_rta(2, &[0, 1], &cols), None);
        assert_eq!(w.lookup_rta(1, &[1, 0], &cols), None);
        let mut other = cols.clone();
        other[0].1 = t(9);
        assert_eq!(w.lookup_rta(1, &[0, 1], &other), None);
    }
}
