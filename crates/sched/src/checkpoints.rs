//! Enumeration of demand-test checkpoints.
//!
//! The EDF feasibility tests (paper eqs. (3)–(5)) need the set
//! `S = ⋃_i {k·Ti + Di : k ∈ ℕ} ∩ [0, bound)` in ascending order — the points
//! where the processor demand function steps. The EDF response-time analyses
//! (eqs. (8) and (10)) need the analogous arrival candidates
//! `⋃_j {k·Tj + Dj − Di ≥ 0} ∩ [0, bound]`. Both are merges of `n` arithmetic
//! progressions; [`CheckpointIter`] performs the merge lazily with a binary
//! heap, deduplicating equal values.
//!
//! Three hot-path refinements live here as well:
//!
//! * [`CheckpointScratch`] owns the heap and side tables so a caller that
//!   enumerates checkpoints for many tasks (or many task sets) re-seeds the
//!   same allocation instead of building a fresh heap per merge — the
//!   allocation-free discipline of [`crate::scratch::AnalysisScratch`].
//! * [`Checkpoints::next_with_steppers`] reports *which* progressions have an
//!   element at each yielded point, which lets the exhaustive demand tests
//!   maintain `h(t)` incrementally in O(steps) per point instead of
//!   recomputing the full O(n) sum (see [`crate::edf::demand`](mod@crate::edf::demand)),
//!   and lets the EDF response-time scans advance each task's deadline cap
//!   only where it steps.
//! * [`Checkpoints::peek_point`] and [`Checkpoints::skip_to`] let a caller
//!   that reads the merge lazily stop before a value it does not need and
//!   jump over a stretch of values no reader needs, without generating
//!   them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use profirt_base::Time;

/// Reusable state for merging arithmetic progressions: the min-heap of
/// `(next value, progression index)` pairs, the per-progression steps, and
/// the stepper buffer handed out by
/// [`Checkpoints::next_with_steppers`].
///
/// A default-constructed scratch is empty; [`CheckpointScratch::start`]
/// re-seeds it (reusing the allocations) and returns a borrowing cursor.
#[derive(Debug, Clone, Default)]
pub struct CheckpointScratch {
    heap: BinaryHeap<Reverse<(Time, usize)>>,
    steps: Vec<Time>,
    steppers: Vec<usize>,
}

impl CheckpointScratch {
    /// Creates an empty scratch.
    pub fn new() -> CheckpointScratch {
        CheckpointScratch::default()
    }

    /// Seeds the merge over `(offset, step)` progressions within
    /// `[0, bound]` (inclusive) and returns the cursor. Steps must be
    /// strictly positive; progressions with a negative offset are advanced
    /// to their first non-negative element.
    ///
    /// # Panics
    /// Panics if any step is not strictly positive.
    pub fn start(&mut self, progressions: &[(Time, Time)], bound: Time) -> Checkpoints<'_> {
        self.heap.clear();
        self.steps.clear();
        self.steppers.clear();
        self.steps.reserve(progressions.len());
        for (idx, &(offset, step)) in progressions.iter().enumerate() {
            assert!(
                step.is_positive(),
                "checkpoint progression step must be positive"
            );
            self.steps.push(step);
            // Advance negative offsets to the first k with offset + k*step >= 0.
            let first = if offset.is_negative() {
                let k = (-offset).ceil_div(step);
                offset + step * k
            } else {
                offset
            };
            if first <= bound {
                self.heap.push(Reverse((first, idx)));
            }
        }
        Checkpoints {
            scratch: self,
            bound,
            last: None,
        }
    }

    /// Pops the next distinct merged value `<= bound`, advancing *every*
    /// progression that had an element there — in both modes, so plain and
    /// stepper calls interleave without losing a step. When
    /// `collect_steppers` is set the indices of those progressions are left
    /// in `self.steppers`.
    fn pop_next(
        &mut self,
        bound: Time,
        last: &mut Option<Time>,
        collect_steppers: bool,
    ) -> Option<Time> {
        if collect_steppers {
            self.steppers.clear();
        }
        let Reverse((v, idx)) = self.heap.pop()?;
        debug_assert!(*last != Some(v), "peers are drained on every pop");
        if let Some(s) = v.checked_add(self.steps[idx]) {
            if s <= bound {
                self.heap.push(Reverse((s, idx)));
            }
        }
        if collect_steppers {
            self.steppers.push(idx);
        }
        // Drain every progression sharing this value, so the stepper list
        // is complete for the yielded point and no duplicate value is left
        // behind for a later (possibly plain) call to mis-handle.
        while let Some(&Reverse((peek, pidx))) = self.heap.peek() {
            if peek != v {
                break;
            }
            self.heap.pop();
            if let Some(s) = peek.checked_add(self.steps[pidx]) {
                if s <= bound {
                    self.heap.push(Reverse((s, pidx)));
                }
            }
            if collect_steppers {
                self.steppers.push(pidx);
            }
        }
        *last = Some(v);
        Some(v)
    }
}

/// A borrowing cursor over the merged, deduplicated checkpoint sequence —
/// the allocation-free counterpart of [`CheckpointIter`].
#[derive(Debug)]
pub struct Checkpoints<'a> {
    scratch: &'a mut CheckpointScratch,
    bound: Time,
    last: Option<Time>,
}

impl Checkpoints<'_> {
    /// The next checkpoint in strictly ascending order, or `None` when the
    /// bound is exhausted.
    pub fn next_point(&mut self) -> Option<Time> {
        self.scratch.pop_next(self.bound, &mut self.last, false)
    }

    /// The next checkpoint without consuming it.
    pub fn peek_point(&self) -> Option<Time> {
        self.scratch.heap.peek().map(|&Reverse((v, _))| v)
    }

    /// Skips every checkpoint below `from` without yielding it: each
    /// progression behind `from` jumps to its first element `>= from`.
    pub fn skip_to(&mut self, from: Time) {
        let scratch = &mut *self.scratch;
        while let Some(&Reverse((v, idx))) = scratch.heap.peek() {
            if v >= from {
                break;
            }
            scratch.heap.pop();
            let step = scratch.steps[idx];
            let jump = step.checked_mul((from - v).ceil_div(step));
            if let Some(next) = jump.and_then(|jump| v.checked_add(jump)) {
                if next <= self.bound {
                    scratch.heap.push(Reverse((next, idx)));
                }
            }
        }
    }

    /// The next checkpoint together with the indices of the progressions
    /// that step there (each index appears exactly once; order is
    /// unspecified). The slice borrows the scratch and is valid until the
    /// next call.
    pub fn next_with_steppers(&mut self) -> Option<(Time, &[usize])> {
        let v = self.scratch.pop_next(self.bound, &mut self.last, true)?;
        Some((v, self.scratch.steppers.as_slice()))
    }
}

impl Iterator for Checkpoints<'_> {
    type Item = Time;

    fn next(&mut self) -> Option<Time> {
        self.next_point()
    }
}

/// Lazily merged, deduplicated union of arithmetic progressions
/// `{offset_i + k·step_i : k ∈ ℕ}` restricted to `[0, bound]`.
///
/// Progressions with a negative offset are advanced to their first
/// non-negative element. The iterator yields values in strictly ascending
/// order.
#[derive(Debug, Clone)]
pub struct CheckpointIter {
    scratch: CheckpointScratch,
    bound: Time,
    last: Option<Time>,
}

impl CheckpointIter {
    /// Creates a merge over `(offset, step)` progressions within
    /// `[0, bound]` (inclusive). Steps must be strictly positive.
    ///
    /// # Panics
    /// Panics if any step is not strictly positive.
    pub fn new(progressions: &[(Time, Time)], bound: Time) -> CheckpointIter {
        let mut scratch = CheckpointScratch::new();
        // `start` seeds the heap; the cursor itself is dropped and the
        // iterator re-reads the bound from its own field.
        let _ = scratch.start(progressions, bound);
        CheckpointIter {
            scratch,
            bound,
            last: None,
        }
    }

    /// Convenience constructor for the absolute-deadline checkpoints
    /// `{k·Ti + Di}` of a `(D, T)` list.
    pub fn deadlines(dt: &[(Time, Time)], bound: Time) -> CheckpointIter {
        CheckpointIter::new(dt, bound)
    }
}

impl Iterator for CheckpointIter {
    type Item = Time;

    fn next(&mut self) -> Option<Time> {
        self.scratch.pop_next(self.bound, &mut self.last, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn collect(progs: &[(i64, i64)], bound: i64) -> Vec<i64> {
        let p: Vec<(Time, Time)> = progs.iter().map(|&(o, s)| (t(o), t(s))).collect();
        CheckpointIter::new(&p, t(bound)).map(Time::ticks).collect()
    }

    #[test]
    fn single_progression() {
        assert_eq!(collect(&[(3, 5)], 20), vec![3, 8, 13, 18]);
    }

    #[test]
    fn merged_and_deduplicated() {
        // {2,6,10,...} ∪ {3,6,9,...}: 6 appears once.
        assert_eq!(collect(&[(2, 4), (3, 3)], 12), vec![2, 3, 6, 9, 10, 12]);
    }

    #[test]
    fn bound_is_inclusive() {
        assert_eq!(collect(&[(0, 5)], 10), vec![0, 5, 10]);
    }

    #[test]
    fn negative_offsets_advance_to_first_nonnegative() {
        // offset -7 step 5 -> first element is -7 + 2*5 = 3.
        assert_eq!(collect(&[(-7, 5)], 20), vec![3, 8, 13, 18]);
        // offset exactly divisible: -10 step 5 -> first element 0.
        assert_eq!(collect(&[(-10, 5)], 6), vec![0, 5]);
    }

    #[test]
    fn empty_when_all_offsets_exceed_bound() {
        assert_eq!(collect(&[(50, 5)], 20), Vec::<i64>::new());
    }

    #[test]
    fn strictly_ascending() {
        let pts = collect(&[(1, 3), (2, 5), (0, 7), (1, 3)], 100);
        for w in pts.windows(2) {
            assert!(w[0] < w[1], "not ascending: {:?}", w);
        }
    }

    #[test]
    fn deadlines_constructor() {
        let dt = [(t(4), t(10)), (t(6), t(14))];
        let pts: Vec<i64> = CheckpointIter::deadlines(&dt, t(30))
            .map(Time::ticks)
            .collect();
        assert_eq!(pts, vec![4, 6, 14, 20, 24]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = CheckpointIter::new(&[(t(0), t(0))], t(10));
    }

    #[test]
    fn scratch_cursor_matches_owned_iterator() {
        let progs = [(t(1), t(3)), (t(2), t(5)), (t(0), t(7)), (t(1), t(3))];
        let owned: Vec<Time> = CheckpointIter::new(&progs, t(60)).collect();
        let mut scratch = CheckpointScratch::new();
        let borrowed: Vec<Time> = scratch.start(&progs, t(60)).collect();
        assert_eq!(owned, borrowed);
        // Re-seeding the same scratch works and is independent of history.
        let again: Vec<Time> = scratch.start(&progs, t(60)).collect();
        assert_eq!(owned, again);
    }

    #[test]
    fn steppers_cover_every_progression_element() {
        // {2,6,10} ∪ {3,6,9,12} ∪ {6,16}: 6 steps all three at once.
        let progs = [(t(2), t(4)), (t(3), t(3)), (t(6), t(10))];
        let mut scratch = CheckpointScratch::new();
        let mut cur = scratch.start(&progs, t(12));
        let mut seen = Vec::new();
        while let Some((v, idx)) = cur.next_with_steppers() {
            let mut idx = idx.to_vec();
            idx.sort_unstable();
            seen.push((v.ticks(), idx));
        }
        assert_eq!(
            seen,
            vec![
                (2, vec![0]),
                (3, vec![1]),
                (6, vec![0, 1, 2]),
                (9, vec![1]),
                (10, vec![0]),
                (12, vec![1]),
            ]
        );
    }

    #[test]
    fn steppers_list_duplicated_progressions_individually() {
        // Two identical progressions: both indices step at every point.
        let progs = [(t(5), t(5)), (t(5), t(5))];
        let mut scratch = CheckpointScratch::new();
        let mut cur = scratch.start(&progs, t(15));
        while let Some((_, idx)) = cur.next_with_steppers() {
            let mut idx = idx.to_vec();
            idx.sort_unstable();
            assert_eq!(idx, vec![0, 1]);
        }
    }

    #[test]
    fn peek_and_skip_to_keep_the_merge_consistent() {
        // {2,6,10,14} ∪ {3,6,9,12,15}: skipping to 10 drops 2..9 unseen.
        let progs = [(t(2), t(4)), (t(3), t(3))];
        let mut scratch = CheckpointScratch::new();
        let mut cur = scratch.start(&progs, t(15));
        assert_eq!(cur.peek_point(), Some(t(2)));
        assert_eq!(cur.next_point(), Some(t(2)));
        cur.skip_to(t(10));
        assert_eq!(cur.peek_point(), Some(t(10)));
        let rest: Vec<i64> = cur.map(Time::ticks).collect();
        assert_eq!(rest, vec![10, 12, 14, 15]);
        // Skipping past the bound empties the merge.
        let mut cur = scratch.start(&progs, t(15));
        cur.skip_to(t(16));
        assert_eq!(cur.peek_point(), None);
        assert_eq!(cur.next_point(), None);
    }

    #[test]
    fn mixed_plain_and_stepper_calls_stay_consistent() {
        let progs = [(t(2), t(4)), (t(3), t(3))];
        let mut scratch = CheckpointScratch::new();
        let mut cur = scratch.start(&progs, t(12));
        assert_eq!(cur.next_point(), Some(t(2)));
        let (v, idx) = cur.next_with_steppers().unwrap();
        assert_eq!(v, t(3));
        assert_eq!(idx, &[1]);
        assert_eq!(cur.next_point(), Some(t(6)));
        let (v, _) = cur.next_with_steppers().unwrap();
        assert_eq!(v, t(9));
    }
}
