//! Fixed-priority assignment policies.
//!
//! *Rate monotonic* (RM): shorter period ⇒ higher priority — optimal among
//! fixed-priority policies for synchronous, implicit-deadline, preemptive
//! task sets (Liu & Layland). *Deadline monotonic* (DM): shorter relative
//! deadline ⇒ higher priority — optimal for constrained deadlines
//! (Leung & Whitehead; surveyed as \[20\] in the paper).
//!
//! A [`PriorityMap`] is an explicit, total priority order over the indices of
//! a task/stream set; every analysis takes one, so RM vs DM vs bespoke orders
//! (e.g. from Audsley's OPA) are interchangeable.

use profirt_base::{Priority, StreamSet, TaskSet, Time};

/// A total fixed-priority order over set indices.
///
/// Internally stores `prio_of[i]` = priority of the element with index `i`
/// (smaller = more urgent) and the index list sorted from most to least
/// urgent. Priorities are always the dense range `0..n`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PriorityMap {
    prio_of: Vec<u32>,
    by_urgency: Vec<usize>,
}

impl PriorityMap {
    /// Builds a map from an urgency order: `order\[0\]` is the most urgent
    /// index, `order[n-1]` the least. `order` must be a permutation of
    /// `0..n`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation.
    pub fn from_order(order: Vec<usize>) -> PriorityMap {
        let n = order.len();
        let mut prio_of = vec![u32::MAX; n];
        for (rank, &idx) in order.iter().enumerate() {
            assert!(idx < n, "order contains out-of-range index {idx}");
            assert!(
                prio_of[idx] == u32::MAX,
                "order contains duplicate index {idx}"
            );
            prio_of[idx] = rank as u32;
        }
        PriorityMap {
            prio_of,
            by_urgency: order,
        }
    }

    /// Rate-monotonic assignment for a task set (ties by index).
    pub fn rate_monotonic(set: &TaskSet) -> PriorityMap {
        PriorityMap::from_order(set.indices_by_period())
    }

    /// Deadline-monotonic assignment for a task set (ties by index).
    pub fn deadline_monotonic(set: &TaskSet) -> PriorityMap {
        PriorityMap::from_order(set.indices_by_deadline())
    }

    /// Deadline-monotonic assignment for a message-stream set (§4 of the
    /// paper: messages inherit DM priorities from deadlines).
    pub fn deadline_monotonic_streams(set: &StreamSet) -> PriorityMap {
        PriorityMap::from_order(set.indices_by_deadline())
    }

    /// Identity assignment: index `i` gets priority `i`. Useful for sets
    /// already sorted by urgency.
    pub fn identity(n: usize) -> PriorityMap {
        PriorityMap::from_order((0..n).collect())
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.prio_of.len()
    }

    /// `true` if the map covers no elements.
    pub fn is_empty(&self) -> bool {
        self.prio_of.is_empty()
    }

    /// Priority of element `i` (smaller = more urgent).
    pub fn priority(&self, i: usize) -> Priority {
        Priority(self.prio_of[i])
    }

    /// Indices from most to least urgent.
    pub fn by_urgency(&self) -> &[usize] {
        &self.by_urgency
    }

    /// Indices with strictly higher priority than element `i` — the paper's
    /// `hp(i)`.
    pub fn hp(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let p = self.prio_of[i];
        self.by_urgency.iter().copied().take(p as usize)
    }

    /// Indices with strictly lower priority than element `i` — the paper's
    /// `lp(i)`.
    pub fn lp(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let p = self.prio_of[i];
        self.by_urgency.iter().copied().skip(p as usize + 1)
    }

    /// `true` iff element `a` is strictly more urgent than element `b`.
    pub fn is_higher(&self, a: usize, b: usize) -> bool {
        self.prio_of[a] < self.prio_of[b]
    }
}

/// Sorts `(index, key)` pairs ascending by key with index tiebreak — shared
/// helper for external callers building bespoke orders.
pub fn order_by_key(keys: &[Time]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by_key(|&i| (keys[i], i));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::TaskSet;

    #[test]
    fn rm_orders_by_period() {
        let set = TaskSet::from_ct(&[(1, 20), (1, 5), (1, 10)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        assert_eq!(pm.by_urgency(), &[1, 2, 0]);
        assert_eq!(pm.priority(1), Priority(0));
        assert_eq!(pm.priority(2), Priority(1));
        assert_eq!(pm.priority(0), Priority(2));
    }

    #[test]
    fn dm_orders_by_deadline() {
        let set = TaskSet::from_cdt(&[(1, 9, 10), (1, 3, 12), (1, 5, 8)]).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        assert_eq!(pm.by_urgency(), &[1, 2, 0]);
    }

    #[test]
    fn hp_and_lp_sets() {
        let pm = PriorityMap::from_order(vec![2, 0, 1]);
        // Urgency order: 2 > 0 > 1.
        assert_eq!(pm.hp(2).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(pm.hp(0).collect::<Vec<_>>(), vec![2]);
        assert_eq!(pm.hp(1).collect::<Vec<_>>(), vec![2, 0]);
        assert_eq!(pm.lp(2).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(pm.lp(1).collect::<Vec<_>>(), Vec::<usize>::new());
        assert!(pm.is_higher(2, 0));
        assert!(!pm.is_higher(1, 0));
    }

    #[test]
    fn ties_break_by_index_for_determinism() {
        let set = TaskSet::from_ct(&[(1, 10), (1, 10), (1, 10)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        assert_eq!(pm.by_urgency(), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn duplicate_order_panics() {
        let _ = PriorityMap::from_order(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_order_panics() {
        let _ = PriorityMap::from_order(vec![0, 3]);
    }

    #[test]
    fn identity_and_empty() {
        let pm = PriorityMap::identity(3);
        assert_eq!(pm.by_urgency(), &[0, 1, 2]);
        let empty = PriorityMap::identity(0);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn order_by_key_helper() {
        assert_eq!(order_by_key(&[t(5), t(2), t(5)]), vec![1, 0, 2]);
    }
}
