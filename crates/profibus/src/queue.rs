//! Outgoing message queues.
//!
//! Stock PROFIBUS implementations keep two FCFS outgoing queues (high and
//! low priority). The paper's §4 architecture adds a **priority-ordered
//! queue at the application-process level** — keyed by static (DM) priority
//! or by absolute deadline (EDF) — and throttles the communication-stack
//! FCFS queue to a single pending request so that the stack can never
//! reorder more than one message behind the AP queue's back.
//!
//! [`ApQueue`] implements all three dispatching policies behind one type so
//! simulators and experiments can swap policies without code changes;
//! [`StackQueue`] models the depth-limited stack queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

use profirt_base::{Priority, StreamId, Time};

/// A queued message request (one message cycle to execute).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request {
    /// Originating stream.
    pub stream: StreamId,
    /// Instant the request was placed in the AP queue.
    pub release: Time,
    /// Absolute deadline (`release + D`) — the EDF key.
    pub abs_deadline: Time,
    /// Static priority — the DM key (smaller = more urgent).
    pub priority: Priority,
    /// Worst-case message-cycle time `Ch` for this request.
    pub cycle_time: Time,
}

/// Dispatching policy of the application-process queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueuePolicy {
    /// First-come-first-served — the stock PROFIBUS behaviour (§3).
    #[default]
    Fcfs,
    /// Fixed priorities, deadline-monotonic by construction (§4, eq. (16)).
    DeadlineMonotonic,
    /// Earliest absolute deadline first (§4, eqs. (17)–(18)).
    Edf,
}

/// Priority-ordered (or FCFS) application-process queue.
///
/// Ordering is total and deterministic: the policy key first, then the
/// arrival sequence number (FIFO among equals). Per §4.2 the queue is
/// "re-ordered" only when a new request is inserted — which a heap gives us
/// for free, since keys of queued requests never change.
#[derive(Clone, Debug)]
pub struct ApQueue {
    policy: QueuePolicy,
    seq: u64,
    heap: BinaryHeap<Reverse<(i64, u64, QueuedRequest)>>,
}

/// Internal wrapper ordered only by the exposed key tuple.
#[derive(Clone, Copy, Debug)]
struct QueuedRequest(Request);

impl PartialEq for QueuedRequest {
    fn eq(&self, _: &Self) -> bool {
        true // ordering delegated entirely to the (key, seq) prefix
    }
}
impl Eq for QueuedRequest {}
impl PartialOrd for QueuedRequest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedRequest {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl ApQueue {
    /// Creates an empty queue with the given policy.
    pub fn new(policy: QueuePolicy) -> ApQueue {
        ApQueue {
            policy,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// The queue's policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    fn key(&self, r: &Request) -> i64 {
        match self.policy {
            QueuePolicy::Fcfs => 0,
            QueuePolicy::DeadlineMonotonic => r.priority.0 as i64,
            QueuePolicy::Edf => r.abs_deadline.ticks(),
        }
    }

    /// Inserts a request (the only operation that reorders the queue).
    pub fn push(&mut self, r: Request) {
        let key = self.key(&r);
        self.heap.push(Reverse((key, self.seq, QueuedRequest(r))));
        self.seq += 1;
    }

    /// Removes and returns the most urgent request.
    pub fn pop(&mut self) -> Option<Request> {
        self.heap.pop().map(|Reverse((_, _, q))| q.0)
    }

    /// The most urgent request without removing it.
    pub fn peek(&self) -> Option<&Request> {
        self.heap.peek().map(|Reverse((_, _, q))| &q.0)
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains the queue in dispatch order (test/diagnostic helper).
    pub fn drain_ordered(&mut self) -> Vec<Request> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(r) = self.pop() {
            out.push(r);
        }
        out
    }
}

/// Capacity of a [`StackQueue`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackCapacity {
    /// At most this many pending requests (`>= 1`).
    Slots(usize),
    /// No limit — the stock PROFIBUS stack, which accepts every request
    /// the AP layer hands down (so FCFS reordering happens wholesale).
    Unbounded,
}

impl StackCapacity {
    /// Maps the simulator-config convention (`usize::MAX` = stock /
    /// unbounded, anything else a hard slot count) onto the explicit
    /// variant.
    pub fn from_config(capacity: usize) -> StackCapacity {
        if capacity == usize::MAX {
            StackCapacity::Unbounded
        } else {
            StackCapacity::Slots(capacity)
        }
    }
}

/// The communication-stack FCFS queue with a hard capacity.
///
/// Stock PROFIBUS: [`StackCapacity::Unbounded`]. The paper's §4
/// architecture: capacity **1**, enforced through the local management
/// service, so at most one request sits below the AP queue at any time.
#[derive(Clone, Debug)]
pub struct StackQueue {
    capacity: StackCapacity,
    items: VecDeque<Request>,
}

impl StackQueue {
    /// Creates a stack queue with the given slot count (`>= 1`).
    ///
    /// # Panics
    /// Panics if `capacity == 0` (the stack must hold the in-flight
    /// request).
    pub fn new(capacity: usize) -> StackQueue {
        StackQueue::with_capacity(StackCapacity::Slots(capacity))
    }

    /// Creates a stack queue with an explicit capacity variant.
    ///
    /// # Panics
    /// Panics on `StackCapacity::Slots(0)`.
    pub fn with_capacity(capacity: StackCapacity) -> StackQueue {
        if let StackCapacity::Slots(n) = capacity {
            assert!(n >= 1, "stack queue capacity must be at least 1");
        }
        StackQueue {
            capacity,
            items: VecDeque::new(),
        }
    }

    /// The stock unbounded configuration.
    pub fn unbounded() -> StackQueue {
        StackQueue::with_capacity(StackCapacity::Unbounded)
    }

    /// The paper's single-slot configuration.
    pub fn single_slot() -> StackQueue {
        StackQueue::new(1)
    }

    /// Attempts to enqueue; returns `false` (rejecting the request) when
    /// full — the AP layer then retains the request in its own queue.
    pub fn try_push(&mut self, r: Request) -> bool {
        if self.is_full() {
            return false;
        }
        self.items.push_back(r);
        true
    }

    /// Removes the oldest request (FCFS).
    pub fn pop(&mut self) -> Option<Request> {
        self.items.pop_front()
    }

    /// The oldest request, if any.
    pub fn peek(&self) -> Option<&Request> {
        self.items.front()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when at capacity (never for an unbounded queue).
    pub fn is_full(&self) -> bool {
        match self.capacity {
            StackCapacity::Slots(n) => self.items.len() >= n,
            StackCapacity::Unbounded => false,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> StackCapacity {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn req(stream: usize, release: i64, dl: i64, prio: u32) -> Request {
        Request {
            stream: StreamId(stream),
            release: t(release),
            abs_deadline: t(dl),
            priority: Priority(prio),
            cycle_time: t(10),
        }
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let mut q = ApQueue::new(QueuePolicy::Fcfs);
        q.push(req(0, 0, 100, 5));
        q.push(req(1, 1, 50, 1));
        q.push(req(2, 2, 10, 9));
        let order: Vec<usize> = q.drain_ordered().iter().map(|r| r.stream.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn dm_orders_by_static_priority() {
        let mut q = ApQueue::new(QueuePolicy::DeadlineMonotonic);
        q.push(req(0, 0, 100, 5));
        q.push(req(1, 1, 50, 1));
        q.push(req(2, 2, 10, 9));
        let order: Vec<usize> = q.drain_ordered().iter().map(|r| r.stream.0).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        let mut q = ApQueue::new(QueuePolicy::Edf);
        q.push(req(0, 0, 100, 5));
        q.push(req(1, 1, 50, 1));
        q.push(req(2, 2, 10, 9));
        let order: Vec<usize> = q.drain_ordered().iter().map(|r| r.stream.0).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = ApQueue::new(QueuePolicy::Edf);
        q.push(req(0, 0, 50, 1));
        q.push(req(1, 1, 50, 1));
        q.push(req(2, 2, 50, 1));
        let order: Vec<usize> = q.drain_ordered().iter().map(|r| r.stream.0).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = ApQueue::new(QueuePolicy::DeadlineMonotonic);
        q.push(req(0, 0, 100, 3));
        assert_eq!(q.peek().unwrap().stream.0, 0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop().unwrap().stream.0, 0);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.peek().is_none());
    }

    #[test]
    fn priority_inversion_demo_fcfs_vs_dm() {
        // The paper's motivating scenario: an urgent request queued behind
        // ns-1 earlier, laxer requests. FCFS serves it last; DM first.
        let mut fcfs = ApQueue::new(QueuePolicy::Fcfs);
        let mut dm = ApQueue::new(QueuePolicy::DeadlineMonotonic);
        for (i, p) in [(0, 7u32), (1, 6), (2, 5), (3, 0)] {
            fcfs.push(req(i, i as i64, 1000, p));
            dm.push(req(i, i as i64, 1000, p));
        }
        assert_eq!(fcfs.drain_ordered().last().unwrap().stream.0, 3);
        assert_eq!(dm.drain_ordered().first().unwrap().stream.0, 3);
    }

    #[test]
    fn stack_queue_capacity_enforced() {
        let mut s = StackQueue::single_slot();
        assert_eq!(s.capacity(), StackCapacity::Slots(1));
        assert!(s.try_push(req(0, 0, 10, 0)));
        assert!(s.is_full());
        assert!(
            !s.try_push(req(1, 1, 20, 1)),
            "second push must be rejected"
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop().unwrap().stream.0, 0);
        assert!(s.is_empty());
        assert!(s.try_push(req(1, 1, 20, 1)));
    }

    #[test]
    fn stack_queue_is_fcfs() {
        let mut s = StackQueue::new(3);
        s.try_push(req(0, 0, 100, 9));
        s.try_push(req(1, 1, 5, 0));
        s.try_push(req(2, 2, 50, 4));
        assert_eq!(s.peek().unwrap().stream.0, 0);
        assert_eq!(s.pop().unwrap().stream.0, 0);
        assert_eq!(s.pop().unwrap().stream.0, 1);
        assert_eq!(s.pop().unwrap().stream.0, 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_stack_panics() {
        let _ = StackQueue::new(0);
    }

    #[test]
    fn unbounded_stack_never_fills() {
        let mut s = StackQueue::unbounded();
        assert_eq!(s.capacity(), StackCapacity::Unbounded);
        for i in 0..10_000 {
            assert!(!s.is_full());
            assert!(s.try_push(req(i, i as i64, 100, 0)));
        }
        assert_eq!(s.len(), 10_000);
        assert!(!s.is_full());
        // Still strictly FCFS.
        assert_eq!(s.pop().unwrap().stream.0, 0);
        assert_eq!(s.pop().unwrap().stream.0, 1);
    }

    #[test]
    fn capacity_from_config_maps_sentinel() {
        assert_eq!(
            StackCapacity::from_config(usize::MAX),
            StackCapacity::Unbounded
        );
        assert_eq!(StackCapacity::from_config(3), StackCapacity::Slots(3));
    }
}
