//! Property-based tests for the outgoing queues.

use proptest::prelude::*;

use profirt_base::{Priority, StreamId, Time};
use profirt_profibus::{ApQueue, QueuePolicy, Request, StackQueue};

proptest! {
    #[test]
    fn ap_queue_pops_in_key_order(
        entries in proptest::collection::vec(
            (0usize..16, 0i64..10_000, 0u32..16, 1i64..1_000), 1..64
        ),
        policy_pick in 0u8..3,
    ) {
        let policy = match policy_pick {
            0 => QueuePolicy::Fcfs,
            1 => QueuePolicy::DeadlineMonotonic,
            _ => QueuePolicy::Edf,
        };
        let mut q = ApQueue::new(policy);
        for (i, &(stream, dl, prio, ch)) in entries.iter().enumerate() {
            q.push(Request {
                stream: StreamId(stream),
                release: Time::new(i as i64),
                abs_deadline: Time::new(dl),
                priority: Priority(prio),
                cycle_time: Time::new(ch),
            });
        }
        let drained = q.drain_ordered();
        prop_assert_eq!(drained.len(), entries.len());
        for w in drained.windows(2) {
            match policy {
                QueuePolicy::Fcfs => prop_assert!(w[0].release <= w[1].release),
                QueuePolicy::DeadlineMonotonic => {
                    prop_assert!(w[0].priority.0 <= w[1].priority.0)
                }
                QueuePolicy::Edf => {
                    prop_assert!(w[0].abs_deadline <= w[1].abs_deadline)
                }
            }
        }
    }

    #[test]
    fn stack_queue_never_exceeds_capacity(
        cap in 1usize..8,
        pushes in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut s = StackQueue::new(cap);
        let mut accepted = 0usize;
        let mut popped = 0usize;
        for (i, push) in pushes.iter().enumerate() {
            if *push {
                let pre_len = s.len();
                let ok = s.try_push(Request {
                    stream: StreamId(i),
                    release: Time::new(i as i64),
                    abs_deadline: Time::new(i as i64 + 100),
                    priority: Priority(0),
                    cycle_time: Time::new(1),
                });
                if ok { accepted += 1; }
                prop_assert!(s.len() <= cap);
                prop_assert_eq!(ok, pre_len < cap, "push accepted iff a slot was free");
                prop_assert_eq!(accepted - popped, s.len());
            } else if s.pop().is_some() {
                popped += 1;
            }
        }
        prop_assert_eq!(accepted - popped, s.len());
    }
}
