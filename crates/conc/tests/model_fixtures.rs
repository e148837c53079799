//! The explorer's own soundness regression tests (feature `model`).
//!
//! Three knowingly-buggy two/three-thread fixtures the checker MUST
//! flag — a missed notify (lost wakeup), an ABBA double-lock deadlock,
//! and a non-atomic read-modify-write race — plus correct fixtures it
//! must pass while exploring a meaningfully large schedule space.
//!
//! Run with: `cargo test -p profirt_conc --features model --tests`

#![cfg(feature = "model")]

use profirt_conc::model::{self, thread, FailureKind, Options};
use profirt_conc::sync::atomic::{AtomicUsize, Ordering};
use profirt_conc::sync::{Arc, Condvar, Mutex};

/// Small option set for fixtures whose bug needs only a few schedules.
fn quick() -> Options {
    Options {
        max_schedules: 2000,
        random_schedules: 32,
        ..Options::default()
    }
}

#[test]
fn flags_missed_notify_as_lost_wakeup() {
    // BUG under test: the producer sets the flag but never notifies.
    // In schedules where the consumer parks first, nobody ever wakes it.
    let failure = model::try_check_with(quick(), || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let consumer_state = Arc::clone(&state);
        let consumer = thread::spawn(move || {
            let (flag, cv) = &*consumer_state;
            let mut g = flag.lock().expect("flag lock");
            while !*g {
                g = cv.wait(g).expect("flag wait");
            }
        });
        let (flag, _cv) = &*state;
        *flag.lock().expect("flag lock") = true; // forgot cv.notify_one()
        consumer.join();
    })
    .expect_err("the checker must flag the missed notify");
    assert_eq!(failure.kind, FailureKind::LostWakeup, "{failure}");
    assert!(
        failure.message.contains("wait"),
        "report should name the parked waiter: {failure}"
    );
    assert!(
        !failure.trace.is_empty(),
        "trace must be attached for replay"
    );
    assert!(
        !failure.schedule.is_empty(),
        "failing schedule needs at least one decision to reproduce"
    );
}

#[test]
fn flags_notify_one_with_two_waiters_as_lost_wakeup() {
    // BUG under test: a shutdown path wakes ONE of two parked waiters;
    // the other is stranded. Waking every waiter on a shutdown edge
    // (notify_all) is the fix for this bug class.
    let failure = model::try_check_with(quick(), || {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let mut waiters = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&state);
            waiters.push(thread::spawn(move || {
                let (done, cv) = &*s;
                let mut g = done.lock().expect("done lock");
                while !*g {
                    g = cv.wait(g).expect("done wait");
                }
            }));
        }
        let (done, cv) = &*state;
        *done.lock().expect("done lock") = true;
        cv.notify_one(); // BUG: must be notify_all
        for w in waiters {
            w.join();
        }
    })
    .expect_err("the checker must flag the single notify with two waiters");
    assert_eq!(failure.kind, FailureKind::LostWakeup, "{failure}");
}

#[test]
fn flags_abba_double_lock_as_deadlock() {
    let failure = model::try_check_with(quick(), || {
        let locks = Arc::new((Mutex::new(0u32), Mutex::new(0u32)));
        let l2 = Arc::clone(&locks);
        let t = thread::spawn(move || {
            let (a, b) = &*l2;
            let _ga = a.lock().expect("lock a");
            let _gb = b.lock().expect("lock b");
        });
        let (a, b) = &*locks;
        {
            // BUG under test: opposite acquisition order.
            let _gb = b.lock().expect("lock b");
            let _ga = a.lock().expect("lock a");
        }
        t.join();
    })
    .expect_err("the checker must flag the ABBA deadlock");
    assert_eq!(failure.kind, FailureKind::Deadlock, "{failure}");
    assert!(
        failure.message.contains("mutex"),
        "report should name the mutexes involved: {failure}"
    );
}

#[test]
fn flags_nonatomic_rmw_race_as_assertion_panic() {
    // BUG under test: load-then-store instead of fetch_add. Two
    // increments can collapse into one under an adversarial schedule.
    let failure = model::try_check_with(quick(), || {
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = counter.load(Ordering::SeqCst);
        counter.store(v + 1, Ordering::SeqCst);
        t.join();
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost increment");
    })
    .expect_err("the checker must find the lost increment");
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(
        failure.message.contains("lost increment"),
        "the fixture's own assertion should be the reported failure: {failure}"
    );
}

#[test]
fn passes_correct_condvar_handshake() {
    let stats = model::check(|| {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s = Arc::clone(&state);
        let consumer = thread::spawn(move || {
            let (flag, cv) = &*s;
            let mut g = flag.lock().expect("flag lock");
            while !*g {
                g = cv.wait(g).expect("flag wait");
            }
        });
        let (flag, cv) = &*state;
        *flag.lock().expect("flag lock") = true;
        cv.notify_all();
        consumer.join();
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

#[test]
fn passes_correct_fixture_and_explores_over_1000_interleavings() {
    // Acceptance gate: a correct 3-thread mutex counter must pass clean
    // while the bounded-preemption DFS covers >= 1000 schedules.
    let stats = model::check_with(
        Options {
            max_schedules: 5000,
            random_schedules: 0,
            ..Options::default()
        },
        || {
            let counter = Arc::new(Mutex::new(0u32));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                handles.push(thread::spawn(move || {
                    for _ in 0..3 {
                        *c.lock().expect("counter lock") += 1;
                    }
                }));
            }
            for _ in 0..3 {
                *counter.lock().expect("counter lock") += 1;
            }
            for h in handles {
                h.join();
            }
            assert_eq!(*counter.lock().expect("counter lock"), 9);
        },
    );
    assert!(
        stats.schedules >= 1000,
        "expected >= 1000 interleavings, got {}",
        stats.schedules
    );
}

#[test]
fn failing_schedules_replay_deterministically() {
    // The same buggy body must produce the same failure kind and the
    // same first failing schedule on repeated exploration (replayable
    // reports are what make the trace actionable).
    let run = || {
        model::try_check_with(quick(), || {
            let locks = Arc::new((Mutex::new(()), Mutex::new(())));
            let l2 = Arc::clone(&locks);
            let t = thread::spawn(move || {
                let _a = l2.0.lock().expect("a");
                let _b = l2.1.lock().expect("b");
            });
            let _b = locks.1.lock().expect("b");
            let _a = locks.0.lock().expect("a");
            drop((_a, _b));
            t.join();
        })
        .expect_err("deadlock expected")
    };
    let first = run();
    let second = run();
    assert_eq!(first.kind, second.kind);
    assert_eq!(first.schedule, second.schedule);
    assert_eq!(first.trace, second.trace);
}
