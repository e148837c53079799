//! Model checks for the `profirt serve` pipeline shape (feature `model`).
//!
//! The serving layer (`crates/serve`) is a bounded injection queue in
//! front of sharded workers on [`profirt_conc::exec::Core`], with
//! explicit backpressure (`Reject::Full`) and a drain-then-exit
//! shutdown. These scenarios model exactly that shape — front end
//! injecting under backpressure, two shard workers, graceful shutdown
//! racing submission — and assert the serving-layer contract in every
//! interleaving: **no accepted request is ever lost, no rejected
//! request is ever processed, and accepted + rejected always equals
//! submitted.** The last three scenarios check the per-request
//! one-shot reply slot ([`profirt_conc::oneshot`]) that a front end
//! blocks on while a worker answers.
//!
//! Run with: `cargo test -p profirt_conc --features model --tests`

#![cfg(feature = "model")]

use profirt_conc::exec::{Core, CoreConfig, Reject};
use profirt_conc::model::{self, thread, Options};
use profirt_conc::oneshot::{self, RecvError};
use profirt_conc::sync::atomic::{AtomicUsize, Ordering};
use profirt_conc::sync::Arc;

fn small(max_schedules: usize) -> Options {
    Options {
        max_schedules,
        random_schedules: 64,
        ..Options::default()
    }
}

#[test]
fn backpressured_pipeline_loses_no_request_at_three_threads() {
    // The serve engine's steady state: a front end pushing requests
    // through a single-slot bounded queue while two shard workers race
    // it, then a graceful close. Depending on the interleaving any of
    // the three requests may bounce off the full queue — but whatever
    // the schedule, every accepted request must be processed exactly
    // once and every rejection must be visible to the front end. This
    // is the acceptance scenario: the bounded DFS must cover >= 1000
    // distinct schedules and find nothing.
    let stats = model::check_with(
        Options {
            max_schedules: 6000,
            random_schedules: 0,
            ..Options::default()
        },
        || {
            let core: Arc<Core<u32>> = Arc::new(Core::new(CoreConfig {
                workers: 2,
                queue_cap: 1,
                ..CoreConfig::default()
            }));
            let processed = Arc::new(AtomicUsize::new(0));
            let mut workers = Vec::new();
            for w in 0..2 {
                let (c, p) = (Arc::clone(&core), Arc::clone(&processed));
                workers.push(thread::spawn(move || {
                    c.run_worker(w, |_| {
                        p.fetch_add(1, Ordering::SeqCst);
                    });
                }));
            }
            // Front end (this thread): three submissions against one
            // queue slot — backpressure, not blocking, on overflow.
            let mut accepted = 0usize;
            let mut rejected = 0usize;
            for r in 0..3u32 {
                match core.inject(r) {
                    Ok(()) => accepted += 1,
                    Err(Reject::Full(_)) => rejected += 1,
                    Err(Reject::Closed(_)) => {
                        unreachable!("nobody closes before submission ends")
                    }
                }
            }
            core.close();
            for h in workers {
                h.join();
            }
            assert_eq!(accepted + rejected, 3, "a submission vanished");
            assert_eq!(
                processed.load(Ordering::SeqCst),
                accepted,
                "accepted requests lost or rejected requests processed"
            );
        },
    );
    assert!(
        stats.schedules >= 1000,
        "expected >= 1000 interleavings of the serve pipeline, got {}",
        stats.schedules
    );
}

#[test]
fn shutdown_racing_submission_never_drops_an_accepted_request() {
    // Graceful shutdown arriving while a client is mid-submission: the
    // engine closes concurrently with the producer's injects. Whatever
    // the interleaving, an accepted request must still be drained and
    // answered (close() drains, it does not discard), and a request
    // bounced with Reject::Closed must never execute.
    let stats = model::check_with(small(4000), || {
        let core: Arc<Core<u32>> = Arc::new(Core::new(CoreConfig {
            workers: 1,
            queue_cap: 2,
            ..CoreConfig::default()
        }));
        let accepted = Arc::new(AtomicUsize::new(0));
        let closed_back = Arc::new(AtomicUsize::new(0));
        let producer = {
            let (c, a, cb) = (
                Arc::clone(&core),
                Arc::clone(&accepted),
                Arc::clone(&closed_back),
            );
            thread::spawn(move || {
                for r in 0..2u32 {
                    match c.inject(r) {
                        Ok(()) => {
                            a.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(Reject::Closed(_)) => {
                            cb.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(Reject::Full(_)) => {
                            unreachable!("two slots, two injects, no consumer yet")
                        }
                    }
                }
            })
        };
        core.close();
        producer.join();
        // Core is closed; drain inline to keep the model at 2 threads.
        let processed = std::cell::Cell::new(0usize);
        core.run_worker(0, |_| processed.set(processed.get() + 1));
        assert_eq!(
            accepted.load(Ordering::SeqCst) + closed_back.load(Ordering::SeqCst),
            2,
            "a submission vanished during shutdown"
        );
        assert_eq!(
            processed.get(),
            accepted.load(Ordering::SeqCst),
            "drain-then-exit contract violated across the close race"
        );
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

#[test]
fn reply_slot_wakes_a_receiver_parked_before_the_send() {
    // The front end may park in recv before the worker sends, or find
    // the answer already there. A wakeup that can land before the
    // receiver waits shows up as a lost wakeup.
    let stats = model::check_with(small(4000), || {
        let (tx, rx) = oneshot::channel::<u32>();
        let worker = thread::spawn(move || tx.send(7));
        assert_eq!(rx.recv(), Ok(7));
        worker.join();
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

#[test]
fn reply_slot_wakes_a_parked_receiver_when_the_sender_drops_unsent() {
    // A worker lost mid-request drops its sender without answering: the
    // front end, parked or not, must get Err (answered "worker lost"),
    // never hang.
    let stats = model::check_with(small(4000), || {
        let (tx, rx) = oneshot::channel::<u32>();
        let worker = thread::spawn(move || drop(tx));
        assert_eq!(rx.recv(), Err(RecvError));
        worker.join();
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

#[test]
fn reply_slot_send_racing_a_receiver_drop_never_blocks() {
    // A requester that gave up drops its receiver while the worker
    // answers: the send must complete in every order.
    let stats = model::check_with(small(4000), || {
        let (tx, rx) = oneshot::channel::<u32>();
        let requester = thread::spawn(move || drop(rx));
        tx.send(9);
        requester.join();
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}
