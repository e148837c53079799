//! Model checks for the work-stealing executor core (feature `model`).
//!
//! [`profirt_conc::exec::Core`] does all of its synchronization through
//! the `profirt_conc::sync` facade, so under `--features model` every
//! lock, condvar wait, and SeqCst atomic op inside it becomes an
//! explorer scheduling point. These tests exhaust the park/unpark,
//! steal, and close/drain protocols at 2–3 threads — precisely the
//! window where a missed `pending` re-check or a notify outside the
//! park lock shows up as a lost wakeup or a stranded task.
//!
//! Run with: `cargo test -p profirt_conc --features model --tests`

#![cfg(feature = "model")]

use profirt_conc::exec::{Core, CoreConfig};
use profirt_conc::model::{self, thread, Options};
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
fn park_protocol_has_no_lost_wakeup_at_two_threads() {
    // One worker, one producer. The worker may scan, find nothing, and
    // enter the park protocol at any point relative to the producer's
    // inject + close; the `pending`/`closed` re-check under the park
    // lock must close every window. A lost wakeup here deadlocks the
    // join and the explorer reports it.
    let stats = model::check_with(small(4000), || {
        let core: Arc<Core<u32>> = Arc::new(Core::new(CoreConfig::default()));
        let done = Arc::new(AtomicUsize::new(0));
        let (c, d) = (Arc::clone(&core), Arc::clone(&done));
        let worker = thread::spawn(move || {
            c.run_worker(0, |t| {
                d.fetch_add(t as usize, Ordering::SeqCst);
            });
        });
        core.inject(7).expect("bounded queue is empty");
        core.close();
        worker.join();
        assert_eq!(done.load(Ordering::SeqCst), 7, "task lost in park race");
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

#[test]
fn steal_and_drain_protocol_is_clean_at_three_threads() {
    // Two workers, lopsided seed (everything on shard 0), so worker 1
    // only makes progress through the steal path. Every task must be
    // executed exactly once across all interleavings of pop, steal,
    // park, and close. This is the acceptance scenario: the bounded
    // DFS must cover >= 1000 distinct schedules and find nothing.
    let stats = model::check_with(
        Options {
            max_schedules: 6000,
            random_schedules: 0,
            ..Options::default()
        },
        || {
            let core: Arc<Core<u32>> = Arc::new(Core::new(CoreConfig {
                workers: 2,
                ..CoreConfig::default()
            }));
            core.seed_shard(0, 1);
            core.seed_shard(0, 2);
            core.close();
            let done = Arc::new(AtomicUsize::new(0));
            let mut workers = Vec::new();
            for w in 0..2 {
                let (c, d) = (Arc::clone(&core), Arc::clone(&done));
                workers.push(thread::spawn(move || {
                    c.run_worker(w, |t| {
                        d.fetch_add(t as usize, Ordering::SeqCst);
                    });
                }));
            }
            for h in workers {
                h.join();
            }
            assert_eq!(done.load(Ordering::SeqCst), 3, "task lost or duplicated");
        },
    );
    assert!(
        stats.schedules >= 1000,
        "expected >= 1000 interleavings of the steal/park protocol, got {}",
        stats.schedules
    );
}

#[test]
fn close_wakes_every_parked_worker() {
    // Two workers with NO work at all: both head straight for the park
    // protocol and only `close`'s notify_all can release them. A
    // notify_one here (or a notify outside the park lock) strands one
    // worker.
    let stats = model::check_with(small(4000), || {
        let core: Arc<Core<u32>> = Arc::new(Core::new(CoreConfig {
            workers: 2,
            ..CoreConfig::default()
        }));
        let mut workers = Vec::new();
        for w in 0..2 {
            let c = Arc::clone(&core);
            workers.push(thread::spawn(move || {
                c.run_worker(w, |_| {});
            }));
        }
        core.close();
        for h in workers {
            h.join();
        }
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}

#[test]
fn injection_respects_close_in_every_interleaving() {
    // Producer injects concurrently with a closer: whatever the
    // interleaving, an accepted task must be drained and a rejected one
    // handed back — tasks can never vanish.
    let stats = model::check_with(small(4000), || {
        let core: Arc<Core<u32>> = Arc::new(Core::new(CoreConfig::default()));
        let closer = {
            let c = Arc::clone(&core);
            thread::spawn(move || c.close())
        };
        let accepted = core.inject(5).is_ok();
        closer.join();
        // Core is closed by now; draining inline keeps this at 2 threads.
        let sum = std::cell::Cell::new(0u32);
        core.run_worker(0, |t| sum.set(sum.get() + t));
        if accepted {
            assert_eq!(sum.get(), 5, "accepted task vanished");
        } else {
            assert_eq!(sum.get(), 0, "rejected task was still queued");
        }
    });
    assert!(stats.schedules > 1, "exploration must branch: {stats:?}");
}
