//! The work-stealing executor core.
//!
//! [`Core`] is the scheduling substrate the ROADMAP's
//! feasibility-as-a-service daemon will mount, and what
//! `experiments::runner::try_par_map_seeds` runs on today: sharded
//! per-worker deques, steal-from-random-victim when a worker runs dry,
//! a **bounded injection queue** with a backpressure error for external
//! producers, and park/unpark built on the [`crate::sync`] facade's
//! condvar — so the whole join/steal/park protocol is model-checked by
//! `tests/exec_model.rs` under `--features model`.
//!
//! The core deliberately does **not** spawn threads. The caller mounts
//! worker loops on whatever threads it owns (a `std::thread::scope` for
//! borrowing callers, dedicated threads for a server, model threads
//! under the explorer):
//!
//! ```
//! use profirt_conc::exec::{Core, CoreConfig};
//!
//! let core: Core<u64> = Core::new(CoreConfig { workers: 4, ..CoreConfig::default() });
//! for seed in 0..100 {
//!     core.seed_shard((seed % 4) as usize, seed);
//! }
//! core.close();
//! let sum = std::sync::Mutex::new(0u64);
//! std::thread::scope(|scope| {
//!     for w in 0..core.workers() {
//!         let (core, sum) = (&core, &sum);
//!         scope.spawn(move || core.run_worker(w, |seed| *sum.lock().unwrap() += seed));
//!     }
//! });
//! assert_eq!(sum.into_inner().unwrap(), (0..100).sum());
//! ```
//!
//! ## The park protocol (the model-checked part)
//!
//! A producer makes work visible by incrementing `pending` *before* it
//! releases the queue lock, then wakes a sleeper if `sleepers > 0`,
//! taking the park lock around the notify. A worker that found nothing
//! takes the park lock, increments `sleepers`, **re-checks** `pending`
//! (and the close flag), and only then waits. If the worker's re-check
//! missed a push, the push happened after the re-check, which is after
//! `sleepers` was raised — so the producer sees `sleepers > 0` and its
//! notify, serialized behind the park lock, cannot land before the
//! worker is in `wait`. Exactly the lost-wakeup window the explorer
//! exhausts at 2–3 threads.

use std::collections::VecDeque;

use crate::rng::SplitMix64;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};

/// Executor shape: worker/shard count, injection bound, steal seed.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Worker (= shard) count; clamped to at least 1.
    pub workers: usize,
    /// Capacity of the external injection queue; [`Core::inject`]
    /// returns [`Reject::Full`] beyond it. Pre-distribution via
    /// [`Core::seed_shard`] is not bounded by this.
    pub queue_cap: usize,
    /// Seed for the per-worker victim-selection RNG (deterministic:
    /// worker `w` derives its stream from `steal_seed ^ w`).
    pub steal_seed: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_cap: 1024,
            steal_seed: 0x5EED_5EED_5EED_5EED,
        }
    }
}

/// Backpressure error from [`Core::inject`]: the task is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum Reject<T> {
    /// The bounded injection queue is at capacity — retry later or shed.
    Full(T),
    /// [`Core::close`] was already called; no new work is accepted.
    Closed(T),
}

/// The sharded work-stealing core. See the module docs for the
/// protocol; all synchronization goes through the [`crate::sync`]
/// facade so the explorer can drive it.
pub struct Core<T> {
    shards: Vec<Mutex<VecDeque<T>>>,
    injector: Mutex<VecDeque<T>>,
    queue_cap: usize,
    /// Tasks enqueued (shard or injector) and not yet popped.
    pending: AtomicUsize,
    /// Workers currently inside the park protocol.
    sleepers: AtomicUsize,
    closed: AtomicBool,
    park: Mutex<()>,
    wake: Condvar,
    steal_seed: u64,
}

impl<T> Core<T> {
    /// Builds a core with `cfg.workers` shards (at least one).
    pub fn new(cfg: CoreConfig) -> Self {
        let workers = cfg.workers.max(1);
        Self {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            queue_cap: cfg.queue_cap,
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            park: Mutex::new(()),
            wake: Condvar::new(),
            steal_seed: cfg.steal_seed,
        }
    }

    /// Worker (= shard) count.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Pre-distributes a task onto worker `w`'s own deque (unbounded —
    /// for known-size batches laid out before the workers start).
    pub fn seed_shard(&self, w: usize, task: T) {
        {
            let mut shard = self.shards[w % self.shards.len()]
                .lock()
                .expect("shard lock");
            shard.push_back(task);
            // Made visible before the lock drops: a parked worker that
            // re-checks `pending` under the park lock must see it.
            self.pending.fetch_add(1, Ordering::SeqCst);
        }
        self.wake_one();
    }

    /// Injects external work through the bounded queue. Backpressure:
    /// hands the task back as [`Reject::Full`] at capacity, or
    /// [`Reject::Closed`] after [`Core::close`].
    pub fn inject(&self, task: T) -> Result<(), Reject<T>> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Reject::Closed(task));
        }
        {
            let mut q = self.injector.lock().expect("injector lock");
            if self.closed.load(Ordering::SeqCst) {
                return Err(Reject::Closed(task));
            }
            if q.len() >= self.queue_cap {
                return Err(Reject::Full(task));
            }
            q.push_back(task);
            self.pending.fetch_add(1, Ordering::SeqCst);
        }
        self.wake_one();
        Ok(())
    }

    /// Closes the core: no new work is accepted, and workers return
    /// once everything already queued has been popped.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.park.lock().expect("park lock");
        self.wake.notify_all();
    }

    /// Runs worker `w`'s loop: drain own shard, then the injector, then
    /// steal from victims in seeded-random rotation; park when nothing
    /// is visible; return when the core is closed and drained. Each
    /// popped task is handed to `handler`.
    ///
    /// `handler` runs outside every internal lock, so it may call
    /// [`Core::inject`] (self-scheduling servers) but not block on the
    /// core's own completion.
    pub fn run_worker(&self, w: usize, mut handler: impl FnMut(T)) {
        let n = self.shards.len();
        let mut rng = SplitMix64(self.steal_seed ^ (w as u64).wrapping_mul(0x9E37));
        loop {
            if let Some(task) = self.pop_some(w, n, &mut rng) {
                handler(task);
                continue;
            }
            // Nothing visible: exit or park.
            {
                let guard = self.park.lock().expect("park lock");
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                // Re-check under the park lock: a producer that pushed
                // after our failed scans will see sleepers > 0 and its
                // notify serializes behind this lock.
                if self.pending.load(Ordering::SeqCst) > 0 {
                    self.sleepers.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                if self.closed.load(Ordering::SeqCst) {
                    self.sleepers.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                let _guard = self.wake.wait(guard).expect("park wait");
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// One full scan: own shard front, injector front, victims' backs.
    fn pop_some(&self, w: usize, n: usize, rng: &mut SplitMix64) -> Option<T> {
        if let Some(task) = self.pop_front_of(&self.shards[w]) {
            return Some(task);
        }
        if let Some(task) = self.pop_front_of(&self.injector) {
            return Some(task);
        }
        if n > 1 {
            // Random rotation over the other shards; every victim is
            // still visited once per scan so no queued task can hide.
            let start = rng.below(n - 1);
            for i in 0..(n - 1) {
                let v = (w + 1 + (start + i) % (n - 1)) % n;
                if let Some(task) = self.steal_back_of(&self.shards[v]) {
                    return Some(task);
                }
            }
        }
        None
    }

    fn pop_front_of(&self, q: &Mutex<VecDeque<T>>) -> Option<T> {
        let mut q = q.lock().expect("queue lock");
        let task = q.pop_front();
        if task.is_some() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
        task
    }

    fn steal_back_of(&self, q: &Mutex<VecDeque<T>>) -> Option<T> {
        let mut q = q.lock().expect("queue lock");
        let task = q.pop_back();
        if task.is_some() {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
        task
    }

    /// Wakes one parked worker if any might be sleeping.
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().expect("park lock");
            self.wake.notify_one();
        }
    }
}

#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;

    #[test]
    fn batch_drains_in_any_worker_count() {
        for workers in [1, 2, 4, 7] {
            let core: Core<u64> = Core::new(CoreConfig {
                workers,
                ..CoreConfig::default()
            });
            for seed in 0..200u64 {
                core.seed_shard((seed as usize) % workers, seed);
            }
            core.close();
            let sum = std::sync::Mutex::new(0u64);
            let count = std::sync::Mutex::new(0u64);
            std::thread::scope(|scope| {
                for w in 0..core.workers() {
                    let (core, sum, count) = (&core, &sum, &count);
                    scope.spawn(move || {
                        core.run_worker(w, |seed| {
                            *sum.lock().unwrap() += seed;
                            *count.lock().unwrap() += 1;
                        })
                    });
                }
            });
            assert_eq!(sum.into_inner().unwrap(), (0..200).sum::<u64>());
            assert_eq!(count.into_inner().unwrap(), 200);
        }
    }

    #[test]
    fn stealing_rebalances_a_lopsided_seed() {
        // All work on shard 0; both workers must still finish (worker 1
        // can only make progress by stealing).
        let core: Core<u64> = Core::new(CoreConfig {
            workers: 2,
            ..CoreConfig::default()
        });
        for seed in 0..100u64 {
            core.seed_shard(0, seed);
        }
        core.close();
        let count = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (core, count) = (&core, &count);
                scope.spawn(move || {
                    core.run_worker(w, |_| {
                        count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    })
                });
            }
        });
        assert_eq!(count.into_inner(), 100);
    }

    #[test]
    fn injection_backpressure_and_close() {
        let core: Core<u32> = Core::new(CoreConfig {
            workers: 1,
            queue_cap: 2,
            ..CoreConfig::default()
        });
        assert_eq!(core.inject(1), Ok(()));
        assert_eq!(core.inject(2), Ok(()));
        assert_eq!(core.inject(3), Err(Reject::Full(3)));
        core.close();
        assert_eq!(core.inject(4), Err(Reject::Closed(4)));
        let seen = std::sync::Mutex::new(Vec::new());
        core.run_worker(0, |t| seen.lock().unwrap().push(t));
        assert_eq!(seen.into_inner().unwrap(), vec![1, 2]);
    }

    #[test]
    fn workers_park_until_work_arrives_then_drain() {
        let core: Core<u32> = Core::new(CoreConfig {
            workers: 2,
            ..CoreConfig::default()
        });
        let seen = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (core, seen) = (&core, &seen);
                scope.spawn(move || core.run_worker(w, |t| seen.lock().unwrap().push(t)));
            }
            // Give the workers a moment to park, then feed and close.
            std::thread::yield_now();
            for t in 0..50u32 {
                core.inject(t).expect("injection within cap");
            }
            core.close();
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }
}
