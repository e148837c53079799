//! Seed-parallel experiment execution.
//!
//! Sweeps run the same closure over many seeds; [`try_par_map_seeds`]
//! distributes them over the work-stealing executor core from
//! [`profirt_conc::exec`] and returns results in seed order
//! (deterministic output regardless of scheduling). Seeds are
//! pre-sharded round-robin across the workers, idle workers steal from
//! loaded ones, and every synchronization primitive in the path — the
//! core's deques and park protocol, the result slots, the failure list —
//! goes through the [`profirt_conc::sync`] facade, so the exact
//! protocol executing here is the one the model checker exhausts in
//! `crates/conc/tests/exec_model.rs`. Slots are guarded by one mutex
//! each so the scoped workers can write disjoint entries without unsafe
//! code.
//!
//! Workers are panic-safe: a panicking closure used to poison its slot
//! mutex and abort the whole scope, so one bad seed took down the entire
//! sweep with no indication of which seed failed. Each invocation is now
//! wrapped in [`std::panic::catch_unwind`]; the failing seeds are recorded
//! and surfaced through [`try_par_map_seeds`]'s error, while the
//! remaining seeds still run to completion.
//!
//! Caught panics still pass through the process panic hook, so each
//! failing seed prints the standard `thread panicked` line to stderr
//! before the aggregated report. That is deliberate: the hook output
//! carries the panic location, and swapping the global hook from a
//! library would race with other threads and tests.

use std::panic::{catch_unwind, AssertUnwindSafe};

use profirt_conc::exec::{Core, CoreConfig};
use profirt_conc::sync::Mutex;

/// The failure report of a sweep in which one or more seeds panicked.
#[derive(Clone, Debug)]
pub struct SeedPanics {
    /// `(seed, panic message)` for every failing seed, in seed order.
    pub failures: Vec<(u64, String)>,
}

impl std::fmt::Display for SeedPanics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} seed(s) panicked:", self.failures.len())?;
        for (seed, msg) in &self.failures {
            write!(f, " [seed {seed}: {msg}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for SeedPanics {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every seed in `0..n`, in parallel over `workers` threads,
/// returning results ordered by seed — or the list of panicking seeds.
///
/// A panic in `f` is caught on the worker thread: the seed and its panic
/// message are recorded, every other seed still runs, and the whole sweep
/// returns `Err` with all failures collected (instead of aborting the
/// thread scope mid-flight).
pub fn try_par_map_seeds<R, F>(n: u64, workers: usize, f: F) -> Result<Vec<R>, SeedPanics>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    // At least one worker, never more workers than items: a huge requested
    // count must not translate into a huge (or OS-refused) thread spawn.
    let workers = workers.clamp(1, (n.max(1)) as usize);
    let core: Core<u64> = Core::new(CoreConfig {
        workers,
        ..CoreConfig::default()
    });
    for seed in 0..n {
        core.seed_shard(seed as usize % workers, seed);
    }
    // The batch is fully laid out: workers exit once they drain it.
    core.close();

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slots: Vec<_> = results.iter_mut().map(Mutex::new).collect();
    let failures: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for w in 0..workers {
            let core = &core;
            let f = &f;
            let slots = &slots;
            let failures = &failures;
            scope.spawn(move || {
                core.run_worker(w, |seed| {
                    // The closure is invoked *outside* any lock, so a panic
                    // here can neither poison a slot nor kill the scope.
                    match catch_unwind(AssertUnwindSafe(|| f(seed))) {
                        Ok(r) => {
                            **slots[seed as usize].lock().expect("slot lock") = Some(r);
                        }
                        Err(payload) => failures
                            .lock()
                            .expect("failure lock")
                            .push((seed, panic_message(payload))),
                    }
                });
            });
        }
    });

    let mut failures = failures.into_inner().expect("failure lock");
    if !failures.is_empty() {
        failures.sort_by_key(|&(seed, _)| seed);
        return Err(SeedPanics { failures });
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The seed-ordered results of a sweep in which no seed panics.
    fn map_seeds<R: Send>(n: u64, workers: usize, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
        try_par_map_seeds(n, workers, f).unwrap()
    }

    #[test]
    fn results_in_seed_order() {
        let out = map_seeds(64, 8, |s| s * 2);
        assert_eq!(out, (0..64).map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_seed_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = map_seeds(100, 4, |s| {
            counter.fetch_add(1, Ordering::Relaxed);
            s
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_and_zero_items() {
        assert_eq!(map_seeds(0, 1, |s| s), Vec::<u64>::new());
        assert_eq!(map_seeds(3, 0, |s| s), vec![0, 1, 2]); // workers clamped to 1
    }

    #[test]
    fn absurd_worker_counts_are_clamped_to_item_count() {
        // Must not try to spawn a million threads for four items.
        assert_eq!(map_seeds(4, 1_000_000, |s| s), vec![0, 1, 2, 3]);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        // Worker-count independence: the executor may interleave and
        // steal however it likes, but the seed-ordered output is fixed.
        let reference = map_seeds(50, 1, |s| s.wrapping_mul(0x9E37_79B9) ^ (s << 7));
        for workers in [2, 3, 8, 50] {
            let out = map_seeds(50, workers, |s| s.wrapping_mul(0x9E37_79B9) ^ (s << 7));
            assert_eq!(out, reference, "workers = {workers}");
        }
    }

    #[test]
    fn panicking_seed_is_reported_not_aborted() {
        let err = try_par_map_seeds(16, 4, |s| {
            if s == 7 {
                panic!("boom at {s}");
            }
            s
        })
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].0, 7);
        assert!(err.failures[0].1.contains("boom at 7"), "{err}");
    }

    #[test]
    fn all_other_seeds_complete_despite_panics() {
        let counter = AtomicU64::new(0);
        let err = try_par_map_seeds(32, 4, |s| {
            if s % 8 == 3 {
                panic!("bad seed");
            }
            counter.fetch_add(1, Ordering::Relaxed);
            s
        })
        .unwrap_err();
        // Failing seeds 3, 11, 19, 27 reported in order; the rest all ran.
        assert_eq!(
            err.failures.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![3, 11, 19, 27]
        );
        assert_eq!(counter.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn multiple_panicking_seeds_reported_in_seed_order() {
        // Failure ordering must not depend on which worker hit its
        // panic first: seeds land on different shards and finish in
        // arbitrary order, but the report is sorted by seed.
        let err = try_par_map_seeds(24, 6, |s| {
            if s % 2 == 1 {
                panic!("odd seed {s}");
            }
            s
        })
        .unwrap_err();
        let seeds: Vec<u64> = err.failures.iter().map(|f| f.0).collect();
        assert_eq!(seeds, (0..24).filter(|s| s % 2 == 1).collect::<Vec<_>>());
        assert!(err.failures[0].1.contains("odd seed 1"), "{err}");
    }
}
