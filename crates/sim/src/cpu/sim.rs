//! The CPU simulation core: a streaming kernel over lazy job-release
//! generators.
//!
//! Job releases come from per-task [`TaskReleases`] generators merged on
//! demand (O(tasks) release state at any horizon); the ready set is a
//! heap ordered by the policy's urgency key with FIFO tie-break, and
//! every job completion is emitted as a [`CpuEvent`] into the observer
//! pipeline — results and response statistics are observers, exactly
//! like the network kernel.

use profirt_base::release::MergedReleases;
use profirt_base::{Criticality, TaskSet, Time};
use profirt_sched::fixed::PriorityMap;
use profirt_workload::{task_release_gens, TaskRelease};

use crate::engine::event::KeyedHeap;
use crate::engine::observer::{HistSummary, Observer, TickHistogram};

/// Dispatching discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuPolicy {
    /// Fixed priorities, preemptive (Joseph & Pandya setting).
    FixedPreemptive,
    /// Fixed priorities, non-preemptive (eqs. (1)–(2) setting).
    FixedNonPreemptive,
    /// EDF, preemptive (eqs. (3), (6)–(8) setting).
    EdfPreemptive,
    /// EDF, non-preemptive (eqs. (4)–(5), (9)–(10) setting).
    EdfNonPreemptive,
}

impl CpuPolicy {
    /// `true` for the preemptive disciplines.
    pub fn is_preemptive(self) -> bool {
        matches!(self, CpuPolicy::FixedPreemptive | CpuPolicy::EdfPreemptive)
    }
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct CpuSimConfig {
    /// Dispatching discipline.
    pub policy: CpuPolicy,
    /// Simulate releases in `[offset_i, horizon)`; jobs in flight at the
    /// horizon still run to completion.
    pub horizon: Time,
    /// Per-task first-release offsets; empty = synchronous (all zero).
    pub offsets: Vec<Time>,
    /// Per-task criticality (empty = all HI). Only consulted when
    /// `shed_lo` is set.
    pub criticality: Vec<Criticality>,
    /// Shed sub-HI releases at admission — the CPU-side analogue of the
    /// network kernel's HI (degraded) mode. The CPU simulator has no mode
    /// controller, so the flag models a whole run spent degraded: sub-HI
    /// jobs are never admitted to the ready set.
    pub shed_lo: bool,
}

/// Per-task observations.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CpuSimResult {
    /// Maximum observed response time per task (zero if no job completed).
    pub max_response: Vec<Time>,
    /// Number of deadline misses per task.
    pub misses: Vec<u64>,
    /// Number of completed jobs per task.
    pub completed: Vec<u64>,
}

impl CpuSimResult {
    /// `true` iff no task missed a deadline.
    pub fn no_misses(&self) -> bool {
        self.misses.iter().all(|&m| m == 0)
    }
}

/// One event of the CPU kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CpuEvent {
    /// A job ran to completion.
    Completed {
        /// The releasing task's index.
        task: usize,
        /// The job's release instant.
        release: Time,
        /// The job's absolute deadline.
        abs_deadline: Time,
        /// The completion instant.
        finish: Time,
    },
}

/// Assembles the [`CpuSimResult`] from the event stream.
#[derive(Clone, Debug)]
pub struct CpuResultObserver {
    result: CpuSimResult,
}

impl CpuResultObserver {
    /// An observer shaped for `n` tasks.
    pub fn new(n: usize) -> CpuResultObserver {
        CpuResultObserver {
            result: CpuSimResult {
                max_response: vec![Time::ZERO; n],
                misses: vec![0; n],
                completed: vec![0; n],
            },
        }
    }

    /// Finalises into the run result.
    pub fn into_result(self) -> CpuSimResult {
        self.result
    }
}

impl Observer<CpuEvent> for CpuResultObserver {
    fn observe(&mut self, _at: Time, event: &CpuEvent) {
        let CpuEvent::Completed {
            task,
            release,
            abs_deadline,
            finish,
        } = *event;
        let r = &mut self.result;
        r.max_response[task] = r.max_response[task].max(finish - release);
        r.completed[task] += 1;
        if finish > abs_deadline {
            r.misses[task] += 1;
        }
    }
}

/// Histogram of job response times, pooled over all tasks.
#[derive(Clone, Debug, Default)]
pub struct CpuResponseStats {
    /// The underlying histogram.
    pub hist: TickHistogram,
}

impl Observer<CpuEvent> for CpuResponseStats {
    fn observe(&mut self, _at: Time, event: &CpuEvent) {
        let CpuEvent::Completed {
            release, finish, ..
        } = *event;
        self.hist.record(finish - release);
    }
}

/// Validates policy/priority-map/offset invariants shared by the kernel
/// and the materialized reference.
///
/// # Panics
/// Panics if a fixed-priority policy is requested without a covering
/// priority map, or if `offsets` is non-empty but of the wrong length.
pub(crate) fn validate_inputs(set: &TaskSet, prio: Option<&PriorityMap>, config: &CpuSimConfig) {
    let n = set.len();
    assert!(
        config.offsets.is_empty() || config.offsets.len() == n,
        "one offset per task required"
    );
    assert!(
        config.criticality.is_empty() || config.criticality.len() == n,
        "one criticality per task required"
    );
    let fixed = matches!(
        config.policy,
        CpuPolicy::FixedPreemptive | CpuPolicy::FixedNonPreemptive
    );
    if fixed {
        assert!(
            prio.map(|p| p.len() == n).unwrap_or(false),
            "fixed-priority simulation requires a covering priority map"
        );
    }
}

/// The policy's urgency key of a job: lower pops first. The task index
/// makes keys of different tasks distinct; same-task jobs tie and fall
/// back to release (FIFO) order via the job's release-order sequence
/// number, which is preserved across preemptions.
/// `true` when a release of `task` must be shed at admission under this
/// config (shared by the kernel and the materialized reference so the
/// differential tests cover the shed path too).
pub(crate) fn shed_at_admission(config: &CpuSimConfig, task: usize) -> bool {
    config.shed_lo
        && config
            .criticality
            .get(task)
            .copied()
            .unwrap_or(Criticality::Hi)
            .shed_in_hi_mode()
}

pub(crate) fn urgency_key(
    policy: CpuPolicy,
    prio: Option<&PriorityMap>,
    task: usize,
    abs_deadline: Time,
) -> (i64, usize) {
    match policy {
        CpuPolicy::FixedPreemptive | CpuPolicy::FixedNonPreemptive => {
            (prio.unwrap().priority(task).0 as i64, task)
        }
        CpuPolicy::EdfPreemptive | CpuPolicy::EdfNonPreemptive => (abs_deadline.ticks(), task),
    }
}

/// An in-flight job.
#[derive(Clone, Copy, Debug)]
struct Job {
    task: usize,
    release: Time,
    abs_deadline: Time,
    remaining: Time,
    /// Release-order sequence number, assigned once at release and kept
    /// across preemptions — the FIFO tie-break among equal urgency keys
    /// (same-task jobs under fixed priorities) stays release-ordered even
    /// when the running job returns to the ready set.
    seq: u64,
}

impl Job {
    fn from_release(r: TaskRelease, seq: u64) -> Job {
        Job {
            task: r.task,
            release: r.release,
            abs_deadline: r.abs_deadline,
            remaining: r.cost,
            seq,
        }
    }
}

/// Runs the streaming CPU kernel, emitting every completion into
/// `observers`.
///
/// `prio` is required for the fixed-priority policies and ignored for
/// EDF.
///
/// # Panics
/// See [`simulate_cpu`].
pub fn run_cpu(
    set: &TaskSet,
    prio: Option<&PriorityMap>,
    config: &CpuSimConfig,
    observers: &mut [&mut dyn Observer<CpuEvent>],
) {
    validate_inputs(set, prio, config);
    let emit = |observers: &mut [&mut dyn Observer<CpuEvent>], at: Time, ev: CpuEvent| {
        for obs in observers.iter_mut() {
            obs.observe(at, &ev);
        }
    };

    let mut releases = MergedReleases::new(task_release_gens(set, &config.offsets, config.horizon));
    let mut ready: KeyedHeap<(i64, usize), Job> = KeyedHeap::new();
    let mut next_seq = 0u64;
    let mut running: Option<Job> = None;
    let mut now = Time::ZERO;
    let key = |job: &Job| urgency_key(config.policy, prio, job.task, job.abs_deadline);

    loop {
        // Advance all releases due at or before `now` into the ready set
        // (sub-HI releases are shed here when the config says so).
        while releases.peek_ready().is_some_and(|r| r <= now) {
            let (_, r) = releases.next_release().expect("peeked");
            if shed_at_admission(config, r.task) {
                continue;
            }
            let job = Job::from_release(r, next_seq);
            next_seq += 1;
            ready.push(key(&job), job.seq, job);
        }
        let next_rel = releases.peek_ready();

        // Pick/maintain the running job.
        if config.policy.is_preemptive() {
            // Preempt if a ready job is more urgent than the running one
            // (the running job re-enters under its original sequence, so
            // it resumes ahead of later-released equal-key jobs).
            if let Some(run) = running.take() {
                ready.push(key(&run), run.seq, run);
            }
            running = ready.pop().map(|(_, _, job)| job);
        } else if running.is_none() {
            running = ready.pop().map(|(_, _, job)| job);
        }

        match (&mut running, next_rel) {
            (None, None) => break, // idle and nothing left to release
            (None, Some(r)) => {
                // The CPU analogue of the network kernels' idle
                // fast-forward: an idle processor has no token rotations
                // or timers to maintain, so the clock jumps straight to
                // the next release in O(1) — no events are elided because
                // an idle CPU emits none.
                now = r;
            }
            (Some(job), next) => {
                let completion = now + job.remaining;
                let run_until = match (config.policy.is_preemptive(), next) {
                    (true, Some(r)) if r < completion => r,
                    _ => completion,
                };
                job.remaining -= run_until - now;
                now = run_until;
                if job.remaining.is_zero() {
                    emit(
                        observers,
                        now,
                        CpuEvent::Completed {
                            task: job.task,
                            release: job.release,
                            abs_deadline: job.abs_deadline,
                            finish: now,
                        },
                    );
                    running = None;
                }
            }
        }
    }
}

/// Simulates the task set under `config`.
///
/// `prio` is required for the fixed-priority policies and ignored for EDF.
///
/// # Panics
/// Panics if a fixed-priority policy is requested without a priority map,
/// or if `offsets` is non-empty but of the wrong length.
pub fn simulate_cpu(
    set: &TaskSet,
    prio: Option<&PriorityMap>,
    config: &CpuSimConfig,
) -> CpuSimResult {
    let mut result = CpuResultObserver::new(set.len());
    run_cpu(set, prio, config, &mut [&mut result]);
    result.into_result()
}

/// Simulates the task set while collecting the pooled response-time
/// distribution (constant memory at any horizon).
pub fn simulate_cpu_stats(
    set: &TaskSet,
    prio: Option<&PriorityMap>,
    config: &CpuSimConfig,
) -> (CpuSimResult, HistSummary) {
    let mut result = CpuResultObserver::new(set.len());
    let mut stats = CpuResponseStats::default();
    run_cpu(set, prio, config, &mut [&mut result, &mut stats]);
    (result.into_result(), stats.hist.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_sched::fixed::rta::{rm_response_times, RtaConfig};
    use profirt_sched::fixed::{np_response_times, NpFixedConfig};

    fn cfg(policy: CpuPolicy, horizon: i64) -> CpuSimConfig {
        CpuSimConfig {
            policy,
            horizon: t(horizon),
            offsets: vec![],
            criticality: vec![],
            shed_lo: false,
        }
    }

    #[test]
    fn single_task_runs_back_to_back() {
        let set = TaskSet::from_ct(&[(3, 10)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        let r = simulate_cpu(&set, Some(&pm), &cfg(CpuPolicy::FixedPreemptive, 100));
        assert_eq!(r.max_response[0], t(3));
        assert_eq!(r.completed[0], 10);
        assert!(r.no_misses());
    }

    #[test]
    fn preemptive_fp_matches_joseph_pandya_example() {
        // Synchronous release is the FP critical instant, so the simulator
        // must observe exactly the analytical WCRTs.
        let set = TaskSet::from_ct(&[(3, 7), (3, 12), (5, 20)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        let sim = simulate_cpu(&set, Some(&pm), &cfg(CpuPolicy::FixedPreemptive, 420 * 4));
        let rta = rm_response_times(&set, &RtaConfig::default()).unwrap();
        let wcrts = rta.wcrts().unwrap();
        assert_eq!(sim.max_response, wcrts);
        assert!(sim.no_misses());
    }

    #[test]
    fn preemption_actually_happens() {
        // Low-priority long job released at 0, high-priority at 0: in the
        // preemptive case τ1 finishes at C0 + C1; non-preemptively the
        // FIFO pick at t=0 is the highest priority anyway, so shift the
        // release: offset τ0 by 1 so τ1 starts first.
        let set = TaskSet::from_ct(&[(2, 10), (6, 20)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        let mut c_p = cfg(CpuPolicy::FixedPreemptive, 40);
        c_p.offsets = vec![t(1), t(0)];
        let r_p = simulate_cpu(&set, Some(&pm), &c_p);
        // τ0 released at 1 preempts τ1 immediately: response 2.
        assert_eq!(r_p.max_response[0], t(2));

        let mut c_np = cfg(CpuPolicy::FixedNonPreemptive, 40);
        c_np.offsets = vec![t(1), t(0)];
        let r_np = simulate_cpu(&set, Some(&pm), &c_np);
        // τ1 runs 0..6; τ0 waits 1..6 then runs: response 7.
        assert_eq!(r_np.max_response[0], t(7));
    }

    #[test]
    fn np_observation_bounded_by_np_analysis() {
        let set = TaskSet::from_cdt(&[(2, 10, 20), (7, 50, 50)]).unwrap();
        let pm = PriorityMap::deadline_monotonic(&set);
        // Adversarial offset: long task starts just before the short one
        // arrives (the blocking worst case).
        for off in 0..5 {
            let mut c = cfg(CpuPolicy::FixedNonPreemptive, 2_000);
            c.offsets = vec![t(off), t(0)];
            let sim = simulate_cpu(&set, Some(&pm), &c);
            let an = np_response_times(&set, &pm, &NpFixedConfig::george()).unwrap();
            for (i, v) in an.verdicts.iter().enumerate() {
                if let Some(bound) = v.wcrt() {
                    assert!(
                        sim.max_response[i] <= bound,
                        "offset {off}: observed {:?} > bound {:?} for task {i}",
                        sim.max_response[i],
                        bound
                    );
                }
            }
        }
    }

    #[test]
    fn edf_preemptive_meets_deadlines_at_full_utilization() {
        // U = 1 implicit deadlines: EDF schedules it (Liu & Layland).
        let set = TaskSet::from_ct(&[(1, 2), (1, 4), (1, 4)]).unwrap();
        let r = simulate_cpu(&set, None, &cfg(CpuPolicy::EdfPreemptive, 4_000));
        assert!(r.no_misses(), "misses: {:?}", r.misses);
    }

    #[test]
    fn edf_schedules_where_rm_misses() {
        // The classic RM-infeasible / EDF-feasible pair: C=(2,4), T=(5,7),
        // U = 2/5 + 4/7 ≈ 0.97. RM: r2 = 8 > 7; EDF: fine.
        let set = TaskSet::from_ct(&[(2, 5), (4, 7)]).unwrap();
        let edf = simulate_cpu(&set, None, &cfg(CpuPolicy::EdfPreemptive, 3_500));
        assert!(edf.no_misses(), "EDF misses: {:?}", edf.misses);
        let pm = PriorityMap::rate_monotonic(&set);
        let rm = simulate_cpu(&set, Some(&pm), &cfg(CpuPolicy::FixedPreemptive, 3_500));
        assert!(!rm.no_misses(), "RM should miss on this set");
    }

    #[test]
    fn edf_nonpreemptive_blocking_observed() {
        // Tight task blocked by a long later-deadline job mid-flight.
        let set = TaskSet::from_cdt(&[(1, 4, 10), (5, 50, 50)]).unwrap();
        let mut c = cfg(CpuPolicy::EdfNonPreemptive, 1_000);
        // Long job starts at 0; tight job arrives at 1 and must wait 4.
        c.offsets = vec![t(1), t(0)];
        let r = simulate_cpu(&set, None, &c);
        assert_eq!(r.max_response[0], t(5)); // 4 blocking + 1 execution
        assert!(r.misses[0] > 0); // D = 4 < 5
    }

    #[test]
    fn overload_misses_are_counted() {
        let set = TaskSet::from_ct(&[(3, 4), (3, 4)]).unwrap();
        let r = simulate_cpu(&set, None, &cfg(CpuPolicy::EdfPreemptive, 400));
        assert!(!r.no_misses());
        assert!(r.misses.iter().sum::<u64>() > 0);
    }

    #[test]
    fn horizon_excludes_later_releases() {
        let set = TaskSet::from_ct(&[(1, 10)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        let r = simulate_cpu(&set, Some(&pm), &cfg(CpuPolicy::FixedPreemptive, 25));
        // Releases at 0, 10, 20 -> 3 jobs.
        assert_eq!(r.completed[0], 3);
    }

    #[test]
    fn empty_set() {
        let set = TaskSet::new(vec![]).unwrap();
        let r = simulate_cpu(&set, None, &cfg(CpuPolicy::EdfPreemptive, 100));
        assert!(r.max_response.is_empty());
    }

    #[test]
    fn fifo_preserved_across_preemptions_under_overload() {
        // One overloaded FP task (C=3, T=2): every job shares the urgency
        // key, and the running job is re-pushed on every release. Jobs
        // must still complete strictly in release order — the preempted
        // job's original sequence number may not be lost.
        struct OrderProbe {
            completions: Vec<(Time, Time)>, // (release, finish)
        }
        impl Observer<CpuEvent> for OrderProbe {
            fn observe(&mut self, _at: Time, event: &CpuEvent) {
                let CpuEvent::Completed {
                    release, finish, ..
                } = *event;
                self.completions.push((release, finish));
            }
        }
        let set = TaskSet::from_cdt(&[(3, 6, 2)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        let mut probe = OrderProbe {
            completions: Vec::new(),
        };
        run_cpu(
            &set,
            Some(&pm),
            &cfg(CpuPolicy::FixedPreemptive, 40),
            &mut [&mut probe],
        );
        assert!(probe.completions.len() >= 10);
        for (i, w) in probe.completions.windows(2).enumerate() {
            assert!(
                w[0].0 < w[1].0,
                "completion {i} out of release order: {:?}",
                probe.completions
            );
        }
        // Back-to-back service: job k (released at 2k) finishes at 3(k+1).
        for (k, &(release, finish)) in probe.completions.iter().enumerate() {
            assert_eq!(release, t(2 * k as i64));
            assert_eq!(finish, t(3 * (k as i64 + 1)));
        }
    }

    #[test]
    fn stats_are_passive_and_consistent() {
        let set = TaskSet::from_ct(&[(1, 4), (2, 9), (3, 17)]).unwrap();
        let c = cfg(CpuPolicy::EdfPreemptive, 10_000);
        let plain = simulate_cpu(&set, None, &c);
        let (result, stats) = simulate_cpu_stats(&set, None, &c);
        assert_eq!(plain, result);
        assert_eq!(stats.count, result.completed.iter().sum::<u64>());
        assert_eq!(stats.max, *result.max_response.iter().max().unwrap());
        assert!(stats.p50 <= stats.p99);
    }

    #[test]
    fn shed_lo_skips_sub_hi_admissions() {
        use crate::cpu::reference::simulate_cpu_materialized;
        use profirt_base::Criticality;

        let set = TaskSet::from_ct(&[(1, 4), (2, 9)]).unwrap();
        let mut c = cfg(CpuPolicy::EdfPreemptive, 1_000);
        c.criticality = vec![Criticality::Hi, Criticality::Lo];
        c.shed_lo = true;
        let r = simulate_cpu(&set, None, &c);
        // The LO task never runs; the HI task is undisturbed.
        assert_eq!(r.completed[1], 0);
        assert_eq!(r.max_response[1], Time::ZERO);
        assert_eq!(r.completed[0], 250);
        assert_eq!(r.max_response[0], t(1));
        // The materialized reference sheds identically.
        assert_eq!(r, simulate_cpu_materialized(&set, None, &c));
        // Labels alone (shed_lo off) change nothing.
        c.shed_lo = false;
        let labelled = simulate_cpu(&set, None, &c);
        c.criticality = vec![];
        assert_eq!(labelled, simulate_cpu(&set, None, &c));
    }

    #[test]
    #[should_panic(expected = "one criticality per task")]
    fn wrong_criticality_count_panics() {
        let set = TaskSet::from_ct(&[(1, 10), (1, 20)]).unwrap();
        let mut c = cfg(CpuPolicy::EdfPreemptive, 100);
        c.criticality = vec![profirt_base::Criticality::Lo];
        let _ = simulate_cpu(&set, None, &c);
    }

    #[test]
    #[should_panic(expected = "requires a covering priority map")]
    fn fixed_without_priorities_panics() {
        let set = TaskSet::from_ct(&[(1, 10)]).unwrap();
        let _ = simulate_cpu(&set, None, &cfg(CpuPolicy::FixedPreemptive, 100));
    }

    #[test]
    #[should_panic(expected = "one offset per task")]
    fn wrong_offset_count_panics() {
        let set = TaskSet::from_ct(&[(1, 10), (1, 20)]).unwrap();
        let mut c = cfg(CpuPolicy::EdfPreemptive, 100);
        c.offsets = vec![t(0)];
        let _ = simulate_cpu(&set, None, &c);
    }
}
