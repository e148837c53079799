//! Lazy release generators for the streaming simulation kernel.
//!
//! These wrap the generic [`profirt_base::release`] machinery with the
//! workload payloads the simulators consume:
//!
//! * [`StreamReleases`] — one high-priority message stream, yielding ready
//!   [`Request`]s (deadline-monotonic priority, absolute deadline, cycle
//!   time attached);
//! * [`LowPriorityReleases`] — one low-priority background source,
//!   yielding the cycle time of each generated exchange;
//! * [`TaskReleases`] — one CPU task, yielding [`TaskRelease`] job
//!   descriptors.
//!
//! The constructors pin the RNG discipline the simulators rely on for
//! reproducibility: per-stream first offsets are drawn **eagerly** in
//! stream order from the caller's RNG (so offset sequences match the
//! pre-streaming simulators), while random per-release jitter draws come
//! from a per-stream forked RNG so generation can stay lazy — no release
//! vector is ever materialized.

use profirt_base::release::{JitterMode, OffsetMode, PeriodicReleases, ReleaseGen};
use profirt_base::{Priority, Prng, StreamId, StreamSet, TaskSet, Time};
use profirt_profibus::{LowPriorityTraffic, Request};

/// Lazy release generator of one high-priority message stream.
#[derive(Clone, Debug)]
pub struct StreamReleases {
    stream: StreamId,
    d: Time,
    ch: Time,
    priority: Priority,
    periodic: PeriodicReleases,
}

impl ReleaseGen for StreamReleases {
    type Item = Request;

    fn peek_ready(&self) -> Option<Time> {
        self.periodic.peek_ready()
    }

    fn next_release(&mut self) -> Option<(Time, Request)> {
        let (ready, _) = self.periodic.next_release()?;
        Some((
            ready,
            Request {
                stream: self.stream,
                release: ready,
                // A deadline past `Time::MAX` is never missed.
                abs_deadline: ready.saturating_add(self.d),
                priority: self.priority,
                cycle_time: self.ch,
            },
        ))
    }

    fn buffered(&self) -> usize {
        self.periodic.buffered()
    }
}

/// Builds one lazy release generator per stream of a master.
///
/// Deadline-monotonic static priorities are assigned by deadline order
/// with index tiebreak (the §4 inheritance rule). Under
/// [`OffsetMode::Random`] each stream's first offset is drawn from `rng`
/// in stream order; under [`JitterMode::Random`] each stream with a
/// positive jitter bound forks an independent jitter RNG from `rng`
/// (also in stream order), keeping the whole construction deterministic
/// for a given RNG state.
pub fn stream_release_gens(
    streams: &StreamSet,
    horizon: Time,
    offsets: OffsetMode,
    jitter: JitterMode,
    rng: &mut Prng,
) -> Vec<StreamReleases> {
    let dm_order = streams.indices_by_deadline();
    let mut priority_of = vec![0u32; streams.len()];
    for (rank, &idx) in dm_order.iter().enumerate() {
        priority_of[idx] = rank as u32;
    }

    streams
        .iter()
        .map(|(i, s)| {
            let offset = match offsets {
                OffsetMode::Synchronous => Time::ZERO,
                OffsetMode::Random => rng.time_in(s.t - Time::ONE),
            };
            let jitter_rng = if jitter == JitterMode::Random && s.j.is_positive() {
                Some(rng.fork())
            } else {
                None
            };
            StreamReleases {
                stream: StreamId(i),
                d: s.d,
                ch: s.ch,
                priority: Priority(priority_of[i]),
                periodic: PeriodicReleases::with_jitter(
                    offset, s.t, horizon, s.j, jitter, jitter_rng,
                ),
            }
        })
        .collect()
}

/// Lazy release generator of one low-priority background source,
/// yielding the cycle time of each generated exchange.
#[derive(Clone, Debug)]
pub struct LowPriorityReleases {
    cycle_time: Time,
    periodic: PeriodicReleases,
}

impl ReleaseGen for LowPriorityReleases {
    type Item = Time;

    fn peek_ready(&self) -> Option<Time> {
        self.periodic.peek_ready()
    }

    fn next_release(&mut self) -> Option<(Time, Time)> {
        let (ready, _) = self.periodic.next_release()?;
        Some((ready, self.cycle_time))
    }

    fn buffered(&self) -> usize {
        self.periodic.buffered()
    }
}

/// Builds one lazy generator per low-priority source (first generation at
/// time zero, then every period).
pub fn low_priority_release_gens(
    sources: &[LowPriorityTraffic],
    horizon: Time,
) -> Vec<LowPriorityReleases> {
    sources
        .iter()
        .map(|lp| LowPriorityReleases {
            cycle_time: lp.cycle_time,
            periodic: PeriodicReleases::new(Time::ZERO, lp.period, horizon),
        })
        .collect()
}

/// One CPU job release: task index plus the job's timing parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskRelease {
    /// Index of the releasing task in its [`TaskSet`].
    pub task: usize,
    /// Release instant.
    pub release: Time,
    /// Absolute deadline (`release + D`).
    pub abs_deadline: Time,
    /// Execution demand (`C`).
    pub cost: Time,
}

/// Lazy job-release generator of one periodic CPU task.
#[derive(Clone, Debug)]
pub struct TaskReleases {
    task: usize,
    d: Time,
    c: Time,
    periodic: PeriodicReleases,
}

impl ReleaseGen for TaskReleases {
    type Item = TaskRelease;

    fn peek_ready(&self) -> Option<Time> {
        self.periodic.peek_ready()
    }

    fn next_release(&mut self) -> Option<(Time, TaskRelease)> {
        let (ready, _) = self.periodic.next_release()?;
        Some((
            ready,
            TaskRelease {
                task: self.task,
                release: ready,
                abs_deadline: ready.saturating_add(self.d),
                cost: self.c,
            },
        ))
    }

    fn buffered(&self) -> usize {
        self.periodic.buffered()
    }
}

/// Builds one lazy job-release generator per task.
///
/// `offsets` holds per-task first-release offsets; pass an empty slice
/// for a synchronous release (all zero).
///
/// # Panics
/// Panics when `offsets` is non-empty but of the wrong length.
pub fn task_release_gens(set: &TaskSet, offsets: &[Time], horizon: Time) -> Vec<TaskReleases> {
    assert!(
        offsets.is_empty() || offsets.len() == set.len(),
        "one offset per task required"
    );
    set.iter()
        .map(|(i, task)| TaskReleases {
            task: i,
            d: task.d,
            c: task.c,
            periodic: PeriodicReleases::new(
                offsets.get(i).copied().unwrap_or(Time::ZERO),
                task.t,
                horizon,
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::MergedReleases;

    fn streams() -> StreamSet {
        StreamSet::from_cdt(&[(100, 5_000, 10_000), (200, 2_000, 8_000)]).unwrap()
    }

    #[test]
    fn stream_requests_carry_dm_priorities_and_deadlines() {
        let mut rng = Prng::seed_from_u64(1);
        let gens = stream_release_gens(
            &streams(),
            t(20_000),
            OffsetMode::Synchronous,
            JitterMode::None,
            &mut rng,
        );
        let mut merged = MergedReleases::new(gens);
        let all = merged.drain_to_vec();
        // Stream 1 (D = 2000) outranks stream 0 (D = 5000).
        let first = all
            .iter()
            .map(|(_, r)| r)
            .find(|r| r.stream == StreamId(1))
            .unwrap();
        assert_eq!(first.priority, Priority(0));
        assert_eq!(first.abs_deadline, first.release + t(2_000));
        assert_eq!(first.cycle_time, t(200));
        let other = all
            .iter()
            .map(|(_, r)| r)
            .find(|r| r.stream == StreamId(0))
            .unwrap();
        assert_eq!(other.priority, Priority(1));
        // Synchronous: both release at zero; counts follow the periods.
        assert_eq!(
            all.iter().filter(|(_, r)| r.stream == StreamId(0)).count(),
            2
        );
        assert_eq!(
            all.iter().filter(|(_, r)| r.stream == StreamId(1)).count(),
            3
        );
    }

    #[test]
    fn random_offsets_draw_in_stream_order() {
        // The eager offset draws must consume the caller RNG exactly like
        // the pre-streaming simulator did: one `time_in(T - 1)` per
        // stream, in stream order.
        let mut a = Prng::seed_from_u64(9);
        let gens = stream_release_gens(
            &streams(),
            t(100_000),
            OffsetMode::Random,
            JitterMode::None,
            &mut a,
        );
        let mut b = Prng::seed_from_u64(9);
        let expect0 = b.time_in(t(10_000 - 1));
        let expect1 = b.time_in(t(8_000 - 1));
        let firsts: Vec<Time> = gens.into_iter().map(|g| g.peek_ready().unwrap()).collect();
        assert_eq!(firsts, vec![expect0, expect1]);
        // The caller RNG advanced identically.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn low_priority_sources_start_at_zero() {
        let gens = low_priority_release_gens(
            &[
                LowPriorityTraffic::new(t(300), t(1_000)),
                LowPriorityTraffic::new(t(500), t(4_000)),
            ],
            t(4_000),
        );
        let mut merged = MergedReleases::new(gens);
        let all = merged.drain_to_vec();
        assert_eq!(
            all,
            vec![
                (t(0), t(300)),
                (t(0), t(500)),
                (t(1_000), t(300)),
                (t(2_000), t(300)),
                (t(3_000), t(300)),
            ]
        );
    }

    #[test]
    fn task_releases_cover_the_horizon() {
        let set = TaskSet::from_ct(&[(1, 10), (2, 25)]).unwrap();
        let gens = task_release_gens(&set, &[], t(50));
        let mut merged = MergedReleases::new(gens);
        let all = merged.drain_to_vec();
        assert_eq!(all.iter().filter(|(_, j)| j.task == 0).count(), 5);
        assert_eq!(all.iter().filter(|(_, j)| j.task == 1).count(), 2);
        let job = all.iter().map(|(_, j)| j).find(|j| j.task == 1).unwrap();
        assert_eq!(job.cost, t(2));
        assert_eq!(job.abs_deadline, job.release + t(25));
    }

    #[test]
    fn task_offsets_shift_first_release() {
        let set = TaskSet::from_ct(&[(1, 10)]).unwrap();
        let gens = task_release_gens(&set, &[t(4)], t(30));
        assert_eq!(gens[0].peek_ready(), Some(t(4)));
    }

    #[test]
    #[should_panic(expected = "one offset per task")]
    fn wrong_offset_count_panics() {
        let set = TaskSet::from_ct(&[(1, 10), (1, 20)]).unwrap();
        let _ = task_release_gens(&set, &[t(0)], t(100));
    }
}
