//! Release-jitter inheritance (paper §4.1).
//!
//! Message requests are generated by application tasks on the master's host
//! CPU; messages inherit period, priority and **release jitter** from those
//! tasks. The jitter is the worst-case lateness of the instant the request
//! lands in the AP queue, relative to the task's arrival. The paper
//! distinguishes two task models:
//!
//! * **Combined task** ([`JitterModel::CombinedTask`]): one task places the
//!   request, self-suspends until the response, then continues. The jitter
//!   is the worst-case response time of the *first segment* (up to and
//!   including queuing the request).
//! * **Separate sender** ([`JitterModel::SeparateSender`]): a dedicated
//!   sending task generates the request; the jitter is that task's full
//!   worst-case response time ("the message can be released close to the
//!   worst-case response time of the task; and in the subsequent release …
//!   as soon as the arrival").
//!
//! Either way the computation is a preemptive, jitter-aware fixed-priority
//! RTA on the host task set ([`profirt_sched::fixed::rta`]).

use profirt_base::{AnalysisError, AnalysisResult, StreamSet, Task, TaskSet, Time};
use profirt_sched::fixed::rta::{response_times_with_jitter, RtaConfig};
use profirt_sched::fixed::PriorityMap;

/// How a stream's generating task produces its request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JitterModel {
    /// One task: request queued at the end of its first segment of cost
    /// `generation_cost`; the task then self-suspends.
    CombinedTask {
        /// Host-task index of the combined task.
        task: usize,
        /// Execution cost of the segment that ends with queuing the
        /// request (`<=` the task's full cost).
        generation_cost: Time,
    },
    /// A dedicated sender task; jitter = its full WCRT.
    SeparateSender {
        /// Host-task index of the sending task.
        task: usize,
    },
}

impl JitterModel {
    fn task_index(&self) -> usize {
        match *self {
            JitterModel::CombinedTask { task, .. } => task,
            JitterModel::SeparateSender { task } => task,
        }
    }
}

/// Computes the release jitter of each stream from its generating-task
/// model.
///
/// `models[s]` describes the generator of stream `s`. The host task set is
/// analysed preemptively (tasks at the application level are "most probably
/// in a preemptive context", §4.1) with the given priority map.
///
/// # Errors
/// * [`AnalysisError::IndexOutOfRange`] for a bad task index.
/// * [`AnalysisError::Model`] if a `generation_cost` is invalid.
/// * Any RTA error; a generating task that is itself unschedulable yields
///   [`AnalysisError::DivergentIteration`] (no finite jitter exists).
pub fn inherit_jitter(
    host: &TaskSet,
    prio: &PriorityMap,
    models: &[JitterModel],
) -> AnalysisResult<Vec<Time>> {
    let mut jitters = Vec::with_capacity(models.len());
    for model in models {
        let idx = model.task_index();
        let task = *host.get(idx)?;
        let analysed_set;
        let target: &TaskSet = match *model {
            JitterModel::SeparateSender { .. } => host,
            JitterModel::CombinedTask {
                generation_cost, ..
            } => {
                if !generation_cost.is_positive() || generation_cost > task.c {
                    return Err(AnalysisError::Model(
                        profirt_base::ModelError::NonPositiveCost {
                            value: generation_cost.ticks(),
                        },
                    ));
                }
                // Replace the task's cost by the generation segment; the
                // segment runs at the task's priority with the same
                // interference, so its WCRT is the RTA of the reduced task.
                let mut tasks: Vec<Task> = host.tasks().to_vec();
                tasks[idx].c = generation_cost;
                analysed_set = TaskSet::new(tasks)?;
                &analysed_set
            }
        };
        let analysis = response_times_with_jitter(target, prio, &RtaConfig::default())?;
        match analysis.verdicts[idx].wcrt() {
            Some(w) => jitters.push(w),
            None => {
                return Err(AnalysisError::DivergentIteration {
                    what: "jitter-inheritance rta",
                    bound: target.tasks()[idx].d.ticks(),
                })
            }
        }
    }
    Ok(jitters)
}

/// Returns a copy of `streams` with the inherited jitters applied.
///
/// # Panics
/// Panics if `jitters.len() != streams.len()` (caller pairing error).
pub fn with_inherited_jitter(streams: &StreamSet, jitters: &[Time]) -> AnalysisResult<StreamSet> {
    assert_eq!(
        jitters.len(),
        streams.len(),
        "one jitter per stream required"
    );
    let updated: Vec<_> = streams
        .streams()
        .iter()
        .zip(jitters)
        .map(|(s, &j)| {
            let mut s = *s;
            s.j = j;
            s
        })
        .collect();
    StreamSet::new(updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    /// Host CPU: τ0 = (2, 10, 10) high, τ1 = (4, 20, 20) low (RM order).
    fn host() -> TaskSet {
        TaskSet::from_ct(&[(2, 10), (4, 20)]).unwrap()
    }

    #[test]
    fn separate_sender_uses_full_wcrt() {
        let set = host();
        let pm = PriorityMap::rate_monotonic(&set);
        let j = inherit_jitter(
            &set,
            &pm,
            &[
                JitterModel::SeparateSender { task: 0 },
                JitterModel::SeparateSender { task: 1 },
            ],
        )
        .unwrap();
        // R0 = 2; R1 = 4 + ⌈R/10⌉*2 = 6.
        assert_eq!(j, vec![t(2), t(6)]);
    }

    #[test]
    fn combined_task_uses_generation_segment() {
        let set = host();
        let pm = PriorityMap::rate_monotonic(&set);
        let j = inherit_jitter(
            &set,
            &pm,
            &[JitterModel::CombinedTask {
                task: 1,
                generation_cost: t(1),
            }],
        )
        .unwrap();
        // Segment of cost 1 at τ1's priority: w = 1 + ⌈w/10⌉*2 = 3.
        assert_eq!(j, vec![t(3)]);
    }

    #[test]
    fn combined_segment_never_exceeds_full_task_jitter() {
        let set = host();
        let pm = PriorityMap::rate_monotonic(&set);
        let full =
            inherit_jitter(&set, &pm, &[JitterModel::SeparateSender { task: 1 }]).unwrap()[0];
        for c in 1..=4 {
            let seg = inherit_jitter(
                &set,
                &pm,
                &[JitterModel::CombinedTask {
                    task: 1,
                    generation_cost: t(c),
                }],
            )
            .unwrap()[0];
            assert!(seg <= full);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let set = host();
        let pm = PriorityMap::rate_monotonic(&set);
        assert!(matches!(
            inherit_jitter(&set, &pm, &[JitterModel::SeparateSender { task: 9 }]),
            Err(AnalysisError::IndexOutOfRange { .. })
        ));
        assert!(inherit_jitter(
            &set,
            &pm,
            &[JitterModel::CombinedTask {
                task: 0,
                generation_cost: t(0),
            }]
        )
        .is_err());
        assert!(inherit_jitter(
            &set,
            &pm,
            &[JitterModel::CombinedTask {
                task: 0,
                generation_cost: t(99), // > C
            }]
        )
        .is_err());
    }

    #[test]
    fn unschedulable_generator_is_an_error() {
        // τ1 cannot meet its deadline -> no finite jitter.
        let set = TaskSet::from_cdt(&[(5, 10, 10), (5, 8, 20)]).unwrap();
        let pm = PriorityMap::rate_monotonic(&set);
        assert!(matches!(
            inherit_jitter(&set, &pm, &[JitterModel::SeparateSender { task: 1 }]),
            Err(AnalysisError::DivergentIteration { .. })
        ));
    }

    #[test]
    fn apply_jitter_to_streams() {
        let streams = StreamSet::from_cdt(&[(5, 100, 200), (3, 50, 60)]).unwrap();
        let out = with_inherited_jitter(&streams, &[t(7), t(2)]).unwrap();
        assert_eq!(out.get(0).unwrap().j, t(7));
        assert_eq!(out.get(1).unwrap().j, t(2));
        // Originals untouched otherwise.
        assert_eq!(out.get(0).unwrap().ch, t(5));
    }

    #[test]
    #[should_panic(expected = "one jitter per stream")]
    fn mismatched_lengths_panic() {
        let streams = StreamSet::from_cdt(&[(5, 100, 200)]).unwrap();
        let _ = with_inherited_jitter(&streams, &[t(1), t(2)]);
    }
}
