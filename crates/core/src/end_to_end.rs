//! End-to-end communication delay (paper §4.2): `E = g + Q + C + d`.
//!
//! * `g` — worst-case *generation* delay: the master's application task
//!   builds and queues the request (this is also the release jitter fed to
//!   the message analysis).
//! * `Q` — worst-case queuing delay until the request gains the bus.
//! * `C` — worst-case message-cycle time (request + slave turnaround +
//!   response + retries).
//! * `d` — worst-case *delivery* delay: processing the response and handing
//!   it to the destination task (on the same host as the sender in
//!   PROFIBUS).
//!
//! The message analyses report `R = Q + C` directly (their `response_time`),
//! so `E = g + R + d` with `g` and `d` obtained from host-CPU response-time
//! analysis.

use profirt_base::{AnalysisError, AnalysisResult, TaskSet, Time};
use profirt_sched::fixed::rta::{response_times_with_jitter, RtaConfig};
use profirt_sched::fixed::PriorityMap;

use crate::config::{MasterConfig, NetworkConfig};
use crate::dm::DmAnalysis;
use crate::edf::EdfAnalysis;
use crate::jitter::{inherit_jitter, with_inherited_jitter, JitterModel};

/// Host-task structure behind one message stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskSegments {
    /// The request-generating model (defines `g` and the jitter).
    pub generator: JitterModel,
    /// Host-task index of the response-processing (delivery) segment; its
    /// WCRT is `d`. Commonly the receiving task, or the resumed second
    /// segment of the combined task.
    pub delivery_task: usize,
}

/// Which message dispatching policy prices `Q + C`.
#[derive(Clone, Copy, Debug)]
pub enum MessagePolicy {
    /// Deadline-monotonic AP queue (eq. (16)).
    Dm(DmAnalysis),
    /// EDF AP queue (eqs. (17)–(18)).
    Edf(EdfAnalysis),
}

/// The end-to-end analysis for the streams of one master.
#[derive(Clone, Debug)]
pub struct EndToEndAnalysis {
    /// Message dispatching policy.
    pub policy: MessagePolicy,
    /// RTA configuration for the host CPU.
    pub rta: RtaConfig,
}

/// Per-stream delay decomposition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EndToEndBreakdown {
    /// Generation delay `g` (= inherited release jitter).
    pub g: Time,
    /// Bus phase `Q + C` (the message worst-case response time).
    pub qc: Time,
    /// Delivery delay `d`.
    pub d: Time,
    /// `E = g + Q + C + d`.
    pub total: Time,
    /// Whether the *message* deadline is met by the bus phase.
    pub message_schedulable: bool,
}

impl EndToEndAnalysis {
    /// DM-policy end-to-end analysis with defaults.
    pub fn dm() -> EndToEndAnalysis {
        EndToEndAnalysis {
            policy: MessagePolicy::Dm(DmAnalysis::conservative()),
            rta: RtaConfig::default(),
        }
    }

    /// EDF-policy end-to-end analysis with defaults.
    pub fn edf() -> EndToEndAnalysis {
        EndToEndAnalysis {
            policy: MessagePolicy::Edf(EdfAnalysis::paper()),
            rta: RtaConfig::default(),
        }
    }

    /// Computes `E = g + Q + C + d` for every stream of master
    /// `master_index` in `net`.
    ///
    /// `host`/`host_prio` describe the master's CPU; `segments[s]` ties
    /// stream `s` to its generating and delivery tasks. The stream set's
    /// jitters are overwritten with the inherited `g` values before the
    /// message analysis runs.
    pub fn analyze(
        &self,
        net: &NetworkConfig,
        master_index: usize,
        host: &TaskSet,
        host_prio: &PriorityMap,
        segments: &[TaskSegments],
    ) -> AnalysisResult<Vec<EndToEndBreakdown>> {
        let master = net
            .masters
            .get(master_index)
            .ok_or(AnalysisError::IndexOutOfRange {
                index: master_index,
                len: net.masters.len(),
            })?;
        assert_eq!(
            segments.len(),
            master.nh(),
            "one TaskSegments per stream required"
        );

        // g (and jitter) per stream.
        let generators: Vec<JitterModel> = segments.iter().map(|s| s.generator).collect();
        let g = inherit_jitter(host, host_prio, &generators)?;

        // Message analysis with inherited jitter.
        let streams = with_inherited_jitter(&master.streams, &g)?;
        let mut masters = net.masters.clone();
        masters[master_index] = MasterConfig::new(streams, master.cl);
        let jittered = NetworkConfig::new(masters, net.ttr)?;
        let message = match &self.policy {
            MessagePolicy::Dm(a) => a.analyze(&jittered)?,
            MessagePolicy::Edf(a) => a.analyze(&jittered)?,
        };

        // d per stream from the host RTA.
        let host_rta = response_times_with_jitter(host, host_prio, &self.rta)?;

        let mut out = Vec::with_capacity(segments.len());
        for (s, seg) in segments.iter().enumerate() {
            let d_idx = seg.delivery_task;
            let _ = host.get(d_idx)?;
            let d = host_rta.verdicts[d_idx]
                .wcrt()
                .ok_or(AnalysisError::DivergentIteration {
                    what: "delivery-task rta",
                    bound: host.tasks()[d_idx].d.ticks(),
                })?;
            let row = message.masters[master_index][s];
            out.push(EndToEndBreakdown {
                g: g[s],
                qc: row.response_time,
                d,
                total: g[s] + row.response_time + d,
                message_schedulable: row.schedulable,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;
    use profirt_base::StreamSet;

    /// Host: τ0 = sender (1, 50, 10_000 ticks), τ1 = receiver (2, 100, 10_000),
    /// τ2 = background (5, 200, 10_000). RM order 0,1,2 by period? All equal
    /// periods: ties by index so order 0,1,2.
    fn host() -> TaskSet {
        TaskSet::from_cdt(&[
            (1, 10_000, 10_000),
            (2, 10_000, 10_000),
            (5, 10_000, 10_000),
        ])
        .unwrap()
    }

    fn net() -> NetworkConfig {
        NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(100, 5_000, 10_000)]).unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap()
    }

    #[test]
    fn breakdown_sums_components() {
        let host = host();
        let pm = PriorityMap::rate_monotonic(&host);
        let segs = [TaskSegments {
            generator: JitterModel::SeparateSender { task: 0 },
            delivery_task: 1,
        }];
        let e = EndToEndAnalysis::edf()
            .analyze(&net(), 0, &host, &pm, &segs)
            .unwrap();
        assert_eq!(e.len(), 1);
        let b = e[0];
        // g = R(τ0) = 1; d = R(τ1) = 3; qc = Tcycle = 1000.
        assert_eq!(b.g, t(1));
        assert_eq!(b.d, t(3));
        assert_eq!(b.qc, t(1_000));
        assert_eq!(b.total, b.g + b.qc + b.d);
        assert!(b.message_schedulable);
    }

    #[test]
    fn dm_policy_variant() {
        let host = host();
        let pm = PriorityMap::rate_monotonic(&host);
        let segs = [TaskSegments {
            generator: JitterModel::CombinedTask {
                task: 0,
                generation_cost: t(1),
            },
            delivery_task: 0,
        }];
        let e = EndToEndAnalysis::dm()
            .analyze(&net(), 0, &host, &pm, &segs)
            .unwrap();
        // Conservative DM, single stream: qc = Tcycle (own) = 1000.
        assert_eq!(e[0].qc, t(1_000));
        assert_eq!(e[0].g, t(1));
    }

    #[test]
    fn jitter_feeds_into_message_analysis() {
        // Two streams; generator of stream 1 is the slow task -> larger g
        // -> stream 0's interference window grows under DM.
        let host = host();
        let pm = PriorityMap::rate_monotonic(&host);
        let net = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(100, 9_000, 10_000), (100, 9_500, 10_000)]).unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap();
        let segs = [
            TaskSegments {
                generator: JitterModel::SeparateSender { task: 0 },
                delivery_task: 1,
            },
            TaskSegments {
                generator: JitterModel::SeparateSender { task: 2 },
                delivery_task: 1,
            },
        ];
        let e = EndToEndAnalysis::dm()
            .analyze(&net, 0, &host, &pm, &segs)
            .unwrap();
        // g of stream 1 = R(τ2) = 8; g of stream 0 = 1.
        assert_eq!(e[0].g, t(1));
        assert_eq!(e[1].g, t(8));
    }

    #[test]
    fn bad_master_index_is_error() {
        let host = host();
        let pm = PriorityMap::rate_monotonic(&host);
        let r = EndToEndAnalysis::edf().analyze(&net(), 5, &host, &pm, &[]);
        assert!(matches!(r, Err(AnalysisError::IndexOutOfRange { .. })));
    }

    #[test]
    #[should_panic(expected = "one TaskSegments per stream")]
    fn mismatched_segments_panic() {
        let host = host();
        let pm = PriorityMap::rate_monotonic(&host);
        let _ = EndToEndAnalysis::edf().analyze(&net(), 0, &host, &pm, &[]);
    }
}
