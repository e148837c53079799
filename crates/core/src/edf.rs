//! EDF message response times — the paper's §4.3, eqs. (17)–(18).
//!
//! With the AP queue ordered by absolute deadline, message scheduling is
//! non-preemptive EDF with every service slot costing one token cycle. The
//! paper transposes the George et al. analysis (eqs. (9)–(10)) with
//! `C → Tcycle` and the §4.1 release jitter:
//!
//! `Ri^k(a) = max{Tcycle, Li(a) + Tcycle − a}`                  (eq. (17))
//!
//! `Li^{m+1}(a) = T*cycle·[∃j: Dj > a+Di] + Wi(a, Li^m(a)) + ⌊a/Ti⌋·Tcycle`
//!
//! `Wi(a, t) = Σ_{j≠i, Dj ≤ a+Di}
//!     min{1 + ⌊(t+Jj)/Tj⌋, 1 + ⌊(a+Di−Dj+Jj)/Tj⌋} · Tcycle`   (eq. (18))
//!
//! This module is only that mapping. Per master it builds one row
//! `(C := Tcycle, D, T, J)` per stream and runs `profirt-sched`'s
//! non-preemptive EDF scan ([`np_edf_rows_with`]) on the rows, with a
//! later-deadline message blocking for a full token cycle
//! ([`BlockingRule::MaxLowerCost`]). The scan enumerates the plain arrival
//! offsets `k·Tj + Dj − Di` and the jitter-shifted `k·Tj + Dj − Jj − Di`
//! (a sound superset of the paper's set), bounded by the
//! blocking-extended message busy period, and shares the task analysis'
//! warm seeds and early stop. The rows are not a `TaskSet`: a stream whose
//! deadline is below `Tcycle` is legal and simply unschedulable.
//!
//! The analysis requires `Σ_j Tcycle/Tj < 1` per master (each pending
//! message consumes a full token cycle of service capacity), checked
//! exactly by the scan; violations are reported as
//! [`profirt_base::AnalysisError::UtilizationAtLeastOne`]. A master without
//! streams has no rows to analyse.

use profirt_base::{AnalysisResult, Task};
use profirt_sched::edf::{np_edf_rows_with, EdfWcrt, NpEdfRtaConfig};
use profirt_sched::fixed::BlockingRule;
use profirt_sched::{AnalysisScratch, FixpointConfig};

use crate::config::NetworkConfig;
use crate::tcycle::{tcycle, TcycleModel};
use crate::{NetworkAnalysis, StreamResponse};

/// The EDF message analysis of eqs. (17)–(18).
#[derive(Clone, Copy, Debug)]
pub struct EdfAnalysis {
    /// Token-cycle model.
    pub model: TcycleModel,
    /// Fixpoint iteration limits.
    pub fixpoint: FixpointConfig,
    /// Hard cap on arrival candidates per stream.
    pub max_candidates: u64,
}

impl Default for EdfAnalysis {
    fn default() -> Self {
        let scan = NpEdfRtaConfig::default();
        EdfAnalysis {
            model: TcycleModel::Paper,
            fixpoint: scan.fixpoint,
            max_candidates: scan.max_candidates,
        }
    }
}

impl EdfAnalysis {
    /// The paper-literal configuration.
    pub fn paper() -> EdfAnalysis {
        EdfAnalysis::default()
    }

    /// Runs the analysis for every master and stream.
    pub fn analyze(&self, net: &NetworkConfig) -> AnalysisResult<NetworkAnalysis> {
        self.analyze_with_scratch(net, &mut AnalysisScratch::new())
    }

    /// Runs the analysis reusing a caller-owned scratch — the hot path for
    /// long-running consumers (the `serve` shards) that answer many
    /// analyses back to back and want the working buffers warm.
    pub fn analyze_with_scratch(
        &self,
        net: &NetworkConfig,
        scratch: &mut AnalysisScratch,
    ) -> AnalysisResult<NetworkAnalysis> {
        Ok(self.analyze_detailed(net, scratch)?.0)
    }

    /// Runs the analysis, also returning each stream's scan outcome (its
    /// critical arrival offset and the candidates examined), indexed like
    /// [`NetworkAnalysis::masters`].
    pub fn analyze_detailed(
        &self,
        net: &NetworkConfig,
        scratch: &mut AnalysisScratch,
    ) -> AnalysisResult<(NetworkAnalysis, Vec<Vec<EdfWcrt>>)> {
        let bound = tcycle(net, self.model)?;
        let tc = bound.tcycle;
        let config = NpEdfRtaConfig {
            fixpoint: self.fixpoint,
            max_candidates: self.max_candidates,
            ..NpEdfRtaConfig::default()
        };
        let mut rows = Vec::new();
        let mut masters = Vec::with_capacity(net.n_masters());
        let mut details = Vec::with_capacity(net.n_masters());
        for (k, master) in net.masters.iter().enumerate() {
            let streams = master.streams.streams();
            if streams.is_empty() {
                masters.push(Vec::new());
                details.push(Vec::new());
                continue;
            }
            rows.clear();
            rows.extend(streams.iter().map(|s| Task {
                c: tc,
                d: s.d,
                t: s.t,
                j: s.j,
            }));
            let wcrts = np_edf_rows_with(&rows, BlockingRule::MaxLowerCost, &config, scratch)?;
            masters.push(
                streams
                    .iter()
                    .zip(&wcrts)
                    .enumerate()
                    .map(|(i, (s, w))| StreamResponse {
                        master: k,
                        stream: i,
                        response_time: w.wcrt,
                        deadline: s.d,
                        schedulable: w.wcrt <= s.d,
                        queuing_delay: (w.wcrt - s.ch).max_zero(),
                    })
                    .collect(),
            );
            details.push(wcrts);
        }
        Ok((
            NetworkAnalysis {
                tcycle: bound.tcycle,
                tdel: bound.tdel,
                masters,
            },
            details,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use crate::fcfs::FcfsAnalysis;
    use profirt_base::time::t;
    use profirt_base::{AnalysisError, StreamSet};

    /// Tcycle = 1000 (TTR = 900, Tdel = 100 via Cl).
    fn net(streams: &[(i64, i64, i64)]) -> NetworkConfig {
        NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(streams).unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap()
    }

    #[test]
    fn single_stream_r_is_tcycle() {
        let an = EdfAnalysis::paper()
            .analyze(&net(&[(100, 5_000, 10_000)]))
            .unwrap();
        assert_eq!(an.masters[0][0].response_time, t(1_000));
        assert!(an.masters[0][0].schedulable);
    }

    #[test]
    fn two_streams_tight_one_blocked_once() {
        // Streams: tight D=3000, lax D=40000, both T=10000.
        let an = EdfAnalysis::paper()
            .analyze(&net(&[(100, 3_000, 10_000), (100, 40_000, 10_000)]))
            .unwrap();
        // Tight stream at a=0: later-deadline stream can block (Tcycle),
        // no same-or-earlier-deadline interference: L = 1000,
        // R = max(1000, 1000+1000-0) = 2000.
        assert_eq!(an.masters[0][0].response_time, t(2_000));
        assert!(an.masters[0][0].schedulable);
        // Lax stream: interference from tight one bounded by its deadline
        // window; R stays within D.
        assert!(an.masters[0][1].schedulable);
    }

    #[test]
    fn edf_beats_fcfs_for_tight_deadlines() {
        let cfg = net(&[
            (100, 3_000, 10_000),
            (100, 6_000, 10_000),
            (100, 40_000, 10_000),
        ]);
        let edf = EdfAnalysis::paper().analyze(&cfg).unwrap();
        let fcfs = FcfsAnalysis::paper().run(&cfg).unwrap();
        // FCFS: flat 3 * 1000 = 3000 — the tight stream is at its deadline.
        assert_eq!(fcfs.masters[0][0].response_time, t(3_000));
        // EDF: the tight stream sees one blocking + bounded interference.
        assert!(edf.masters[0][0].response_time < t(3_000));
    }

    #[test]
    fn utilization_guard() {
        // Tcycle = 1000 but periods of 1500 each: 2 * 1000/1500 > 1.
        let cfg = net(&[(100, 1_500, 1_500), (100, 1_500, 1_500)]);
        assert!(matches!(
            EdfAnalysis::paper().analyze(&cfg),
            Err(AnalysisError::UtilizationAtLeastOne)
        ));
    }

    #[test]
    fn jitter_increases_response() {
        let plain = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdtj(&[(100, 9_000, 10_000, 0), (100, 9_500, 10_000, 0)]).unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap();
        let jittered = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdtj(&[(100, 9_000, 10_000, 0), (100, 9_500, 10_000, 4_000)])
                    .unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap();
        let r0 = EdfAnalysis::paper().analyze(&plain).unwrap();
        let r1 = EdfAnalysis::paper().analyze(&jittered).unwrap();
        assert!(
            r1.masters[0][0].response_time >= r0.masters[0][0].response_time,
            "jitter on a peer must not reduce the bound"
        );
    }

    #[test]
    fn detailed_reports_candidates() {
        let cfg = net(&[(100, 3_000, 10_000), (100, 40_000, 10_000)]);
        let (_, det) = EdfAnalysis::paper()
            .analyze_detailed(&cfg, &mut AnalysisScratch::new())
            .unwrap();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].len(), 2);
        assert!(det[0][0].candidates > 0);
    }

    #[test]
    fn candidate_cap_enforced() {
        let cfg = net(&[(100, 3_000, 10_000), (100, 40_000, 10_000)]);
        let an = EdfAnalysis {
            max_candidates: 1,
            ..EdfAnalysis::paper()
        };
        assert!(matches!(
            an.analyze(&cfg),
            Err(AnalysisError::IterationLimit { .. })
        ));
    }

    #[test]
    fn deadline_miss_detected() {
        // Deadline below Tcycle can never be met (R >= Tcycle).
        let an = EdfAnalysis::paper()
            .analyze(&net(&[(100, 800, 10_000)]))
            .unwrap();
        assert!(!an.masters[0][0].schedulable);
        assert_eq!(an.masters[0][0].response_time, t(1_000));
    }

    #[test]
    fn empty_master_allowed() {
        let cfg = NetworkConfig::new(
            vec![
                MasterConfig::new(StreamSet::new(vec![]).unwrap(), t(100)),
                MasterConfig::new(StreamSet::from_cdt(&[(100, 5_000, 10_000)]).unwrap(), t(0)),
            ],
            t(900),
        )
        .unwrap();
        let an = EdfAnalysis::paper().analyze(&cfg).unwrap();
        assert!(an.masters[0].is_empty());
        assert_eq!(an.masters[1].len(), 1);
    }
}
