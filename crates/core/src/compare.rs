//! Side-by-side comparison of the three dispatching policies — the paper's
//! headline result, mechanised.
//!
//! Runs the FCFS bound (eq. (11)), the DM analysis (eq. (16)) and the EDF
//! analysis (eqs. (17)–(18)) on one network and reports per-stream response
//! times, schedulability counts and dominance relations. The conclusion the
//! paper draws — "the use of priority-based dispatching … allows the support
//! of messages with more tight deadlines" — corresponds to
//! [`PolicyComparison::priority_dominates_fcfs_on_tightest`].

use profirt_base::{AnalysisResult, Time};

use crate::config::NetworkConfig;
use crate::dm::DmAnalysis;
use crate::edf::EdfAnalysis;
use crate::fcfs::FcfsAnalysis;
use crate::NetworkAnalysis;

/// Results of all three policies on one network.
#[derive(Clone, Debug)]
pub struct PolicyComparison {
    /// Eq. (11) result.
    pub fcfs: NetworkAnalysis,
    /// Eq. (16) result.
    pub dm: NetworkAnalysis,
    /// Eqs. (17)–(18) result (`None` if the EDF service-capacity
    /// precondition `Σ Tcycle/Tj < 1` fails).
    pub edf: Option<NetworkAnalysis>,
}

impl PolicyComparison {
    /// Schedulable-stream counts as `(fcfs, dm, edf)`.
    pub fn schedulable_counts(&self) -> (usize, usize, Option<usize>) {
        (
            self.fcfs.schedulable_count(),
            self.dm.schedulable_count(),
            self.edf.as_ref().map(NetworkAnalysis::schedulable_count),
        )
    }

    /// For each master, `true` iff the tightest-deadline stream's bound
    /// under DM is at most its FCFS bound — the priority-inversion removal
    /// the paper promises. (It always holds structurally; exposed for
    /// assertion in experiments.)
    pub fn priority_dominates_fcfs_on_tightest(&self) -> Vec<bool> {
        self.fcfs
            .masters
            .iter()
            .zip(self.dm.masters.iter())
            .map(|(f, d)| {
                // Tightest stream = smallest deadline.
                match f.iter().zip(d.iter()).min_by_key(|(fr, _)| fr.deadline) {
                    Some((fr, dr)) => dr.response_time <= fr.response_time,
                    None => true,
                }
            })
            .collect()
    }

    /// Per-stream response-time triples `(fcfs, dm, edf)` flattened across
    /// masters, for tabulation.
    pub fn rows(&self) -> Vec<ComparisonRow> {
        let mut out = Vec::new();
        for (k, f_rows) in self.fcfs.masters.iter().enumerate() {
            for (i, f) in f_rows.iter().enumerate() {
                out.push(ComparisonRow {
                    master: k,
                    stream: i,
                    deadline: f.deadline,
                    fcfs: f.response_time,
                    dm: self.dm.masters[k][i].response_time,
                    edf: self.edf.as_ref().map(|e| e.masters[k][i].response_time),
                });
            }
        }
        out
    }
}

/// One row of the comparison table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ComparisonRow {
    /// Master index.
    pub master: usize,
    /// Stream index.
    pub stream: usize,
    /// Relative deadline.
    pub deadline: Time,
    /// FCFS worst-case response time.
    pub fcfs: Time,
    /// DM worst-case response time.
    pub dm: Time,
    /// EDF worst-case response time, if computable.
    pub edf: Option<Time>,
}

/// Runs all three analyses with the given DM/EDF configurations.
pub fn compare_policies(
    net: &NetworkConfig,
    dm: &DmAnalysis,
    edf: &EdfAnalysis,
) -> AnalysisResult<PolicyComparison> {
    let fcfs = FcfsAnalysis { model: dm.model }.run(net)?;
    let dm_result = dm.analyze(net)?;
    let edf_result = match edf.analyze(net) {
        Ok(r) => Some(r),
        Err(profirt_base::AnalysisError::UtilizationAtLeastOne) => None,
        Err(e) => return Err(e),
    };
    Ok(PolicyComparison {
        fcfs,
        dm: dm_result,
        edf: edf_result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use profirt_base::time::t;
    use profirt_base::StreamSet;

    fn net() -> NetworkConfig {
        NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[
                    (100, 3_000, 10_000),
                    (100, 6_000, 12_000),
                    (100, 40_000, 15_000),
                ])
                .unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap()
    }

    #[test]
    fn comparison_has_all_policies() {
        let cmp = compare_policies(&net(), &DmAnalysis::paper(), &EdfAnalysis::paper()).unwrap();
        assert!(cmp.edf.is_some());
        let rows = cmp.rows();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.edf.is_some());
            // FCFS is flat nh*Tcycle = 3000 for all streams.
            assert_eq!(r.fcfs, t(3_000));
        }
    }

    #[test]
    fn tightest_stream_dominance() {
        let cmp = compare_policies(&net(), &DmAnalysis::paper(), &EdfAnalysis::paper()).unwrap();
        assert_eq!(cmp.priority_dominates_fcfs_on_tightest(), vec![true]);
    }

    #[test]
    fn schedulable_counts() {
        let cmp = compare_policies(&net(), &DmAnalysis::paper(), &EdfAnalysis::paper()).unwrap();
        let (f, d, e) = cmp.schedulable_counts();
        // FCFS: flat 3000 <= D for all three (3000, 6000, 40000): the
        // tightest is exactly at its deadline.
        assert_eq!(f, 3);
        assert_eq!(d, 3);
        assert_eq!(e, Some(3));
        // Tighten the first deadline: FCFS loses it, DM/EDF keep it.
        let tight = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[
                    (100, 2_500, 10_000),
                    (100, 6_000, 12_000),
                    (100, 40_000, 15_000),
                ])
                .unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap();
        let cmp2 = compare_policies(&tight, &DmAnalysis::paper(), &EdfAnalysis::paper()).unwrap();
        let (f2, d2, e2) = cmp2.schedulable_counts();
        assert_eq!(f2, 2);
        assert_eq!(d2, 3);
        assert_eq!(e2, Some(3));
    }

    #[test]
    fn edf_capacity_failure_reported_as_none() {
        let overloaded = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(100, 1_500, 1_500), (100, 1_500, 1_500)]).unwrap(),
                t(100),
            )],
            t(900),
        )
        .unwrap();
        let cmp =
            compare_policies(&overloaded, &DmAnalysis::paper(), &EdfAnalysis::paper()).unwrap();
        assert!(cmp.edf.is_none());
        let rows = cmp.rows();
        assert!(rows.iter().all(|r| r.edf.is_none()));
    }
}
