//! Mode-aware (mixed-criticality) two-verdict analysis.
//!
//! A mixed-criticality network is analysed twice:
//!
//! * **LO-mode (nominal)** — the full workload on the full ring. These are
//!   the paper's ordinary bounds; they are only promised during *stable
//!   phases* (full ring, no recent disturbance, no degraded mode).
//! * **HI-mode (degraded)** — the HI-only projection of the workload. In
//!   degraded mode the simulator sheds every sub-HI stream, so HI traffic
//!   competes only against HI traffic. The projection is analysed on the
//!   *full* ring, which is conservative for every churn plan: removing a
//!   master can only shrink the token-lateness sum `Tdel = Σ CM^k`
//!   (eq. (13)) and the ring overhead `n · token_pass`, so the full-ring
//!   HI bound dominates the bound on any degraded subring.
//!
//! The campaign contract built on this pair is asymmetric by design:
//! HI bounds must hold through *any* disturbance (`hi_sim_violations`
//! column, no policy exemption), while LO bounds are only checked in
//! stable phases (the existing `sim_violations` column).

use profirt_base::{AnalysisResult, Time};

use crate::config::NetworkConfig;
use crate::policy::{PolicyKind, PolicyScratch, PolicyTuning};
use crate::NetworkAnalysis;

/// The two-verdict result of analysing a mixed-criticality network.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModeAnalysis {
    /// Nominal (LO-mode) bounds: full workload, full ring. Valid in stable
    /// phases only.
    pub lo: NetworkAnalysis,
    /// Degraded (HI-mode) bounds: HI-only workload, full ring (conservative
    /// for any subring). Valid through any churn plan.
    pub hi: NetworkAnalysis,
    /// Per master, the original stream index of each stream kept by the HI
    /// projection: `hi.masters[m][j]` bounds original stream
    /// `hi_kept[m][j]` of master `m`.
    pub hi_kept: Vec<Vec<usize>>,
}

impl ModeAnalysis {
    /// Runs the policy's analysis in both modes. On an all-HI network the
    /// two verdicts coincide (the projection is the identity).
    pub fn analyze(
        policy: PolicyKind,
        net: &NetworkConfig,
        tuning: &PolicyTuning,
    ) -> AnalysisResult<ModeAnalysis> {
        ModeAnalysis::analyze_with_scratch(policy, net, tuning, &mut PolicyScratch::default())
    }

    /// [`ModeAnalysis::analyze`] reusing caller-owned working buffers.
    pub fn analyze_with_scratch(
        policy: PolicyKind,
        net: &NetworkConfig,
        tuning: &PolicyTuning,
        scratch: &mut PolicyScratch,
    ) -> AnalysisResult<ModeAnalysis> {
        let lo = policy.analyze_with_scratch(net, tuning, scratch)?;
        let (hi_net, hi_kept) = net.hi_projection()?;
        let hi = policy.analyze_with_scratch(&hi_net, tuning, scratch)?;
        Ok(ModeAnalysis { lo, hi, hi_kept })
    }

    /// The HI-mode response-time bound of *original* stream `stream` of
    /// master `master`, or `None` when the stream is sub-HI (shed in HI
    /// mode, so no HI bound exists) or out of range.
    pub fn hi_response(&self, master: usize, stream: usize) -> Option<Time> {
        let j = self
            .hi_kept
            .get(master)?
            .iter()
            .position(|&k| k == stream)?;
        Some(self.hi.masters.get(master)?.get(j)?.response_time)
    }

    /// `true` iff every HI stream meets its deadline in degraded mode.
    pub fn hi_schedulable(&self) -> bool {
        self.hi.all_schedulable()
    }

    /// `true` iff the full workload meets its deadlines in stable phases.
    pub fn lo_schedulable(&self) -> bool {
        self.lo.all_schedulable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use profirt_base::{Criticality, StreamSet, Time};

    fn mixed_net() -> NetworkConfig {
        let m0 = MasterConfig::new(
            StreamSet::from_cdt(&[(300, 30_000, 30_000), (240, 9_000, 60_000)]).unwrap(),
            Time::new(360),
        )
        .with_criticality(vec![Criticality::Hi, Criticality::Lo]);
        let m1 = MasterConfig::new(
            StreamSet::from_cdt(&[(200, 40_000, 40_000)]).unwrap(),
            Time::new(0),
        );
        NetworkConfig::new(vec![m0, m1], Time::new(3_000)).unwrap()
    }

    #[test]
    fn two_verdicts_and_hi_bound_lookup() {
        let an = ModeAnalysis::analyze(PolicyKind::Fcfs, &mixed_net(), &PolicyTuning::default())
            .unwrap();
        // LO side analyses the full workload.
        assert_eq!(an.lo.stream_count(), 3);
        // HI side drops the LO stream of master 0.
        assert_eq!(an.hi.stream_count(), 2);
        assert_eq!(an.hi_kept, vec![vec![0], vec![0]]);
        // HI bounds exist exactly for the HI streams, keyed by original
        // index.
        assert!(an.hi_response(0, 0).is_some());
        assert_eq!(an.hi_response(0, 1), None); // LO stream: shed, no bound
        assert!(an.hi_response(1, 0).is_some());
        assert_eq!(an.hi_response(2, 0), None);
        // Shedding can only shorten FCFS bounds (fewer streams per master).
        assert!(an.hi_response(0, 0).unwrap() <= an.lo.masters[0][0].response_time);
    }

    #[test]
    fn all_hi_network_has_coinciding_verdicts() {
        let net = NetworkConfig::new(
            vec![MasterConfig::new(
                StreamSet::from_cdt(&[(300, 30_000, 30_000)]).unwrap(),
                Time::new(360),
            )],
            Time::new(3_000),
        )
        .unwrap();
        for p in PolicyKind::ALL {
            let an = ModeAnalysis::analyze(p, &net, &PolicyTuning::default()).unwrap();
            assert_eq!(an.lo, an.hi, "{p}: all-HI projection must be identity");
        }
    }
}
