//! Uniform dispatch over the paper's queue policies.
//!
//! The analyses ([`FcfsAnalysis`], [`DmAnalysis`], [`EdfAnalysis`]) and the
//! simulator's [`QueuePolicy`] grew up as separate types; every consumer
//! that sweeps "all policies" (the CLI, the experiments, the campaign
//! engine) used to hand-roll the same match. [`PolicyKind`] names each
//! analysable policy once — including the two eq. (16) fidelity variants —
//! and maps it to both its analysis and its simulator queue discipline.

use profirt_base::AnalysisResult;
use profirt_profibus::QueuePolicy;
use profirt_sched::{AnalysisScratch, FixpointConfig};

use crate::config::NetworkConfig;
use crate::dm::DmAnalysis;
use crate::edf::EdfAnalysis;
use crate::fcfs::FcfsAnalysis;
use crate::NetworkAnalysis;

/// Reusable working buffers for [`PolicyKind::analyze_with_scratch`]. Today
/// only the EDF message analysis allocates scratch worth keeping warm (the
/// FCFS/DM recurrences are allocation-light), but routing every policy
/// through one opaque scratch lets long-running consumers — the `serve`
/// shards — hold a single value per worker regardless of which policies the
/// request mix asks for.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    edf: AnalysisScratch,
}

/// Analysis tuning shared by every policy's analysis and passed through the
/// uniform dispatch: fixpoint iteration caps and the arrival-candidate cap
/// of the EDF message analysis. One tuning value configures a whole sweep
/// (the campaign engine builds it once per work unit).
#[derive(Clone, Copy, Debug)]
pub struct PolicyTuning {
    /// Fixpoint iteration limits for every recurrence.
    pub fixpoint: FixpointConfig,
    /// Hard cap on arrival candidates per stream (EDF analysis only).
    pub max_candidates: u64,
}

impl Default for PolicyTuning {
    fn default() -> Self {
        // Derived from the EDF analysis defaults (the only analysis with a
        // candidate cap), so retuning EdfAnalysis::default() cannot drift
        // apart from the dispatch path.
        let edf = EdfAnalysis::default();
        PolicyTuning {
            fixpoint: edf.fixpoint,
            max_candidates: edf.max_candidates,
        }
    }
}

/// One analysable queue policy, with its fidelity variant where relevant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyKind {
    /// Stock PROFIBUS FCFS (§3, eq. (11)).
    Fcfs,
    /// §4 priority-queue architecture, deadline-monotonic dispatching,
    /// conservative (sound) variant of eq. (16).
    Dm,
    /// §4 architecture, DM dispatching, paper-literal eq. (16) (optimistic
    /// in corner cases; kept for the fidelity experiments).
    DmPaper,
    /// §4 architecture, EDF dispatching (eqs. (17)–(18)).
    Edf,
}

impl PolicyKind {
    /// Every policy, in the order the paper discusses them.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fcfs,
        PolicyKind::Dm,
        PolicyKind::DmPaper,
        PolicyKind::Edf,
    ];

    /// The canonical name (also the accepted CLI / campaign spelling).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Dm => "dm",
            PolicyKind::DmPaper => "dm-paper",
            PolicyKind::Edf => "edf",
        }
    }

    /// Parses a policy name (`"fcfs"`, `"dm"`, `"dm-paper"`, `"edf"`, plus
    /// the `"dm-cons"` alias the experiments historically used).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "fcfs" => Some(PolicyKind::Fcfs),
            "dm" | "dm-cons" => Some(PolicyKind::Dm),
            "dm-paper" => Some(PolicyKind::DmPaper),
            "edf" => Some(PolicyKind::Edf),
            _ => None,
        }
    }

    /// A short human label for report headings.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS (eq. 11)",
            PolicyKind::Dm => "DM conservative (eq. 16 fixed)",
            PolicyKind::DmPaper => "DM paper-literal (eq. 16)",
            PolicyKind::Edf => "EDF (eqs. 17-18)",
        }
    }

    /// Runs the policy's worst-case response-time analysis with default
    /// tuning.
    pub fn analyze(self, net: &NetworkConfig) -> AnalysisResult<NetworkAnalysis> {
        self.analyze_with(net, &PolicyTuning::default())
    }

    /// Runs the policy's worst-case response-time analysis, passing the
    /// caller's tuning (fixpoint / candidate caps) through to the concrete
    /// analysis. With `PolicyTuning::default()` this is exactly
    /// [`PolicyKind::analyze`].
    pub fn analyze_with(
        self,
        net: &NetworkConfig,
        tuning: &PolicyTuning,
    ) -> AnalysisResult<NetworkAnalysis> {
        self.analyze_with_scratch(net, tuning, &mut PolicyScratch::default())
    }

    /// [`PolicyKind::analyze_with`] reusing caller-owned working buffers.
    /// Scratch reuse never changes results (every buffer is cleared before
    /// use); it only keeps allocations warm across a request stream.
    pub fn analyze_with_scratch(
        self,
        net: &NetworkConfig,
        tuning: &PolicyTuning,
        scratch: &mut PolicyScratch,
    ) -> AnalysisResult<NetworkAnalysis> {
        match self {
            PolicyKind::Fcfs => FcfsAnalysis::paper().run(net),
            PolicyKind::Dm => DmAnalysis {
                fixpoint: tuning.fixpoint,
                ..DmAnalysis::conservative()
            }
            .analyze(net),
            PolicyKind::DmPaper => DmAnalysis {
                fixpoint: tuning.fixpoint,
                ..DmAnalysis::paper()
            }
            .analyze(net),
            PolicyKind::Edf => EdfAnalysis {
                fixpoint: tuning.fixpoint,
                max_candidates: tuning.max_candidates,
                ..EdfAnalysis::paper()
            }
            .analyze_with_scratch(net, &mut scratch.edf),
        }
    }

    /// The matching simulator queue discipline.
    pub fn queue_policy(self) -> QueuePolicy {
        match self {
            PolicyKind::Fcfs => QueuePolicy::Fcfs,
            PolicyKind::Dm | PolicyKind::DmPaper => QueuePolicy::DeadlineMonotonic,
            PolicyKind::Edf => QueuePolicy::Edf,
        }
    }

    /// `true` for the policies that require the paper's §4 priority-queue
    /// architecture (outgoing queue reordered at insertion) rather than the
    /// stock FCFS master.
    pub fn is_section4(self) -> bool {
        !matches!(self, PolicyKind::Fcfs)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MasterConfig;
    use profirt_base::{StreamSet, Time};

    fn net() -> NetworkConfig {
        let m = MasterConfig::new(
            StreamSet::from_cdt(&[(300, 30_000, 30_000), (240, 60_000, 60_000)]).unwrap(),
            Time::new(360),
        );
        NetworkConfig::new(vec![m], Time::new(3_000)).unwrap()
    }

    #[test]
    fn names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(PolicyKind::parse("dm-cons"), Some(PolicyKind::Dm));
        assert_eq!(PolicyKind::parse("nope"), None);
    }

    #[test]
    fn dispatch_matches_direct_constructors() {
        let n = net();
        let via = PolicyKind::Dm.analyze(&n).unwrap();
        let direct = DmAnalysis::conservative().analyze(&n).unwrap();
        assert_eq!(via, direct);
        let via = PolicyKind::Fcfs.analyze(&n).unwrap();
        let direct = FcfsAnalysis::paper().run(&n).unwrap();
        assert_eq!(via, direct);
    }

    #[test]
    fn default_tuning_matches_plain_analyze() {
        let n = net();
        let tuning = PolicyTuning::default();
        for p in PolicyKind::ALL {
            let plain = p.analyze(&n).unwrap();
            let tuned = p.analyze_with(&n, &tuning).unwrap();
            assert_eq!(plain, tuned, "{p}: tuning pass-through changed results");
        }
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        let n = net();
        let tuning = PolicyTuning::default();
        let mut scratch = PolicyScratch::default();
        for _ in 0..3 {
            for p in PolicyKind::ALL {
                let fresh = p.analyze_with(&n, &tuning).unwrap();
                let warm = p.analyze_with_scratch(&n, &tuning, &mut scratch).unwrap();
                assert_eq!(fresh, warm, "{p}: scratch reuse changed results");
            }
        }
    }

    #[test]
    fn queue_mapping_and_architecture() {
        assert_eq!(PolicyKind::Fcfs.queue_policy(), QueuePolicy::Fcfs);
        assert_eq!(
            PolicyKind::DmPaper.queue_policy(),
            QueuePolicy::DeadlineMonotonic
        );
        assert_eq!(PolicyKind::Edf.queue_policy(), QueuePolicy::Edf);
        assert!(!PolicyKind::Fcfs.is_section4());
        assert!(PolicyKind::Dm.is_section4() && PolicyKind::Edf.is_section4());
    }
}
