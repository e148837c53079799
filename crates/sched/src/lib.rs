//! # profirt-sched — single-processor schedulability analyses
//!
//! The toolbox surveyed in §2 of Tovar & Vasques (1999), implemented exactly
//! over integer ticks:
//!
//! **Fixed priorities** ([`fixed`]):
//! * Rate-monotonic / deadline-monotonic priority assignment.
//! * The Liu & Layland utilisation bound `Σ Ci/Ti ≤ n(2^{1/n} − 1)`, decided
//!   *exactly* (arbitrary-precision boundary comparison), plus the hyperbolic
//!   refinement.
//! * Joseph & Pandya worst-case response times for preemptive dispatching,
//!   with the Tindell release-jitter extension.
//! * Non-preemptive response times with blocking factors
//!   `Bi = max_{j∈lp(i)} Cj` — the paper's eqs. (1)–(2) — in both the
//!   literal (Audsley-style ceiling) and the exact (George-style
//!   floor-plus-one) variants.
//! * Audsley's optimal priority assignment (OPA) as an extension.
//!
//! **EDF** ([`edf`]):
//! * The exact utilisation test `Σ Ci/Ti ≤ 1`.
//! * The processor-demand feasibility test for `Di ≤ Ti` and arbitrary
//!   deadlines — the paper's eq. (3) — with checkpoint enumeration
//!   `S = {k·Ti + Di}` bounded by the synchronous busy period.
//! * Non-preemptive EDF feasibility: Zheng & Shin (eq. (4)) and the less
//!   pessimistic George/Rivierre/Spuri refinement (eq. (5)).
//! * Worst-case response times under preemptive EDF (Spuri; eqs. (6)–(8))
//!   and non-preemptive EDF (George et al.; eqs. (9)–(10)) via deadline
//!   busy-period enumeration, with release jitter as in the paper's
//!   message analysis (eqs. (17)–(18)), which runs on the same scan.
//!
//! All analyses return [`profirt_base::AnalysisResult`]; divergent fixpoints
//! and overflow surface as typed errors, never panics.
//!
//! **Fast paths.** The demand tests select a QPA-style backward scan on
//! large instances (the exhaustive checkpoint walks stay available as
//! `*_exhaustive` references), and every response-time analysis has a
//! `*_with` variant that reuses caller-owned [`AnalysisScratch`] buffers
//! across calls. Fast and reference paths return identical results —
//! see ARCHITECTURE.md ("The analysis fast path") and the differential
//! property tests in `tests/prop_analysis_fast.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoints;
pub mod edf;
pub mod fixed;
pub mod fixpoint;
pub mod scratch;
pub mod soa;

pub use checkpoints::{CheckpointIter, CheckpointScratch, Checkpoints};
pub use fixpoint::{fixpoint, fixpoint_counted, FixOutcome, FixpointConfig};
pub use scratch::{AnalysisScratch, WarmState};

/// Per-task verdict of a response-time analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskVerdict {
    /// The fixpoint converged at or below the deadline.
    Schedulable {
        /// The worst-case response time.
        wcrt: profirt_base::Time,
    },
    /// The iteration exceeded the deadline: the task misses it in the worst
    /// case (for bounded analyses this is a proof of unschedulability).
    Unschedulable {
        /// The first iterate that exceeded the deadline (a lower bound on
        /// the true response time).
        exceeded_at: profirt_base::Time,
    },
}

impl TaskVerdict {
    /// `true` for [`TaskVerdict::Schedulable`].
    pub fn is_schedulable(&self) -> bool {
        matches!(self, TaskVerdict::Schedulable { .. })
    }

    /// The worst-case response time if schedulable.
    pub fn wcrt(&self) -> Option<profirt_base::Time> {
        match self {
            TaskVerdict::Schedulable { wcrt } => Some(*wcrt),
            TaskVerdict::Unschedulable { .. } => None,
        }
    }
}

/// Result of a whole-set response-time analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SetAnalysis {
    /// Verdict per task, indexed like the input set.
    pub verdicts: Vec<TaskVerdict>,
}

impl SetAnalysis {
    /// `true` iff every task is schedulable.
    pub fn all_schedulable(&self) -> bool {
        self.verdicts.iter().all(TaskVerdict::is_schedulable)
    }

    /// Worst-case response times for all tasks, or `None` if any task is
    /// unschedulable.
    pub fn wcrts(&self) -> Option<Vec<profirt_base::Time>> {
        self.verdicts.iter().map(TaskVerdict::wcrt).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    #[test]
    fn verdict_accessors() {
        let ok = TaskVerdict::Schedulable { wcrt: t(5) };
        let bad = TaskVerdict::Unschedulable { exceeded_at: t(11) };
        assert!(ok.is_schedulable());
        assert!(!bad.is_schedulable());
        assert_eq!(ok.wcrt(), Some(t(5)));
        assert_eq!(bad.wcrt(), None);
    }

    #[test]
    fn set_analysis_aggregation() {
        let all_ok = SetAnalysis {
            verdicts: vec![
                TaskVerdict::Schedulable { wcrt: t(1) },
                TaskVerdict::Schedulable { wcrt: t(2) },
            ],
        };
        assert!(all_ok.all_schedulable());
        assert_eq!(all_ok.wcrts(), Some(vec![t(1), t(2)]));

        let mixed = SetAnalysis {
            verdicts: vec![
                TaskVerdict::Schedulable { wcrt: t(1) },
                TaskVerdict::Unschedulable { exceeded_at: t(9) },
            ],
        };
        assert!(!mixed.all_schedulable());
        assert_eq!(mixed.wcrts(), None);
    }
}
