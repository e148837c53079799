//! # profirt-core — worst-case message response times on PROFIBUS
//!
//! The primary contribution of Tovar & Vasques (1999), §3.2–§4.3:
//!
//! * [`config`] — the analysed network: per-master high-priority stream sets
//!   (`Shi^k = (Chi, Dhi, Thi, Ji)`), longest low-priority cycles `Cl^k`, and
//!   the target token rotation time `TTR`.
//! * [`tcycle`] — the token-cycle upper bound: worst-case token lateness
//!   `Tdel = Σ_k CM^k` (eq. (13)) and `Tcycle = TTR + Tdel` (eq. (14)),
//!   plus the refined per-overrunner bound suggested by the paper's
//!   reference \[14\].
//! * [`fcfs`] — the stock-PROFIBUS bound: `Ri^k = nh^k · Tcycle` (eq. (11))
//!   and the schedulability condition `Dhi^k ≥ Ri^k` (eq. (12)).
//! * [`ttr`] — setting the `TTR` parameter from deadlines (eq. (15)).
//! * [`dm`] — the §4 priority-queue architecture with deadline-monotonic
//!   dispatching: the jitter-aware fixed-priority iteration of eq. (16).
//! * [`edf`] — the same architecture with EDF dispatching: eqs. (17)–(18),
//!   which are eqs. (9)–(10) with `C → Tcycle` and release jitter. The
//!   module only maps each master's streams to rows `(Tcycle, D, T, J)` and
//!   runs `profirt-sched`'s non-preemptive EDF arrival scan on them, the
//!   same scan the CPU task analysis uses.
//! * [`jitter`] — release-jitter inheritance from the generating tasks
//!   (§4.1), computed with `profirt-sched`'s response-time analyses.
//! * [`end_to_end`] — the `E = g + Q + C + d` decomposition of §4.2.
//! * [`compare`] — FCFS vs DM vs EDF side-by-side on one network (the
//!   paper's headline comparison).
//! * [`policy`] — [`PolicyKind`], the uniform name → (analysis, simulator
//!   queue discipline) dispatch used by the CLI and the campaign engine.
//! * [`mode`] — [`ModeAnalysis`], the mixed-criticality two-verdict pair
//!   (LO-mode bounds for stable phases, HI-mode bounds through any churn).
//! * [`wire`] — the network JSON format: the one decoder and encoder that
//!   the CLI's config files and the `serve` protocol share.
//!
//! ## Fidelity switches
//!
//! Equations (11) and (16) embed modelling choices that are debatable as
//! worst-case bounds (see the module docs): analyses that
//! implement a formula *verbatim* expose a `paper()` constructor, and
//! sound-by-construction alternatives expose `conservative()`. The
//! simulator crate arbitrates empirically; the `t8` campaign preset
//! records the verdicts in its `sim_violations` column (`dm-paper` vs
//! `dm`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod config;
pub mod dm;
pub mod edf;
pub mod end_to_end;
pub mod fcfs;
pub mod jitter;
pub mod low_priority;
pub mod mode;
pub mod policy;
pub mod tcycle;
pub mod ttr;
pub mod wire;

pub use compare::{compare_policies, PolicyComparison};
pub use config::{MasterConfig, NetworkConfig};
pub use dm::{DmAnalysis, DmVariant};
pub use edf::EdfAnalysis;
pub use end_to_end::{EndToEndAnalysis, EndToEndBreakdown, TaskSegments};
pub use fcfs::FcfsAnalysis;
pub use jitter::{inherit_jitter, JitterModel};
pub use low_priority::{low_priority_outlook, LowPriorityOutlook};
pub use mode::ModeAnalysis;
pub use policy::{PolicyKind, PolicyScratch, PolicyTuning};
pub use tcycle::{TcycleBound, TcycleModel};
pub use ttr::{max_feasible_ttr, TtrSetting};

use profirt_base::Time;

/// Per-stream outcome of a message response-time analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamResponse {
    /// Master index within the network configuration.
    pub master: usize,
    /// Stream index within the master.
    pub stream: usize,
    /// Worst-case response time `R` (release → completed message cycle).
    pub response_time: Time,
    /// The stream's relative deadline `Dh`.
    pub deadline: Time,
    /// `response_time <= deadline`.
    pub schedulable: bool,
    /// Worst-case queuing delay `Q = R − Ch` (eq. (11) decomposition),
    /// clamped at zero.
    pub queuing_delay: Time,
}

/// Whole-network analysis result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetworkAnalysis {
    /// The token-cycle bound used.
    pub tcycle: Time,
    /// The token-lateness component `Tdel`.
    pub tdel: Time,
    /// Per-master, per-stream responses (indexes mirror the configuration).
    pub masters: Vec<Vec<StreamResponse>>,
}

impl NetworkAnalysis {
    /// `true` iff every stream of every master meets its deadline.
    pub fn all_schedulable(&self) -> bool {
        self.masters.iter().flatten().all(|r| r.schedulable)
    }

    /// Iterates over all stream responses.
    pub fn iter(&self) -> impl Iterator<Item = &StreamResponse> {
        self.masters.iter().flatten()
    }

    /// The largest response time in the network.
    pub fn max_response(&self) -> Option<Time> {
        self.iter().map(|r| r.response_time).max()
    }

    /// Number of schedulable streams.
    pub fn schedulable_count(&self) -> usize {
        self.iter().filter(|r| r.schedulable).count()
    }

    /// Total number of streams.
    pub fn stream_count(&self) -> usize {
        self.iter().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profirt_base::time::t;

    fn resp(rt: i64, d: i64) -> StreamResponse {
        StreamResponse {
            master: 0,
            stream: 0,
            response_time: t(rt),
            deadline: t(d),
            schedulable: rt <= d,
            queuing_delay: t(rt),
        }
    }

    #[test]
    fn aggregation_helpers() {
        let an = NetworkAnalysis {
            tcycle: t(100),
            tdel: t(40),
            masters: vec![vec![resp(50, 60), resp(70, 60)], vec![resp(10, 99)]],
        };
        assert!(!an.all_schedulable());
        assert_eq!(an.schedulable_count(), 2);
        assert_eq!(an.stream_count(), 3);
        assert_eq!(an.max_response(), Some(t(70)));
    }

    #[test]
    fn empty_network_is_schedulable() {
        let an = NetworkAnalysis {
            tcycle: t(1),
            tdel: t(0),
            masters: vec![],
        };
        assert!(an.all_schedulable());
        assert_eq!(an.max_response(), None);
    }
}
