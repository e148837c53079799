//! PROFIBUS network simulator.
//!
//! Executes the token-passing algorithm of the paper's §3.1 *verbatim* over
//! a configurable set of masters, measuring per-stream message response
//! times, token rotation times and deadline misses. See [`simulate_network`] for the
//! execution rules and the AP-queue/stack-queue transfer semantics that
//! realise the §4 architecture.
//!
//! Structure: [`kernel`] is the streaming execution engine (lazy release
//! generators → deterministic merge → token loop → event stream);
//! [`observe`] holds [`NetEvent`], the simulator's one event type, and the
//! built-in observers (results, the fused run statistics of [`NetStats`],
//! stable-phase maxima); [`mod@trace`] records the same events, unchanged,
//! as a bounded [`Trace`];
//! [`membership`] scripts ring churn (a [`MembershipPlan`] of power-on /
//! power-off / crash events driving the DIN 19245 FDL machinery through
//! [`profirt_profibus::RingController`]); [`mode`] runs the
//! mixed-criticality overload/match-up state machine over the dynamic
//! loop; [`mod@reference`] retains the pre-materialized baseline for
//! differential tests and benchmarks — it models the static §3.1 ring
//! only — and [`reference_stats`] the split one-statistic observers that
//! [`NetStats`] fuses, as its differential-test oracle.

mod config;
pub mod kernel;
pub mod membership;
pub mod mode;
pub mod observe;
pub mod reference;
pub mod reference_stats;
mod sim;
pub mod trace;

pub use config::{
    JitterInjection, NetworkSimConfig, OffsetMode, SimMaster, SimNetwork, SimNetworkError,
};
pub use kernel::{run_network, KernelMemStats};
pub use membership::{MembershipAction, MembershipEvent, MembershipPlan};
pub use mode::{ModeController, ModeSimConfig, ModeTransition};
pub use observe::{
    ModeSummary, NetEvent, NetStats, ResultObserver, RingSummary, StableResponseObserver,
};
pub use reference::simulate_network_materialized;
pub use reference_stats::{ModeStats, ResponseStats, RingStats, TrrStats};
pub use sim::{
    simulate_network, simulate_network_observed, simulate_network_stats, simulate_network_traced,
    NetworkSimResult, NetworkSimStats, StreamObservation,
};
pub use trace::Trace;
