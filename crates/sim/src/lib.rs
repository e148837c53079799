//! # profirt-sim — streaming discrete-event simulators
//!
//! Empirical counterparts of every analytical bound in the workspace:
//!
//! * [`cpu`] — a single-processor task-scheduling simulator supporting the
//!   four dispatching disciplines of the paper's §2 (fixed-priority and EDF,
//!   preemptive and non-preemptive). Used to validate the `profirt-sched`
//!   analyses: observed response times must never exceed the analytical
//!   worst cases.
//! * [`network`] — a PROFIBUS network simulator that executes the timed-
//!   token algorithm printed in the paper's §3.1 **verbatim**: `TRR`
//!   measurement, `TTH = TTR − TRR`, one guaranteed high-priority message
//!   cycle on a late token, `TTH`-overrun (timer checked only at cycle
//!   start), low-priority traffic only on residual `TTH`, token passing in
//!   ring order. Masters can run stock FCFS queues or the §4 architecture
//!   (priority AP queue + single-slot stack queue), so the FCFS/DM/EDF
//!   bounds of `profirt-core` can all be checked against observation.
//! * [`engine`] — the shared DES toolkit: deterministic event queue,
//!   seeded RNG, and the observer pipeline ([`Observer`],
//!   [`TickHistogram`]).
//!
//! Both simulators are **streaming kernels**: releases come from lazy
//! per-source generators (`profirt_base::release` /
//! `profirt_workload::releases`) merged on demand, so memory is
//! O(sources) at any horizon, and every run emits a typed event stream
//! into pluggable observers — result assembly, bounded tracing, and
//! constant-memory response/TRR percentile statistics are all observers.
//! The pre-materialized implementations are retained under
//! `network::reference` / `cpu::reference` as differential-test and
//! benchmark baselines.
//!
//! Simulation produces **lower bounds** on true worst cases: the validation
//! contract is `observed ≤ analytical` everywhere, plus tightness ratios
//! (the campaigns' `sim_worst_ratio` column, e.g. of the `f6` preset).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod engine;
pub mod network;

pub use cpu::{
    simulate_cpu, simulate_cpu_materialized, simulate_cpu_stats, CpuEvent, CpuPolicy, CpuSimConfig,
    CpuSimResult,
};
pub use engine::{EventQueue, HistSummary, Observer, SimRng, TickHistogram};
pub use network::{
    simulate_network, simulate_network_materialized, simulate_network_observed,
    simulate_network_stats, simulate_network_traced, JitterInjection, KernelMemStats,
    MembershipAction, MembershipEvent, MembershipPlan, ModeController, ModeSimConfig, ModeStats,
    ModeSummary, ModeTransition, NetEvent, NetStats, NetworkSimConfig, NetworkSimResult,
    NetworkSimStats, OffsetMode, ResponseStats, ResultObserver, RingStats, RingSummary, SimMaster,
    SimNetwork, SimNetworkError, StableResponseObserver, Trace, TrrStats,
};
