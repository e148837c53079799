//! Earliest-deadline-first schedulability analyses (paper §2.2).

pub mod batch;
pub mod busy_period;
pub mod demand;
pub mod feasibility_np;
pub(crate) mod qpa;
pub mod rta;
pub mod rta_np;
pub(crate) mod scan;
pub mod utilization;

pub use batch::{edf_feasibility_batch, DemandVariantSpec};
pub use busy_period::{nonpreemptive_busy_period, synchronous_busy_period};
pub use demand::{
    demand, edf_feasible_preemptive, edf_feasible_preemptive_exhaustive,
    edf_feasible_preemptive_exhaustive_with, edf_feasible_preemptive_with, DemandConfig,
    DemandFormula, Feasibility,
};
pub use feasibility_np::{
    edf_feasible_nonpreemptive, edf_feasible_nonpreemptive_exhaustive,
    edf_feasible_nonpreemptive_exhaustive_with, edf_feasible_nonpreemptive_with, NpBlockingModel,
    NpFeasibilityConfig,
};
pub use rta::{edf_response_times, edf_response_times_with, EdfRtaConfig, EdfWcrt};
pub use rta_np::{
    np_edf_response_times, np_edf_response_times_with, np_edf_rows_with, NpEdfRtaConfig,
};
pub use utilization::edf_utilization_test;
