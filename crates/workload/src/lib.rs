//! # profirt-workload — seeded synthetic workload generators
//!
//! The evaluation inputs of the campaign presets: random task sets for
//! the §2 analyses and random PROFIBUS networks (stream sets, payloads,
//! low-priority traffic) for the §3–§4 analyses. All generation is driven
//! by [`profirt_base::Prng`], so every experiment is reproducible from its
//! seed.
//!
//! * [`uunifast`](crate::uunifast()) — the UUniFast algorithm (Bini & Buttazzo) for unbiased
//!   utilisation vectors.
//! * [`periods`] — log-uniform period sampling (the standard choice to
//!   spread periods across magnitudes), with optional granularity rounding.
//! * [`taskgen`] — full task-set generation (periods × utilisations →
//!   integer costs, deadline policies).
//! * [`streamgen`] — PROFIBUS stream-set generation: payload sizes priced
//!   into message-cycle times through the DIN 19245 timing model.
//! * [`netgen`] — whole-network generation: masters, streams, low-priority
//!   traffic, producing the analysis view ([`profirt_core::NetworkConfig`])
//!   and the matching simulation view in one shot.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod netgen;
pub mod periods;
pub mod releases;
pub mod streamgen;
pub mod taskgen;
pub mod uunifast;

pub use netgen::{generate_network, CriticalityMix, GeneratedNetwork, NetGenParams};
pub use periods::{log_uniform_period, PeriodRange};
pub use releases::{
    low_priority_release_gens, stream_release_gens, task_release_gens, LowPriorityReleases,
    StreamReleases, TaskRelease, TaskReleases,
};
pub use streamgen::{generate_stream_set, StreamGenParams};
pub use taskgen::{generate_task_set, DeadlinePolicy, TaskGenParams};
pub use uunifast::uunifast;
