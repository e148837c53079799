//! # profirt-base
//!
//! Foundational types shared by every `profirt` crate:
//!
//! * [`Time`] — an exact, signed, integer *tick* count. All schedulability
//!   analyses in this workspace are integer fixpoints; floating point is
//!   banned from every feasibility decision. A tick is an abstract unit; the
//!   PROFIBUS crates conventionally map one tick to one *bit time*
//!   (`1 / baud_rate` seconds), which keeps every DIN 19245 timing parameter
//!   exactly representable.
//! * [`cmp_utilization_one`] — the exact comparison `Σ Ci/Ti ⋚ 1` behind
//!   every EDF test, for any rows an `i64` can hold; [`Frac`] — an exact
//!   rational built on `i128`, for utilisation values (`Σ Ci/Ti` vs. a
//!   bound) without rounding.
//! * [`Task`] / [`TaskSet`] — the single-processor task model of the paper's
//!   §2 (`Ci`, `Di`, `Ti`, plus release jitter `Ji` for the §4.1 extension).
//! * [`MessageStream`] / [`StreamSet`] — the PROFIBUS message-stream model of
//!   §3.2 (`Chi`, `Dhi`, `Thi`, `Ji`).
//! * [`Criticality`] — LO/MID/HI levels for the mixed-criticality overload
//!   modes (absent ⇒ HI, so plain workloads are unchanged).
//! * Error types for every analysis (divergent fixpoints, invalid models,
//!   arithmetic overflow) — analyses return `Result`, they never panic on
//!   user input.
//! * [`json`] — a dependency-free JSON parser / pretty printer shared by
//!   the CLI config files and the campaign engine.
//! * [`hash`] — FNV-1a 64, a stable hash whose values may be stored and
//!   compared across runs (std's `DefaultHasher` is keyed per process).
//! * [`artifact`] — where the perf-baseline `BENCH_*.json` files are
//!   written and read (override variable, then `CARGO_TARGET_DIR`, then
//!   the workspace `target/`).
//!
//! The crate is `#![forbid(unsafe_code)]` and dependency-light by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod bignat;
pub mod criticality;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod num;
pub mod priority;
pub mod release;
pub mod rng;
pub mod stream;
pub mod task;
pub mod time;
pub mod utilization;

pub use bignat::BigNat;
pub use criticality::Criticality;
pub use error::{AnalysisError, AnalysisResult, ModelError};
pub use ids::{check_address_plan, AddressPlan, AddressPlanError, MasterAddr, StreamId, TaskId};
pub use num::{ceil_div, floor_div, gcd, lcm, Frac};
pub use priority::Priority;
pub use release::{JitterMode, MergedReleases, OffsetMode, PeriodicReleases, ReleaseGen};
pub use rng::Prng;
pub use stream::{MessageStream, StreamSet};
pub use task::{Task, TaskSet};
pub use time::Time;
pub use utilization::cmp_utilization_one;
