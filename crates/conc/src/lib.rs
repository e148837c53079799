//! # profirt_conc — the concurrency substrate
//!
//! Every correctness guarantee this workspace ships (the
//! `observed ≤ analytical` contract, the differential proptests pinning
//! fast paths to references, the response-time bounds themselves) is only
//! as trustworthy as the concurrency primitives underneath it. This crate
//! makes concurrent code *provable* here:
//!
//! * [`sync`] — a facade over `std::sync`. In normal builds it is a
//!   zero-cost `pub use std::sync::*` (identical types, identical
//!   codegen). Under the test-only `model` cargo feature it swaps to
//!   instrumented shims whose every acquire / wait / notify / load /
//!   store is a scheduling point driven by the explorer.
//! * `model` *(feature `model`)* — a mini-[loom]: a cooperative
//!   explorer that reruns a closure under many thread interleavings via
//!   iterative bounded-preemption DFS (plus a seedable random tail),
//!   detecting deadlocks, lost wakeups, and assertion failures, and
//!   printing the full schedule trace for replay.
//! * [`exec`] — the work-stealing executor core: sharded per-worker
//!   deques with steal-from-random-victim, park/unpark through the
//!   facade's condvar, and a bounded injection queue with a backpressure
//!   error. Its join/steal/park protocol passes the model checker at
//!   2–3 threads (see `tests/exec_model.rs`).
//! * [`oneshot`] — a one-shot reply slot (one value, one sender, one
//!   receiver) on the facade's mutex and condvar; the serve engine's
//!   per-request reply.
//!
//! The crate is pure `std`, `#![forbid(unsafe_code)]`, and has no
//! dependencies.
//!
//! [loom]: https://github.com/tokio-rs/loom
//!
//! ## Which mode am I in?
//!
//! ```text
//! cargo test -p profirt_conc                   # std sync, real threads
//! cargo test -p profirt_conc --features model  # shims + explorer
//! ```
//!
//! Code routed through the facade (the one-shot reply slot, the
//! experiment runner's slot/failure mutexes, the executor core) compiles
//! identically in both modes; only the `model`-gated test suites observe
//! the shims.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod exec;
pub mod oneshot;
pub(crate) mod rng;

#[cfg(feature = "model")]
pub mod model;

/// The sync facade: `std::sync` in normal builds, instrumented shims
/// under the `model` feature.
///
/// Code that must be model-checkable imports *only* from here (enforced
/// by `profirt-lint`'s `sync-facade` rule): `Arc`, `Mutex`, `Condvar`,
/// and `atomic::{AtomicBool, AtomicUsize, AtomicU64, Ordering}` keep
/// their `std` API surface in both modes.
#[cfg(not(feature = "model"))]
pub mod sync {
    pub use std::sync::{
        Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, WaitTimeoutResult,
    };

    /// Atomic types with the `std` API.
    pub mod atomic {
        pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }
}

/// The sync facade (model mode): instrumented shims driven by the
/// [`model`] explorer. Every operation is a scheduling point; see the
/// module docs on [`model`] for the exploration semantics.
#[cfg(feature = "model")]
pub mod sync {
    pub use crate::model::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
    pub use std::sync::Arc;

    /// Instrumented atomics (every load/store/rmw is a scheduling point).
    pub mod atomic {
        pub use crate::model::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }
}
