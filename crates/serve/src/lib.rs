//! # profirt_serve — feasibility as a service
//!
//! The paper's schedulability analyses answer exactly the question an
//! online admission controller must ask: *can this message stream join
//! this ring without breaking any deadline?* This crate turns those
//! analyses into a long-running daemon (`profirt serve`) speaking a
//! line-delimited JSON protocol over TCP or stdin.
//!
//! The layering, request to response:
//!
//! 1. [`server`] — TCP acceptor / stdin driver. Reads one request per
//!    line with a hard byte cap (oversized lines get a structured error,
//!    the connection survives), writes one response per line, each in a
//!    single write on a `TCP_NODELAY` socket.
//! 2. [`engine`] — the concurrency story. Requests flow through the
//!    bounded injection queue of the model-checked
//!    [`profirt_conc::exec::Core`] executor onto sharded workers;
//!    saturation surfaces as explicit backpressure
//!    ([`profirt_conc::exec::Reject::Full`] → an `"overloaded"` error)
//!    rather than an unbounded buffer. Each shard owns reusable analysis
//!    scratch and a bounded LRU memo keyed by the decoded question, so
//!    repeated queries (the campaign-matrix access pattern) hit cache.
//! 3. [`proto`] — the pure request/response layer: parsing, evaluation
//!    through [`profirt_core::PolicyKind`] dispatch and the
//!    `profirt_sched` task-set tests, and canonical rendering. The
//!    engine is a scheduler around this function; byte-for-byte it
//!    answers exactly what a direct library call answers (the
//!    differential tests pin this).
//! 4. [`selftest`] — a self-contained load harness
//!    (`profirt serve --selftest`) recording in-process p50/p99 latency,
//!    saturation throughput of correct answers, queue-full rejects and
//!    sheds, memo hit rate, and socket round-trip p50/p99 into
//!    `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod memo;
pub mod proto;
pub mod selftest;
pub mod server;

pub use engine::{Engine, EngineConfig};
pub use proto::{answer_line, Request, WireError, DEFAULT_MAX_REQUEST_BYTES};
pub use selftest::{run_selftest, SelftestConfig, SelftestReport};
pub use server::{serve_stream, Server, ServerConfig};
