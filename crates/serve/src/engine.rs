//! The serving engine: bounded injection queue → sharded workers, each
//! with warm analysis scratch and a bounded LRU memo.
//!
//! Requests enter through [`Engine::handle`], which injects a job into
//! the model-checked [`Core`] executor's bounded queue and blocks on a
//! per-request one-shot reply slot. Saturation is explicit: a full queue comes
//! back as [`Reject::Full`] and is answered with an `"overloaded"` error
//! (the caller sheds load or retries), never an unbounded buffer. After
//! [`Engine::shutdown`] the queue answers `"closed"`, and — the
//! executor's model-checked guarantee — every job accepted before the
//! close is still drained and answered.
//!
//! Each worker thread owns its shard state: a [`proto::EvalScratch`]
//! (reused allocations across analyses; never affects results) and a
//! [`Memo`] keyed by the decoded question ([`proto::Request::key`]). A memo
//! hit re-wraps the cached result value in a fresh envelope with the
//! request's own `id`, so responses are byte-identical with the cache on
//! or off.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use profirt_base::json::{self, Value};
use profirt_conc::exec::{Core, CoreConfig, Reject};
use profirt_conc::oneshot;
use profirt_conc::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use profirt_conc::sync::{Arc, Mutex};
use profirt_core::PolicyTuning;

use crate::memo::Memo;
use crate::proto::{self, Op};

/// Engine shape: shard count, queue bound, memo capacity, line cap.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Worker (= shard) count; clamped to at least 1.
    pub workers: usize,
    /// Bounded injection-queue capacity; beyond it requests are rejected
    /// with an `"overloaded"` error.
    pub queue_cap: usize,
    /// Per-shard memo capacity (0 disables caching).
    pub memo_cap: usize,
    /// Hard cap on one request line, in bytes.
    pub max_request_bytes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2),
            queue_cap: 256,
            memo_cap: 256,
            max_request_bytes: proto::DEFAULT_MAX_REQUEST_BYTES,
        }
    }
}

/// One queued request: the raw line plus its reply slot.
struct Job {
    line: String,
    reply: oneshot::Sender<String>,
}

/// Monotone engine counters, readable via the `stats` op and
/// [`Engine::stats`].
#[derive(Debug, Default)]
struct Stats {
    served: AtomicU64,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    rejected_full: AtomicU64,
    rejected_closed: AtomicU64,
    shed: AtomicU64,
    wire_errors: AtomicU64,
    oversized: AtomicU64,
}

/// A point-in-time copy of the engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests answered by a worker (including error envelopes).
    pub served: u64,
    /// Memo cache hits.
    pub memo_hits: u64,
    /// Memo cache misses (evaluations run).
    pub memo_misses: u64,
    /// HI (or unlabelled) requests refused because the injection queue
    /// was full — answered `"overloaded"`.
    pub rejected_full: u64,
    /// Requests refused after shutdown.
    pub rejected_closed: u64,
    /// Sub-HI requests dropped first at a full queue — answered
    /// `"shed"`. Counted separately from `rejected_full` so overload
    /// telemetry distinguishes graceful degradation from hard refusal.
    pub shed: u64,
    /// Requests answered with a wire-level error envelope.
    pub wire_errors: u64,
    /// Lines refused for exceeding the byte cap.
    pub oversized: u64,
}

impl StatsSnapshot {
    /// Memo hit rate over all memoizable lookups (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

struct Inner {
    core: Core<Job>,
    stats: Stats,
    memo_cap: usize,
}

/// The running engine: a bounded queue in front of sharded workers.
pub struct Engine {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    shut: AtomicBool,
    workers: usize,
    queue_cap: usize,
    max_request_bytes: usize,
}

impl Engine {
    /// Starts the worker threads and returns the ready engine.
    pub fn start(cfg: EngineConfig) -> std::io::Result<Engine> {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            core: Core::new(CoreConfig {
                workers,
                queue_cap: cfg.queue_cap,
                ..CoreConfig::default()
            }),
            stats: Stats::default(),
            memo_cap: cfg.memo_cap,
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            let handle = std::thread::Builder::new()
                .name(format!("serve-shard-{w}"))
                .spawn(move || shard_loop(&inner, w))?;
            handles.push(handle);
        }
        Ok(Engine {
            inner,
            handles: Mutex::new(handles),
            shut: AtomicBool::new(false),
            workers,
            queue_cap: cfg.queue_cap,
            max_request_bytes: cfg.max_request_bytes,
        })
    }

    /// The request byte cap this engine enforces.
    pub fn max_request_bytes(&self) -> usize {
        self.max_request_bytes
    }

    /// Number of shard workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Capacity of the bounded injection queue.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Answers one request line, blocking until a shard replies. Always
    /// returns a complete single-line response — backpressure and
    /// shutdown come back as structured errors, not silence.
    pub fn handle(&self, line: &str) -> String {
        if line.len() > self.max_request_bytes {
            self.inner.stats.oversized.fetch_add(1, Ordering::SeqCst);
            return proto::oversized_response(line.len(), self.max_request_bytes);
        }
        let (tx, rx) = oneshot::channel();
        match self.inner.core.inject(Job {
            line: line.to_string(),
            reply: tx,
        }) {
            Ok(()) => match rx.recv() {
                Ok(resp) => resp,
                // The worker dropped the reply slot without answering:
                // only possible if its thread died mid-request.
                Err(_) => proto::reject_response(line, "internal", "worker lost"),
            },
            Err(Reject::Full(job)) => {
                // Graceful degradation mirrors the sim's mode machine:
                // at a full queue, requests declaring sub-HI criticality
                // are shed first; everything else is told "overloaded"
                // with a queue-depth-derived retry hint.
                let sub_hi =
                    proto::declared_criticality(&job.line).is_some_and(|c| c.shed_in_hi_mode());
                let (kind, counter) = if sub_hi {
                    ("shed", &self.inner.stats.shed)
                } else {
                    ("overloaded", &self.inner.stats.rejected_full)
                };
                counter.fetch_add(1, Ordering::SeqCst);
                proto::overload_response(&job.line, kind, self.queue_cap, self.workers)
            }
            Err(Reject::Closed(job)) => {
                self.inner
                    .stats
                    .rejected_closed
                    .fetch_add(1, Ordering::SeqCst);
                proto::reject_response(&job.line, "closed", "engine is shut down")
            }
        }
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        let s = &self.inner.stats;
        StatsSnapshot {
            served: s.served.load(Ordering::SeqCst),
            memo_hits: s.memo_hits.load(Ordering::SeqCst),
            memo_misses: s.memo_misses.load(Ordering::SeqCst),
            rejected_full: s.rejected_full.load(Ordering::SeqCst),
            rejected_closed: s.rejected_closed.load(Ordering::SeqCst),
            shed: s.shed.load(Ordering::SeqCst),
            wire_errors: s.wire_errors.load(Ordering::SeqCst),
            oversized: s.oversized.load(Ordering::SeqCst),
        }
    }

    /// Graceful shutdown: stop accepting, drain everything already
    /// queued (each queued request still gets its answer), join the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::SeqCst) {
            return;
        }
        self.inner.core.close();
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self
                .handles
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::take(&mut *guard)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker thread: mounts the executor's worker loop with this
/// shard's private scratch and memo.
fn shard_loop(inner: &Inner, w: usize) {
    let mut scratch = proto::EvalScratch::default();
    let mut memo = Memo::new(inner.memo_cap);
    let tuning = PolicyTuning::default();
    inner.core.run_worker(w, |job: Job| {
        let resp = catch_unwind(AssertUnwindSafe(|| {
            serve_one(inner, &job.line, &tuning, &mut scratch, &mut memo)
        }))
        .unwrap_or_else(|_| {
            proto::reject_response(&job.line, "internal", "request evaluation panicked")
        });
        inner.stats.served.fetch_add(1, Ordering::SeqCst);
        // If the requester gave up (dropped the receiver), the answer
        // is simply discarded.
        job.reply.send(resp);
    });
}

/// Evaluates one request on a shard: memo lookup for cacheable ops, the
/// pure [`proto`] path on miss, engine counters for `stats`.
fn serve_one(
    inner: &Inner,
    line: &str,
    tuning: &PolicyTuning,
    scratch: &mut proto::EvalScratch,
    memo: &mut Memo,
) -> String {
    let req = match proto::parse_request(line) {
        Ok(req) => req,
        Err(re) => {
            inner.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
            return proto::err_envelope(&re.id, &re.err).compact();
        }
    };
    match &req.op {
        Op::Stats => {
            let snapshot = snapshot_value(inner);
            proto::ok_envelope(&req.id, "stats", snapshot).compact()
        }
        Op::Ping => match proto::eval(&req, tuning, scratch) {
            Ok(result) => proto::ok_envelope(&req.id, req.op.name(), result).compact(),
            Err(err) => proto::err_envelope(&req.id, &err).compact(),
        },
        _ => {
            if let Some(result) = memo.get(&req.key) {
                inner.stats.memo_hits.fetch_add(1, Ordering::SeqCst);
                return proto::ok_envelope(&req.id, req.op.name(), result).compact();
            }
            inner.stats.memo_misses.fetch_add(1, Ordering::SeqCst);
            match proto::eval(&req, tuning, scratch) {
                Ok(result) => {
                    memo.put(&req.key, result.clone());
                    proto::ok_envelope(&req.id, req.op.name(), result).compact()
                }
                Err(err) => {
                    inner.stats.wire_errors.fetch_add(1, Ordering::SeqCst);
                    proto::err_envelope(&req.id, &err).compact()
                }
            }
        }
    }
}

fn snapshot_value(inner: &Inner) -> Value {
    let s = &inner.stats;
    json::object([
        ("served", Value::Int(s.served.load(Ordering::SeqCst) as i64)),
        (
            "memo_hits",
            Value::Int(s.memo_hits.load(Ordering::SeqCst) as i64),
        ),
        (
            "memo_misses",
            Value::Int(s.memo_misses.load(Ordering::SeqCst) as i64),
        ),
        (
            "rejected_full",
            Value::Int(s.rejected_full.load(Ordering::SeqCst) as i64),
        ),
        (
            "rejected_closed",
            Value::Int(s.rejected_closed.load(Ordering::SeqCst) as i64),
        ),
        ("shed", Value::Int(s.shed.load(Ordering::SeqCst) as i64)),
        (
            "wire_errors",
            Value::Int(s.wire_errors.load(Ordering::SeqCst) as i64),
        ),
        (
            "oversized",
            Value::Int(s.oversized.load(Ordering::SeqCst) as i64),
        ),
        ("workers", Value::Int(inner.core.workers() as i64)),
        ("memo_cap", Value::Int(inner.memo_cap as i64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(workers: usize, memo_cap: usize) -> Engine {
        Engine::start(EngineConfig {
            workers,
            queue_cap: 64,
            memo_cap,
            max_request_bytes: 4096,
        })
        .unwrap()
    }

    const LINE: &str = r#"{"op":"feasibility","policy":"dm","net":{"ttr":2000,"masters":[{"streams":[{"ch":300,"d":30000,"t":30000}]}]}}"#;

    #[test]
    fn engine_matches_pure_path() {
        let e = engine(2, 16);
        assert_eq!(e.handle(LINE), proto::answer_line(LINE));
        e.shutdown();
    }

    #[test]
    fn memo_hits_on_duplicates() {
        let e = engine(1, 16);
        let first = e.handle(LINE);
        let second = e.handle(LINE);
        assert_eq!(first, second);
        let s = e.stats();
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.memo_misses, 1);
        e.shutdown();
    }

    #[test]
    fn oversized_lines_get_structured_error() {
        let e = engine(1, 0);
        let big = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(8192));
        let resp = e.handle(&big);
        assert!(resp.contains("\"oversized\""), "{resp}");
        assert_eq!(e.stats().oversized, 1);
        e.shutdown();
    }

    #[test]
    fn closed_engine_rejects_with_id() {
        let e = engine(1, 0);
        e.shutdown();
        let resp = e.handle(r#"{"op":"ping","id":42}"#);
        assert!(resp.contains("\"closed\""), "{resp}");
        assert!(resp.contains("\"id\":42"), "{resp}");
    }

    #[test]
    fn stats_op_reports_counters() {
        let e = engine(1, 16);
        let _ = e.handle(LINE);
        let resp = e.handle(r#"{"op":"stats","id":"s"}"#);
        let doc = profirt_base::json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let result = doc.get("result").unwrap();
        assert!(result.get("served").unwrap().as_i64().unwrap() >= 1);
        assert_eq!(result.get("workers").unwrap().as_i64(), Some(1));
        e.shutdown();
    }
}
