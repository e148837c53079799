//! The self-contained load-test harness behind `profirt serve --selftest`.
//!
//! Drives the full queue → shards → memo pipeline in-process with a
//! workload-generator corpus shaped like the campaign matrix (many
//! near-duplicate ring queries across policies), in three phases:
//!
//! 1. **Latency** — paced clients, one request outstanding per client,
//!    recording per-request wall time → p50/p99.
//! 2. **Saturation** — more clients than queue slots, tight loop for a
//!    fixed window → throughput of correct (`"ok":true`) answers at
//!    saturation, with queue-full rejects and sheds counted apart (the
//!    backpressure path must actually fire, not just exist).
//! 3. **TCP** — a `ping` smoke test, then sequential round trips of
//!    corpus lines over one real socket to an ephemeral-port server,
//!    each answer checked byte for byte against [`proto::answer_line`]
//!    → socket round-trip p50/p99. The in-process phases never touch a
//!    socket, so only this one shows transport delays.
//!
//! Results land in `BENCH_serve.json` next to the other perf baselines
//! CI uploads (`BENCH_SERVE_JSON`, else `CARGO_TARGET_DIR`, else the
//! workspace `target/` — see [`profirt_base::artifact`]).

use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use profirt_base::artifact;
use profirt_base::json::{self, Value};
use profirt_base::Prng;
use profirt_conc::sync::Mutex;
use profirt_core::PolicyKind;
use profirt_profibus::BusParams;
use profirt_workload::{generate_network, generate_task_set, NetGenParams, TaskGenParams};

use crate::engine::{Engine, EngineConfig};
use crate::proto;
use crate::server::{Server, ServerConfig};

/// Harness knobs.
#[derive(Clone, Debug)]
pub struct SelftestConfig {
    /// Shrinks every phase for CI (sub-second total).
    pub quick: bool,
    /// Worker count for the engine under test.
    pub workers: usize,
    /// Output path override (`None` = [`artifact::bench_json_path`] for
    /// `BENCH_serve.json`).
    pub out_path: Option<String>,
}

impl Default for SelftestConfig {
    fn default() -> Self {
        SelftestConfig {
            quick: false,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            out_path: None,
        }
    }
}

/// What the harness measured; serialized to `BENCH_serve.json`.
#[derive(Clone, Debug)]
pub struct SelftestReport {
    /// Quick (CI) run or full measurement.
    pub quick: bool,
    /// Engine worker count.
    pub workers: usize,
    /// Injection-queue capacity used in the saturation phase.
    pub queue_cap: usize,
    /// Per-shard memo capacity.
    pub memo_cap: usize,
    /// Distinct request lines in the corpus.
    pub corpus: usize,
    /// Requests timed in the latency phase.
    pub latency_requests: usize,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Correct (`"ok":true`) answers per second with every client in a
    /// tight loop.
    pub saturation_req_per_s: f64,
    /// Correct answers produced during the saturation window.
    pub saturation_ok: u64,
    /// Queue-full rejections (`"overloaded"`) during the saturation window.
    pub rejected_full: u64,
    /// Sub-HI requests shed at a full queue during the saturation window.
    pub shed: u64,
    /// Memo cache hits across the whole run.
    pub memo_hits: u64,
    /// Memo cache misses across the whole run.
    pub memo_misses: u64,
    /// `memo_hits / (hits + misses)`.
    pub memo_hit_rate: f64,
    /// The TCP `ping` round trip succeeded.
    pub tcp_smoke_ok: bool,
    /// Sequential corpus round trips timed over the socket.
    pub tcp_round_trips: usize,
    /// Every TCP round trip got the byte-identical direct answer.
    pub tcp_round_trips_ok: bool,
    /// Median socket round-trip time, microseconds.
    pub tcp_p50_us: f64,
    /// 99th-percentile socket round-trip time, microseconds.
    pub tcp_p99_us: f64,
    /// Where the JSON artifact was written.
    pub out_path: String,
}

impl SelftestReport {
    /// The JSON artifact document.
    pub fn to_json(&self) -> Value {
        json::object([
            ("bench", Value::Str("serve".to_string())),
            ("smoke_run", Value::Bool(self.quick)),
            ("workers", Value::Int(self.workers as i64)),
            ("queue_cap", Value::Int(self.queue_cap as i64)),
            ("memo_cap", Value::Int(self.memo_cap as i64)),
            ("corpus", Value::Int(self.corpus as i64)),
            ("latency_requests", Value::Int(self.latency_requests as i64)),
            ("latency_p50_us", Value::Float(self.p50_us)),
            ("latency_p99_us", Value::Float(self.p99_us)),
            (
                "saturation_req_per_s",
                Value::Float(self.saturation_req_per_s),
            ),
            ("saturation_ok", Value::Int(self.saturation_ok as i64)),
            ("rejected_full", Value::Int(self.rejected_full as i64)),
            ("shed", Value::Int(self.shed as i64)),
            ("memo_hits", Value::Int(self.memo_hits as i64)),
            ("memo_misses", Value::Int(self.memo_misses as i64)),
            ("memo_hit_rate", Value::Float(self.memo_hit_rate)),
            ("tcp_smoke_ok", Value::Bool(self.tcp_smoke_ok)),
            ("tcp_round_trips", Value::Int(self.tcp_round_trips as i64)),
            ("tcp_round_trips_ok", Value::Bool(self.tcp_round_trips_ok)),
            ("tcp_p50_us", Value::Float(self.tcp_p50_us)),
            ("tcp_p99_us", Value::Float(self.tcp_p99_us)),
        ])
    }

    /// Human-readable summary for the CLI to print.
    pub fn summary(&self) -> String {
        format!(
            "serve selftest ({} mode): {} workers, corpus {}\n\
             latency: p50 {:.1} us, p99 {:.1} us over {} requests\n\
             saturation: {:.0} req/s ({} ok answers, {} queue-full rejects, {} shed)\n\
             memo: {} hits / {} misses (hit rate {:.2})\n\
             tcp smoke: {}\n\
             tcp round trips: p50 {:.1} us, p99 {:.1} us over {} requests, answers {}\n\
             wrote {}",
            if self.quick { "quick" } else { "full" },
            self.workers,
            self.corpus,
            self.p50_us,
            self.p99_us,
            self.latency_requests,
            self.saturation_req_per_s,
            self.saturation_ok,
            self.rejected_full,
            self.shed,
            self.memo_hits,
            self.memo_misses,
            self.memo_hit_rate,
            if self.tcp_smoke_ok { "ok" } else { "FAILED" },
            self.tcp_p50_us,
            self.tcp_p99_us,
            self.tcp_round_trips,
            if self.tcp_round_trips_ok {
                "ok"
            } else {
                "FAILED"
            },
            self.out_path,
        )
    }
}

/// Builds the campaign-matrix-shaped request corpus: generated rings
/// queried under every policy plus a few task-set tests — with the
/// policy sweep making each `"net"` payload recur, which is exactly the
/// near-duplicate pattern the memo exists for.
pub fn build_corpus(quick: bool) -> Result<Vec<String>, String> {
    let bus = BusParams::profile_500k();
    let seeds: u64 = if quick { 4 } else { 16 };
    let mut lines = Vec::new();
    for seed in 0..seeds {
        let params = NetGenParams::standard(0.8, 3, 2 + (seed % 2) as usize);
        let mut rng = Prng::seed_from_u64(0xC0FFEE ^ seed);
        let g = generate_network(&mut rng, &bus, &params).map_err(|e| e.to_string())?;
        let net = proto::net_to_value(&g.config);
        for policy in PolicyKind::ALL {
            for op in ["feasibility", "response_times"] {
                lines.push(
                    json::object([
                        ("op", Value::Str(op.to_string())),
                        ("policy", Value::Str(policy.name().to_string())),
                        ("net", net.clone()),
                    ])
                    .compact(),
                );
            }
        }
        // One admission probe per ring: re-offer a copy of master 0's
        // first stream.
        if let Some(s) = g.config.masters[0].streams.streams().first() {
            lines.push(
                json::object([
                    ("op", Value::Str("admit".to_string())),
                    ("policy", Value::Str("dm".to_string())),
                    ("net", net.clone()),
                    (
                        "stream",
                        json::object([
                            ("master", Value::Int(0)),
                            ("ch", Value::Int(s.ch.ticks())),
                            ("d", Value::Int(s.d.ticks())),
                            ("t", Value::Int(s.t.ticks())),
                            ("j", Value::Int(0)),
                        ]),
                    ),
                ])
                .compact(),
            );
        }
        // A couple of processor-side tests.
        let mut rng = Prng::seed_from_u64(0xBEEF ^ seed);
        let set = generate_task_set(&mut rng, &TaskGenParams::standard(4, 0.6))
            .map_err(|e| e.to_string())?;
        let tasks: Vec<Value> = set
            .tasks()
            .iter()
            .map(|t| {
                json::object([
                    ("c", Value::Int(t.c.ticks())),
                    ("d", Value::Int(t.d.ticks())),
                    ("t", Value::Int(t.t.ticks())),
                ])
            })
            .collect();
        for test in ["dm-rta", "edf-demand"] {
            lines.push(
                json::object([
                    ("op", Value::Str("task_feasibility".to_string())),
                    ("test", Value::Str(test.to_string())),
                    ("tasks", Value::Array(tasks.clone())),
                ])
                .compact(),
            );
        }
    }
    Ok(lines)
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1_000.0
}

/// Runs the harness and writes `BENCH_serve.json`.
pub fn run_selftest(cfg: &SelftestConfig) -> Result<SelftestReport, String> {
    let workers = cfg.workers.max(1);
    // Queue deliberately shallower than the saturation client count so
    // the backpressure path is exercised, not just compiled.
    let queue_cap = workers.max(2);
    let memo_cap = 256;
    let engine = Engine::start(EngineConfig {
        workers,
        queue_cap,
        memo_cap,
        max_request_bytes: proto::DEFAULT_MAX_REQUEST_BYTES,
    })
    .map_err(|e| format!("cannot start engine: {e}"))?;

    let corpus = build_corpus(cfg.quick)?;
    if corpus.is_empty() {
        return Err("empty selftest corpus".to_string());
    }

    // Phase 1: paced latency. Each client walks the corpus at a fixed
    // offset (duplicated visits exercise the memo) with one request
    // outstanding and a short pause between sends.
    let per_client = if cfg.quick { 40 } else { 400 };
    let pace = Duration::from_micros(200);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..workers {
            let (engine, corpus, latencies) = (&engine, &corpus, &latencies);
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let line = &corpus[(c * 7 + i) % corpus.len()];
                    let start = Instant::now();
                    let _ = engine.handle(line);
                    mine.push(start.elapsed().as_nanos() as u64);
                    std::thread::sleep(pace);
                }
                latencies
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend(mine);
            });
        }
    });
    let mut all = latencies
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    all.sort_unstable();
    let p50_us = percentile_us(&all, 0.50);
    let p99_us = percentile_us(&all, 0.99);
    let latency_requests = all.len();

    // Phase 2: saturation. 4x more clients than queue slots, tight loop
    // for a fixed window; throughput is correct answers per second, and
    // the stats delta shows how often the queue pushed back instead.
    let before = engine.stats();
    let window = if cfg.quick {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1_500)
    };
    let answered = Mutex::new(0u64);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..(queue_cap * 4) {
            let (engine, corpus, answered) = (&engine, &corpus, &answered);
            scope.spawn(move || {
                let mut n = 0u64;
                let mut i = c * 13;
                while start.elapsed() < window {
                    // Every corpus line is answerable, so anything but
                    // "ok":true is a refusal the stats count.
                    if engine
                        .handle(&corpus[i % corpus.len()])
                        .contains("\"ok\":true")
                    {
                        n += 1;
                    }
                    i += 1;
                }
                *answered
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()) += n;
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let saturation_ok = *answered
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let after = engine.stats();
    engine.shutdown();

    // Phase 3: TCP — smoke ping, then timed corpus round trips.
    let tcp = tcp_phase(workers, &corpus).unwrap_or_default();
    let mut rtt = tcp.rtt_ns;
    rtt.sort_unstable();

    let out_path = cfg.out_path.clone().unwrap_or_else(|| {
        artifact::bench_json_path("BENCH_SERVE_JSON", "BENCH_serve.json")
            .display()
            .to_string()
    });
    let report = SelftestReport {
        quick: cfg.quick,
        workers,
        queue_cap,
        memo_cap,
        corpus: corpus.len(),
        latency_requests,
        p50_us,
        p99_us,
        saturation_req_per_s: saturation_ok as f64 / elapsed.max(1e-9),
        saturation_ok,
        rejected_full: after.rejected_full - before.rejected_full,
        shed: after.shed - before.shed,
        memo_hits: after.memo_hits,
        memo_misses: after.memo_misses,
        memo_hit_rate: after.hit_rate(),
        tcp_smoke_ok: tcp.smoke_ok,
        tcp_round_trips: rtt.len(),
        tcp_round_trips_ok: tcp.round_trips_ok,
        tcp_p50_us: percentile_us(&rtt, 0.50),
        tcp_p99_us: percentile_us(&rtt, 0.99),
        out_path: out_path.clone(),
    };
    std::fs::write(&out_path, report.to_json().pretty() + "\n")
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(report)
}

/// Sequential corpus round trips the TCP phase times.
const TCP_ROUND_TRIPS: usize = 200;

/// What the TCP phase observed; an I/O error leaves every check false.
#[derive(Default)]
struct TcpPhase {
    smoke_ok: bool,
    round_trips_ok: bool,
    rtt_ns: Vec<u64>,
}

fn tcp_phase(workers: usize, corpus: &[String]) -> io::Result<TcpPhase> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers,
            queue_cap: 32,
            memo_cap: 16,
            max_request_bytes: proto::DEFAULT_MAX_REQUEST_BYTES,
        },
    })?;
    // Dropping the server at the end shuts it down.
    tcp_client(server.local_addr(), corpus)
}

/// One plain client on one connection: one request outstanding at a
/// time, each answer compared with the direct evaluation.
fn tcp_client(addr: SocketAddr, corpus: &[String]) -> io::Result<TcpPhase> {
    let mut writer = TcpStream::connect(addr)?;
    writer.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(writer.try_clone()?);
    let mut round_trip = |line: &str| -> io::Result<String> {
        writer.write_all(format!("{line}\n").as_bytes())?;
        let mut resp = String::new();
        reader.read_line(&mut resp)?;
        Ok(resp.strip_suffix('\n').unwrap_or(&resp).to_string())
    };
    let smoke_ok = round_trip("{\"op\":\"ping\",\"id\":\"smoke\"}")?.contains("\"pong\":true");
    let mut round_trips_ok = true;
    let mut rtt_ns = Vec::with_capacity(TCP_ROUND_TRIPS);
    for line in corpus.iter().cycle().take(TCP_ROUND_TRIPS) {
        let expected = proto::answer_line(line);
        let start = Instant::now();
        let served = round_trip(line)?;
        rtt_ns.push(start.elapsed().as_nanos() as u64);
        round_trips_ok &= served == expected;
    }
    Ok(TcpPhase {
        smoke_ok,
        round_trips_ok,
        rtt_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_valid_and_answerable() {
        let corpus = build_corpus(true).unwrap();
        assert!(corpus.len() >= 20, "corpus too small: {}", corpus.len());
        for line in &corpus {
            let resp = proto::answer_line(line);
            let doc = json::parse(&resp).unwrap();
            assert_eq!(
                doc.get("ok").and_then(Value::as_bool),
                Some(true),
                "corpus line must be answerable: {line} -> {resp}"
            );
        }
    }

    #[test]
    fn quick_selftest_produces_artifact() {
        let tmp = std::env::temp_dir().join("profirt_selftest_test.json");
        let report = run_selftest(&SelftestConfig {
            quick: true,
            workers: 2,
            out_path: Some(tmp.to_string_lossy().to_string()),
        })
        .unwrap();
        assert!(report.latency_requests > 0);
        assert!(report.saturation_ok > 0);
        assert!(report.p50_us > 0.0 && report.p99_us >= report.p50_us);
        assert!(report.memo_hits > 0, "duplicated corpus must hit the memo");
        assert!(report.tcp_smoke_ok);
        assert!(report.tcp_round_trips_ok);
        assert_eq!(report.tcp_round_trips, TCP_ROUND_TRIPS);
        assert!(report.tcp_p50_us > 0.0 && report.tcp_p99_us >= report.tcp_p50_us);
        let text = std::fs::read_to_string(&tmp).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("bench").unwrap().as_str(), Some("serve"));
        assert!(doc.get("latency_p99_us").unwrap().as_f64().is_some());
        assert!(doc.get("tcp_p99_us").unwrap().as_f64().is_some());
        assert_eq!(doc.get("shed").unwrap().as_i64(), Some(report.shed as i64));
        let _ = std::fs::remove_file(&tmp);
    }
}
