//! `serve_open_loop`: `serve::Server` on loopback with 2 engine workers,
//! driven open-loop by one generator thread over 2 TCP connections.
//!
//! Operation: one request line. Lines are sent on a fixed schedule and
//! each is timed from its due send time, so a stall also delays the
//! requests queued behind it. Every response must be byte-identical to
//! `proto::answer_line` of the same line, computed before the run; any
//! other answer (`overloaded`, `shed`, `closed`, `internal`, or a wrong
//! result) is a failed operation and counts as beyond every latency
//! limit. Failures never count as throughput.
//!
//! Throughput (`units_per_s`) is the request path's capacity on one core:
//! the stream replayed on one thread through `parse_request` → `Memo` →
//! `eval` → render, the path each engine shard runs, between the open-loop
//! rounds. Saturating the server over its sockets instead swung from 20k
//! to 50k answers/s between bursts of one run on a shared 2-vCPU host, so
//! it could not resolve a change in the server.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use profirt_base::json::{self, Value};
use profirt_base::Prng;
use profirt_core::{PolicyKind, PolicyTuning};
use profirt_serve::memo::Memo;
use profirt_serve::proto::{self, EvalScratch, Op};
use profirt_serve::{EngineConfig, Server, ServerConfig};
use profirt_workload::{generate_task_set, NetGenParams, TaskGenParams};

use crate::common::{
    median, mix, percentile, secs, time_setup, EndToEnd, HostSpeed, Outcome, RunOpts, Tracer,
    SETUP_SAMPLES, TRACE_ROUNDS,
};
use crate::simulate::gen_network;

/// Engine shard workers.
const ENGINE_WORKERS: usize = 2;
/// Per-shard memo capacity (the engine default).
const MEMO_CAP: usize = 256;
/// Bounded injection-queue capacity (the engine default).
const QUEUE_CAP: usize = 256;
/// TCP connections the generator spreads lines over.
const CONNECTIONS: usize = 2;
/// Lines in the request stream; the stream repeats after this many.
const STREAM_LEN: usize = 2048;

/// The fixed low offered rate (requests/s) of `latency_*_ms`.
pub const R_LO: f64 = 2_000.0;
/// The fixed higher offered rate (requests/s) of `latency_*_ms.hi`.
pub const R_HI: f64 = 5_000.0;

/// A failed or refused request: beyond every latency limit.
const FAILED: f64 = f64::INFINITY;

/// The request stream: lines with unique ids, about half repeating an
/// earlier request (same question, new id), plus each line's expected
/// answer.
struct Stream {
    lines: Vec<String>,
    /// `lines` with the terminating newline, as sent.
    wire: Vec<String>,
    expected: Vec<String>,
}

fn policy_name(k: usize) -> &'static str {
    PolicyKind::ALL[k % PolicyKind::ALL.len()].name()
}

/// The distinct questions (request objects without an id).
fn question_pool(seed: u64) -> Result<Vec<Vec<(&'static str, Value)>>, String> {
    let mut pool = Vec::new();
    for k in 0..48u64 {
        let params = NetGenParams::standard(
            0.5 + 0.1 * (k % 5) as f64,
            2 + (k % 3) as usize,
            2 + (k % 4) as usize,
        );
        let g = gen_network(mix(seed, 0x5E + k), &params)?;
        let net = proto::net_to_value(&g.config);
        for p in 0..PolicyKind::ALL.len() {
            for op in ["feasibility", "response_times"] {
                pool.push(vec![
                    ("op", Value::Str(op.to_string())),
                    ("policy", Value::Str(policy_name(p).to_string())),
                    ("net", net.clone()),
                ]);
            }
        }
        // Admission probes: re-offer master 0's first stream, some with a
        // declared criticality.
        if let Some(s) = g.config.masters[0].streams.streams().first() {
            for (j, crit) in [None, Some("lo"), Some("hi")].into_iter().enumerate() {
                let mut stream = vec![
                    ("master", Value::Int(0)),
                    ("ch", Value::Int(s.ch.ticks())),
                    ("d", Value::Int(s.d.ticks())),
                    ("t", Value::Int(s.t.ticks())),
                ];
                if let Some(c) = crit {
                    stream.push(("criticality", Value::Str(c.to_string())));
                }
                pool.push(vec![
                    ("op", Value::Str("admit".to_string())),
                    (
                        "policy",
                        Value::Str(policy_name(k as usize + j).to_string()),
                    ),
                    ("net", net.clone()),
                    ("stream", json::object(stream)),
                ]);
            }
        }
    }
    for k in 0..24u64 {
        let mut rng = Prng::seed_from_u64(mix(seed, 0x7A5C + k));
        let params = TaskGenParams::standard(4 + (k % 3) as usize * 2, 0.5 + 0.1 * (k % 4) as f64);
        let set = generate_task_set(&mut rng, &params).map_err(|e| e.to_string())?;
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
        for test in proto::TASK_TESTS {
            pool.push(vec![
                ("op", Value::Str("task_feasibility".to_string())),
                ("test", Value::Str(test.to_string())),
                ("tasks", Value::Array(tasks.clone())),
            ]);
        }
    }
    Ok(pool)
}

/// Builds the stream for `seed`: a shuffled walk over the pool where
/// about every other line re-asks one of the last 16 questions.
fn build_stream(seed: u64) -> Result<Stream, String> {
    let pool = question_pool(seed)?;
    let mut rng = Prng::seed_from_u64(mix(seed, 0x57AE));
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    let mut recent: Vec<usize> = Vec::new();
    let mut next_fresh = 0usize;
    let mut lines = Vec::with_capacity(STREAM_LEN);
    for id in 0..STREAM_LEN {
        let q = if !recent.is_empty() && rng.unit() < 0.5 {
            recent[rng.index(recent.len())]
        } else {
            let q = order[next_fresh % order.len()];
            next_fresh += 1;
            recent.push(q);
            if recent.len() > 16 {
                recent.remove(0);
            }
            q
        };
        let mut fields = vec![("id", Value::Int(id as i64))];
        fields.extend(pool[q].iter().cloned());
        lines.push(json::object(fields).compact());
    }
    let expected = lines.iter().map(|l| proto::answer_line(l)).collect();
    let wire = lines.iter().map(|l| format!("{l}\n")).collect();
    Ok(Stream {
        lines,
        wire,
        expected,
    })
}

fn start_server() -> Result<Server, String> {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: ENGINE_WORKERS,
            queue_cap: QUEUE_CAP,
            memo_cap: MEMO_CAP,
            max_request_bytes: proto::DEFAULT_MAX_REQUEST_BYTES,
        },
    })
    .map_err(|e| format!("cannot start the server: {e}"))
}

/// One client connection: the write half (the generator's) and the read
/// half.
struct Conn {
    writer: TcpStream,
    reader: TcpStream,
}

fn connect(server: &Server) -> Result<Conn, String> {
    let conn = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok(Conn {
        reader: conn.try_clone().map_err(|e| format!("clone: {e}"))?,
        writer: conn,
    })
}

/// Writes one whole request line.
fn send(mut writer: &TcpStream, bytes: &[u8]) -> Result<(), String> {
    writer
        .write_all(bytes)
        .map_err(|e| format!("request write: {e}"))
}

/// Reads `count` response lines from `reader`, calling
/// `on_line(k, line, at)` for the k-th. The client acknowledges as an
/// ordinary one does, through its kernel: the server writes each response
/// and its newline separately on a socket without `TCP_NODELAY`, so the
/// newline waits for the acknowledgement that the client's next request
/// carries, and the latency figures include that wait.
fn read_lines(
    mut reader: &TcpStream,
    count: usize,
    mut on_line: impl FnMut(usize, &[u8], Instant),
) -> Result<(), String> {
    let mut buf = vec![0u8; 64 * 1024];
    let mut line: Vec<u8> = Vec::with_capacity(4096);
    let mut k = 0;
    while k < count {
        let n = reader
            .read(&mut buf)
            .map_err(|e| format!("response read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        let at = Instant::now();
        for &b in &buf[..n] {
            if b == b'\n' {
                on_line(k, &line, at);
                line.clear();
                k += 1;
            } else {
                line.push(b);
            }
        }
    }
    Ok(())
}

/// How long the set-up client waits after `Server::start` returns before
/// it connects. Connecting within microseconds races the acceptor's first
/// poll and makes the set-up time bimodal; a client a few milliseconds
/// late always lands on the acceptor's poll interval.
const CONNECT_AFTER: Duration = Duration::from_millis(5);

/// Set-up as a client sees it: `Server::start` until the first `ping`
/// is answered, the client connecting [`CONNECT_AFTER`] after the start.
fn start_until_ping() -> Result<Server, String> {
    let server = start_server()?;
    std::thread::sleep(CONNECT_AFTER);
    let conn = connect(&server)?;
    send(&conn.writer, b"{\"op\":\"ping\",\"id\":0}\n")?;
    let mut pong = false;
    read_lines(&conn.reader, 1, |_, line, _| {
        pong = String::from_utf8_lossy(line).contains("\"pong\":true");
    })?;
    if !pong {
        return Err("unexpected ping reply".to_string());
    }
    Ok(server)
}

/// One open-loop phase's observations.
struct Phase {
    /// Latency per request from its due time, µs (`FAILED` for failures).
    latency_us: Vec<f64>,
    /// How late each line was sent, µs.
    lag_us: Vec<f64>,
    /// Stream index of each request.
    line_idx: Vec<usize>,
}

/// Sends `n` lines (stream positions `first..first + n`) at `rate` over
/// the connections, one generator thread plus one reader per connection,
/// and waits for every answer.
fn open_loop(
    conns: &[Conn],
    stream: &Stream,
    first: usize,
    n: usize,
    rate: f64,
) -> Result<Phase, String> {
    // An infinite rate makes every line due at once.
    let interval = if rate.is_finite() { 1.0 / rate } else { 0.0 };
    let idx = |i: usize| (first + i) % stream.lines.len();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 * interval);
    let mut lag_us = vec![0.0; n];
    let received = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || -> Result<Vec<(usize, Instant, bool)>, String> {
                    let mine = (c..n).step_by(CONNECTIONS).count();
                    let mut got = Vec::with_capacity(mine);
                    read_lines(&conn.reader, mine, |k, line, at| {
                        let i = c + k * CONNECTIONS;
                        got.push((i, at, line == stream.expected[idx(i)].as_bytes()));
                    })?;
                    Ok(got)
                })
            })
            .collect();
        let mut send_err = None;
        for i in 0..n {
            let when = due(i);
            let now = Instant::now();
            if when > now {
                std::thread::sleep(when - now);
            }
            lag_us[i] = secs(Instant::now().saturating_duration_since(when)) * 1e6;
            if let Err(e) = send(
                &conns[i % CONNECTIONS].writer,
                stream.wire[idx(i)].as_bytes(),
            ) {
                send_err = Some(e);
                break;
            }
        }
        if let Some(e) = send_err {
            // Unblock the readers: they fail on the closed sockets.
            for c in conns {
                let _ = c.writer.shutdown(std::net::Shutdown::Both);
            }
            for h in handles {
                let _ = h.join();
            }
            return Err(e);
        }
        let mut all = Vec::with_capacity(n);
        for h in handles {
            all.extend(
                h.join()
                    .map_err(|_| "reader thread panicked".to_string())??,
            );
        }
        Ok(all)
    })?;
    let mut latency_us = vec![FAILED; n];
    for (i, at, ok) in received {
        if ok {
            latency_us[i] = secs(at.saturating_duration_since(due(i))) * 1e6;
        }
    }
    Ok(Phase {
        latency_us,
        lag_us,
        line_idx: (0..n).map(idx).collect(),
    })
}

/// Counts a phase's requests; each wrong or refused answer is a failure.
fn record(out: &mut Outcome, p: &Phase) {
    out.attempted += p.latency_us.len() as u64;
    for (&lat, &i) in p.latency_us.iter().zip(&p.line_idx) {
        if lat == FAILED {
            out.fail(format!("line {i}: answer differs from answer_line"));
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let stream = build_stream(opts.seed)?;
    // Each sample's server is dropped (and joined) outside its timing.
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 1..SETUP_SAMPLES {
        setup.push(time_setup(1, false, start_until_ping)?.0);
    }
    let (last_setup, mut server) = time_setup(1, false, start_until_ping)?;
    setup.push(last_setup);
    let setup_s = median(&setup);
    let conns = (0..CONNECTIONS)
        .map(|_| connect(&server))
        .collect::<Result<Vec<_>, String>>()?;

    // A short warm-up, then rounds of the low rate, the higher rate and
    // replays of the stream on this thread, interleaved so all three see
    // the same host conditions. Each rate walks the stream from its own
    // cursor, so every line is sent several times at each rate.
    let mut cursors = [0usize; 2];
    let mut phase = |out: &mut Outcome, which: usize, n: usize, rate: f64| {
        let p = open_loop(&conns, &stream, cursors[which], n, rate)?;
        cursors[which] += n;
        record(out, &p);
        Ok::<Phase, String>(p)
    };
    phase(&mut out, 0, (R_LO * 0.5) as usize, R_LO)?;
    let (mut lo, mut hi) = (Windows::new(R_LO), Windows::new(R_HI));
    let mut best_pass = f64::INFINITY;
    let mut rounds = 0usize;
    let mut speed = HostSpeed::default();
    let started = Instant::now();
    loop {
        speed.sample(3);
        lo.add(&phase(&mut out, 0, (R_LO * ROUND_S) as usize, R_LO)?);
        hi.add(&phase(&mut out, 1, (R_HI * ROUND_S) as usize, R_HI)?);
        for _ in 0..REPLAYS_PER_ROUND {
            let t0 = Instant::now();
            replay(&mut out, &stream, &mut Tracer::off());
            best_pass = best_pass.min(secs(t0.elapsed()));
        }
        rounds += 1;
        let elapsed = secs(started.elapsed());
        if elapsed + elapsed / rounds as f64 > opts.seconds {
            break;
        }
    }
    drop(conns);
    server.shutdown();

    // Only the replay rate is speed-corrected: set-up is the acceptor's
    // sleep, and latency is mostly the send schedule, thread wake-ups and
    // socket hand-offs, which do not scale with the calibration kernel.
    let replay_rps = stream.lines.len() as f64 / best_pass;
    let figures = EndToEnd {
        setup_s,
        units_per_s: replay_rps * speed.slowdown(),
        lo_ms: lo.figures_ms(),
        hi_ms: hi.figures_ms(),
    };
    out.set_end_to_end(&figures, &speed, false);
    out.note_info("replay_rps_measured", Value::Float(replay_rps));
    out.note_info("rate_lo_rps", Value::Float(R_LO));
    out.note_info("rate_hi_rps", Value::Float(R_HI));
    out.note_info("rounds", Value::Int(rounds as i64));
    out.note_info("sends_lo", Value::Int(cursors[0] as i64));
    out.note_info("sends_hi", Value::Int(cursors[1] as i64));
    out.note_info(
        "gen_lag_ms_p99_hi",
        Value::Float(median(&hi.lag_p99_us) / 1e3),
    );
    Ok(out)
}

/// Seconds of each latency round at one rate.
const ROUND_S: f64 = 0.5;
/// Single-thread replays of the stream per round (about 0.1 s each).
const REPLAYS_PER_ROUND: usize = 2;
/// Seconds of send schedule each latency percentile is taken over.
const WINDOW_S: f64 = 0.25;

/// Latency percentiles of one rate, per window of [`WINDOW_S`] seconds
/// of send schedule, each over every send in the window (a failed send
/// counts as beyond every limit).
struct Windows {
    sends: usize,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    lag_p99_us: Vec<f64>,
}

impl Windows {
    fn new(rate: f64) -> Windows {
        Windows {
            sends: ((rate * WINDOW_S) as usize).max(1),
            p50_us: Vec::new(),
            p99_us: Vec::new(),
            lag_p99_us: Vec::new(),
        }
    }

    fn add(&mut self, p: &Phase) {
        for (lat, lag) in p
            .latency_us
            .chunks_exact(self.sends)
            .zip(p.lag_us.chunks_exact(self.sends))
        {
            self.p50_us.push(percentile(lat, 50.0));
            self.p99_us.push(percentile(lat, 99.0));
            self.lag_p99_us.push(percentile(lag, 99.0));
        }
    }

    /// (p50, p99) in ms: the median window's p50, and the p99 of the
    /// window at the 10th percentile. Host stalls of several milliseconds
    /// land in most seconds of a run and each lifts its window's p99
    /// alone; a slower server lifts every window's.
    fn figures_ms(&self) -> [f64; 2] {
        [
            median(&self.p50_us) / 1e3,
            percentile(&self.p99_us, 10.0) / 1e3,
        ]
    }
}

/// Per-line service time of one single-threaded replay, µs.
struct Replay {
    service_us: Vec<f64>,
}

/// Replays one pass of the stream through parse → memo → eval → render
/// on this thread, with spans (unless `tr` is off); checks each rendered
/// answer against the expected one.
fn replay(out: &mut Outcome, stream: &Stream, tr: &mut Tracer) -> Replay {
    let tuning = PolicyTuning::default();
    let mut scratch = EvalScratch::default();
    let mut memo = Memo::new(MEMO_CAP);
    let mut service_us = Vec::with_capacity(stream.lines.len());
    for (i, line) in stream.lines.iter().enumerate() {
        let t0 = Instant::now();
        let answer = serve_line(tr, line, &tuning, &mut scratch, &mut memo);
        service_us.push(secs(t0.elapsed()) * 1e6);
        out.attempted += 1;
        if answer != stream.expected[i] {
            out.fail(format!("replay line {i}: answer differs from answer_line"));
        }
    }
    Replay { service_us }
}

/// The engine's per-request path, stage by stage.
fn serve_line(
    tr: &mut Tracer,
    line: &str,
    tuning: &PolicyTuning,
    scratch: &mut EvalScratch,
    memo: &mut Memo,
) -> String {
    let req = match tr.span("serve.parse", |_| proto::parse_request(line)) {
        Ok(req) => req,
        Err(re) => return proto::err_envelope(&re.id, &re.err).compact(),
    };
    let cacheable = !matches!(req.op, Op::Ping | Op::Stats);
    let hit = if cacheable {
        tr.span("serve.memo", |_| memo.get(&req.key))
    } else {
        None
    };
    let result = match hit {
        Some(v) => Ok(v),
        None => {
            let r = tr.span("serve.eval", |_| proto::eval(&req, tuning, scratch));
            if let (true, Ok(v)) = (cacheable, &r) {
                tr.span("serve.memo", |_| memo.put(&req.key, v.clone()));
            }
            r
        }
    };
    tr.span("serve.render", |_| match result {
        Ok(v) => proto::ok_envelope(&req.id, req.op.name(), v).compact(),
        Err(err) => proto::err_envelope(&req.id, &err).compact(),
    })
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let stream = build_stream(opts.seed)?;

    // Alternate the untraced and the traced replay; each side keeps its
    // fastest round.
    let mut untraced = f64::INFINITY;
    let mut base = None;
    let mut best: Option<(f64, Tracer)> = None;
    for _ in 0..TRACE_ROUNDS {
        let t0 = Instant::now();
        let r = replay(&mut out, &stream, &mut Tracer::off());
        let wall = secs(t0.elapsed());
        if wall < untraced {
            untraced = wall;
            base = Some(r);
        }
        let mut tr = Tracer::default();
        let t0 = Instant::now();
        tr.span("wall", |tr| replay(&mut out, &stream, tr));
        let wall = secs(t0.elapsed());
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, tr));
        }
    }
    let (Some(base), Some((traced, tr))) = (base, best) else {
        return Err("no replay round ran".to_string());
    };

    // The open loop at the higher rate, for the engine counters, the
    // wait split and the generator's lateness.
    let mut server = start_server()?;
    let conns = (0..CONNECTIONS)
        .map(|_| connect(&server))
        .collect::<Result<Vec<_>, String>>()?;
    let n = (R_HI * (opts.seconds * 0.25).max(1.0)) as usize;
    let p = open_loop(&conns, &stream, 0, n, R_HI)?;
    drop(conns);
    server.shutdown();
    let stats = server.engine().stats();
    record(&mut out, &p);
    let waits: Vec<f64> = p
        .latency_us
        .iter()
        .zip(&p.line_idx)
        .filter(|(l, _)| l.is_finite())
        .map(|(&l, &i)| l - base.service_us[i])
        .collect();

    let requests = stream.lines.len() as f64;
    let evals_us: Vec<f64> = tr.durations("serve.eval").iter().map(|d| d * 1e6).collect();
    out.note_info("replayed_requests", Value::Int(stream.lines.len() as i64));
    out.set(
        "serve.parse_us",
        tr.total("serve.parse") * 1e6 / requests,
        "us",
    );
    out.set(
        "serve.memo_us",
        tr.total("serve.memo") * 1e6 / requests,
        "us",
    );
    out.set("serve.eval_us", median(&evals_us), "us");
    out.set("serve.eval_us_p99", percentile(&evals_us, 99.0), "us");
    out.set(
        "serve.render_us",
        tr.total("serve.render") * 1e6 / requests,
        "us",
    );
    out.set("serve.memo_hit_rate", stats.hit_rate(), "ratio");
    out.set(
        "serve.rejected",
        (stats.rejected_full + stats.shed + stats.rejected_closed) as f64,
        "count",
    );
    out.set("serve.wait_us_p50", percentile(&waits, 50.0), "us");
    out.set("serve.wait_us_p99", percentile(&waits, 99.0), "us");
    out.set(
        "serve.gen_lag_ms_p99",
        percentile(&p.lag_us, 99.0) / 1e3,
        "ms",
    );
    let selfs = tr.self_times();
    let stages: f64 = ["serve.parse", "serve.memo", "serve.eval", "serve.render"]
        .iter()
        .map(|s| selfs.get(s).copied().unwrap_or(0.0))
        .sum();
    out.set("trace.wall_s", traced, "s");
    out.set("trace.closure", stages / traced.max(1e-9), "ratio");
    out.set("trace_overhead", traced / untraced.max(1e-9) - 1.0, "ratio");
    tr.dump(&opts.out_dir.join("spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(out)
}
