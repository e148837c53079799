//! The `profirt serve` subcommand: admission-control daemon modes.
//!
//! Three modes share one engine:
//!
//! * `--listen ADDR` (default `127.0.0.1:7188`) — TCP daemon, one JSON
//!   request per line, one response per line.
//! * `--stdin` — one-shot batch: read request lines from stdin, write
//!   responses to stdout, exit at EOF. Scriptable (`profirt serve
//!   --stdin < requests.jsonl`).
//! * `--selftest [--quick]` — load harness (in-process phases plus TCP
//!   round trips); prints a summary and writes `BENCH_serve.json`
//!   (workspace `target/` unless `CARGO_TARGET_DIR` or
//!   `BENCH_SERVE_JSON` says otherwise). Fails when a TCP answer is
//!   wrong or refused.

use profirt::serve::{
    run_selftest, serve_stream, EngineConfig, SelftestConfig, Server, ServerConfig,
};

pub fn run(args: &[String]) -> Result<(), String> {
    let mut engine = EngineConfig::default();
    if let Some(v) = super::flag_value(args, "--workers") {
        engine.workers = v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --workers {v:?}: want a positive integer"))?;
    }
    if let Some(v) = super::flag_value(args, "--queue-cap") {
        engine.queue_cap = v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --queue-cap {v:?}: want a positive integer"))?;
    }
    if let Some(v) = super::flag_value(args, "--memo-cap") {
        engine.memo_cap = v
            .parse::<usize>()
            .map_err(|_| format!("bad --memo-cap {v:?}: want a non-negative integer"))?;
    }

    if args.iter().any(|a| a == "--selftest") {
        let report = run_selftest(&SelftestConfig {
            quick: args.iter().any(|a| a == "--quick"),
            workers: engine.workers,
            out_path: None,
        })?;
        println!("{}", report.summary());
        if !report.tcp_smoke_ok {
            return Err("selftest TCP smoke failed".into());
        }
        if !report.tcp_round_trips_ok {
            return Err("selftest TCP round trips got a wrong or refused answer".into());
        }
        return Ok(());
    }

    if args.iter().any(|a| a == "--stdin") {
        let e = profirt::serve::Engine::start(engine)
            .map_err(|err| format!("cannot start engine: {err}"))?;
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve_stream(&e, stdin.lock(), stdout.lock(), None)
            .map_err(|err| format!("stream error: {err}"))?;
        e.shutdown();
        return Ok(());
    }

    let addr = super::flag_value(args, "--listen").unwrap_or("127.0.0.1:7188");
    let server = Server::start(ServerConfig {
        addr: addr.to_string(),
        engine,
    })
    .map_err(|err| format!("cannot bind {addr}: {err}"))?;
    let bound = server.local_addr();
    eprintln!(
        "profirt serve: listening on {bound} ({} workers, queue {}); \
         one JSON request per line — try: echo '{{\"op\":\"ping\"}}' | nc {} {}",
        server.engine().workers(),
        server.engine().queue_cap(),
        bound.ip(),
        bound.port(),
    );
    server.wait();
    Ok(())
}
