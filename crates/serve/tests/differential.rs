//! Differential contract: the served path is byte-identical to direct
//! library evaluation.
//!
//! [`answer_line`] is the pure reference implementation — parse, eval,
//! envelope, no queue, no threads, no cache. The engine must produce
//! *exactly* the same bytes for every request line regardless of how
//! many shards answer it or whether the memo is on: caching and
//! concurrency are performance artifacts, never observable in a
//! response. Any drift — a float formatted differently, a cache entry
//! serving a stale envelope, a shard-local tuning default — fails the
//! byte comparison.

use profirt_serve::selftest::build_corpus;
use profirt_serve::{answer_line, Engine, EngineConfig, DEFAULT_MAX_REQUEST_BYTES};

/// The generated corpus plus edge-case lines the generators do not
/// produce: errors, overload answers, and near-duplicate repeats that
/// force memo hits to prove a cached answer is still byte-identical.
fn corpus() -> Vec<String> {
    let mut lines = build_corpus(true).expect("corpus generation");
    lines.push("{\"op\":\"ping\"}".to_string());
    lines.push("{\"op\":\"ping\",\"id\":null}".to_string());
    lines.push("{\"op\":\"ping\",\"id\":\"str-id\"}".to_string());
    lines.push("not json at all".to_string());
    lines.push("{\"id\":3}".to_string());
    lines.push("{\"id\":4,\"op\":\"warp\"}".to_string());
    lines.push(
        "{\"id\":5,\"op\":\"feasibility\",\"policy\":\"rm\",\"net\":{\"ttr\":1,\"masters\":[]}}"
            .to_string(),
    );
    lines.push(
        "{\"id\":6,\"op\":\"feasibility\",\"policy\":\"dm\",\"net\":{\"ttr\":10,\"masters\":[{\"cl\":0,\"streams\":[{\"ch\":600,\"d\":700,\"t\":700}]}]}}"
            .to_string(),
    );
    // Repeat the whole corpus so the second pass is answered from the
    // memo (where enabled) — the comparison below does not care, which
    // is exactly the point.
    let repeat: Vec<String> = lines.clone();
    lines.extend(repeat);
    lines
}

fn run_differential(workers: usize, memo_cap: usize) {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_cap: 64,
        memo_cap,
        max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
    })
    .expect("engine start");
    let corpus = corpus();
    // Each shard has its own memo, so the repeat pass alone may land
    // every duplicate on a shard that has not seen it. One memoizable
    // line (the first generated `feasibility` query) sent `workers + 1`
    // times reaches some shard twice (pigeonhole), which makes a memo
    // hit certain whenever the memo is on.
    let repeated = std::iter::repeat_n(&corpus[0], workers + 1);
    for line in corpus.iter().chain(repeated) {
        let direct = answer_line(line);
        let served = engine.handle(line);
        assert_eq!(
            served, direct,
            "served answer diverged from direct evaluation\n\
             workers={workers} memo_cap={memo_cap}\nrequest: {line}"
        );
    }
    let stats = engine.stats();
    if memo_cap > 0 {
        assert!(
            stats.memo_hits > 0,
            "duplicated corpus must exercise the memo (workers={workers})"
        );
    } else {
        assert_eq!(stats.memo_hits, 0, "memo disabled but hits recorded");
    }
    engine.shutdown();
}

#[test]
fn one_worker_no_memo_matches_direct() {
    run_differential(1, 0);
}

#[test]
fn one_worker_with_memo_matches_direct() {
    run_differential(1, 256);
}

#[test]
fn two_workers_with_memo_matches_direct() {
    run_differential(2, 256);
}

#[test]
fn eight_workers_no_memo_matches_direct() {
    run_differential(8, 0);
}

#[test]
fn eight_workers_with_memo_matches_direct() {
    run_differential(8, 256);
}

#[test]
fn stats_op_is_the_one_intentional_divergence() {
    // `stats` is answered from live engine counters; the pure path has
    // none and says so with a schema error. Assert the divergence is
    // exactly this shape so it stays intentional.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_cap: 8,
        memo_cap: 8,
        max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
    })
    .expect("engine start");
    let served = engine.handle("{\"op\":\"stats\",\"id\":1}");
    let direct = answer_line("{\"op\":\"stats\",\"id\":1}");
    assert!(served.contains("\"ok\":true"), "{served}");
    assert!(served.contains("\"served\""), "{served}");
    assert!(direct.contains("\"ok\":false"), "{direct}");
    assert!(direct.contains("\"schema\""), "{direct}");
    engine.shutdown();
}
