//! End-to-end admission control over a real socket.
//!
//! A `serve` daemon runs on an ephemeral port; a TCP client streams
//! `admit` requests, growing its ring one stream at a time until the
//! daemon refuses. The test then proves two contracts:
//!
//! 1. **Frontier agreement** — the daemon's admission frontier (how many
//!    streams got in, and every intermediate `r_new` bound) is identical
//!    to an offline evaluator calling `PolicyKind::analyze` directly on
//!    the same candidate sequence.
//! 2. **Soundness of what was admitted** — simulating the final accepted
//!    ring shows every observed response time at or below the analytical
//!    bound the daemon based its answers on (the T8 contract, applied to
//!    the admission result).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use profirt::base::json::{self, Value};
use profirt::base::{StreamSet, Time};
use profirt::core::{MasterConfig, NetworkConfig, PolicyKind};
use profirt::profibus::QueuePolicy;
use profirt::serve::proto::net_to_value;
use profirt::serve::{EngineConfig, Server, ServerConfig};
use profirt::sim::{
    simulate_network, JitterInjection, NetworkSimConfig, OffsetMode, SimMaster, SimNetwork,
};

const TOKEN_PASS: i64 = 166;
const TTR: i64 = 3_000;
/// Every candidate is the same tight stream; each admitted copy grows
/// `Tcycle`, so the ring saturates after a handful of rounds.
const CAND: (i64, i64, i64) = (300, 30_000, 30_000);
const MAX_ROUNDS: usize = 100;

/// The ring with `n` copies of the candidate stream on one master.
fn ring(n: usize) -> NetworkConfig {
    let triples: Vec<(i64, i64, i64)> = std::iter::repeat_n(CAND, n).collect();
    let set = StreamSet::from_cdt(&triples).expect("valid streams");
    NetworkConfig::new(vec![MasterConfig::new(set, Time::ZERO)], Time::new(TTR))
        .expect("valid ring")
        .with_token_pass(Time::new(TOKEN_PASS))
}

/// Admission frontier and per-round `r_new` bounds as the offline
/// evaluator computes them: starting from one stream, keep offering a
/// copy while the grown ring stays fully schedulable.
fn offline_frontier(policy: PolicyKind) -> (usize, Vec<i64>) {
    let mut accepted = 1;
    let mut bounds = Vec::new();
    while accepted < MAX_ROUNDS {
        let candidate = ring(accepted + 1);
        let an = match policy.analyze(&candidate) {
            Ok(an) => an,
            Err(_) => break,
        };
        if !an.all_schedulable() {
            break;
        }
        bounds.push(
            an.masters[0]
                .last()
                .map(|r| r.response_time.ticks())
                .unwrap_or(0),
        );
        accepted += 1;
    }
    (accepted, bounds)
}

#[test]
fn tcp_admission_frontier_matches_offline_evaluator_and_simulation() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        engine: EngineConfig {
            workers: 2,
            queue_cap: 32,
            memo_cap: 64,
            max_request_bytes: 64 * 1024,
        },
    })
    .expect("server start");
    let conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = conn.try_clone().expect("clone socket");
    let mut reader = BufReader::new(conn);

    // Stream admissions until the daemon refuses.
    let mut accepted = 1usize;
    let mut served_bounds: Vec<i64> = Vec::new();
    for round in 0..MAX_ROUNDS {
        let request = json::object([
            ("id", Value::Int(round as i64)),
            ("op", Value::Str("admit".to_string())),
            ("policy", Value::Str("dm".to_string())),
            ("net", net_to_value(&ring(accepted))),
            (
                "stream",
                json::object([
                    ("master", Value::Int(0)),
                    ("ch", Value::Int(CAND.0)),
                    ("d", Value::Int(CAND.1)),
                    ("t", Value::Int(CAND.2)),
                ]),
            ),
        ]);
        writer
            .write_all((request.compact() + "\n").as_bytes())
            .expect("send");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        let doc = json::parse(line.trim()).expect("response JSON");
        assert_eq!(
            doc.get("ok").and_then(Value::as_bool),
            Some(true),
            "admit must be answered, not errored: {line}"
        );
        assert_eq!(doc.get("id").and_then(Value::as_i64), Some(round as i64));
        let result = doc.get("result").expect("result");
        match result.get("admit").and_then(Value::as_bool) {
            Some(true) => {
                served_bounds.push(
                    result
                        .get("r_new")
                        .and_then(Value::as_i64)
                        .expect("r_new on admit"),
                );
                accepted += 1;
            }
            Some(false) => break,
            None => panic!("admit result without admit flag: {line}"),
        }
    }
    drop(writer);
    drop(reader);
    server.shutdown();

    // 1. Frontier agreement with the offline evaluator — same count,
    //    same analytical bound at every intermediate step.
    let (direct_accepted, direct_bounds) = offline_frontier(PolicyKind::Dm);
    assert_eq!(
        accepted, direct_accepted,
        "daemon and offline evaluator disagree on the admission frontier"
    );
    assert_eq!(
        served_bounds, direct_bounds,
        "daemon and offline evaluator disagree on intermediate bounds"
    );
    assert!(
        (2..MAX_ROUNDS).contains(&accepted),
        "frontier {accepted} not informative: the ring must admit some and refuse eventually"
    );

    // 2. Soundness: simulate the final accepted ring and check every
    //    observed response against the analytical bound behind the
    //    daemon's answers.
    let final_ring = ring(accepted);
    let an = PolicyKind::Dm
        .analyze(&final_ring)
        .expect("final ring analyzes");
    assert!(an.all_schedulable(), "accepted ring must be schedulable");
    let sim_net = SimNetwork {
        masters: vec![SimMaster::priority_queued(
            final_ring.masters[0].streams.clone(),
            QueuePolicy::DeadlineMonotonic,
        )],
        ttr: Time::new(TTR),
        token_pass: Time::new(TOKEN_PASS),
    };
    let obs = simulate_network(
        &sim_net,
        &NetworkSimConfig {
            horizon: Time::new(2_000_000),
            seed: 1,
            offsets: OffsetMode::Synchronous,
            jitter: JitterInjection::None,
            ..Default::default()
        },
    );
    for (i, o) in obs.streams[0].iter().enumerate() {
        let bound = an.masters[0][i].response_time;
        assert!(
            o.max_response <= bound,
            "stream {i}: observed {:?} exceeds the analytical bound {:?} \
             the daemon admitted against",
            o.max_response,
            bound
        );
    }
}
