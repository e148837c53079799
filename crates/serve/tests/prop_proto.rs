//! Protocol contract properties for the serve wire format.
//!
//! Three families:
//!
//! * **Round trips** — every valid request the generators can produce is
//!   compact-rendered, re-parsed, and re-rendered to the identical bytes
//!   (`parse ∘ render = id`), and every response the server emits obeys
//!   the same law (responses are themselves canonical JSON).
//! * **Fuzz** — arbitrary bytes, truncations of valid requests, and
//!   structurally-valid-but-schema-wrong documents all come back as a
//!   single-line structured error envelope with a known `kind`; nothing
//!   panics, nothing is answered `ok:true`.
//! * **Byte cap** — the engine answers any line over its configured cap
//!   with `kind:"oversized"` without evaluating it.
//! * **Malformed networks** — one document per error class of the network
//!   format, from the table `tests/cli.rs` also reads: each network op
//!   answers it with the table's `kind` and `detail`.

use proptest::prelude::*;

use profirt_base::json::{self, Value};
use profirt_serve::{answer_line, Engine, EngineConfig, DEFAULT_MAX_REQUEST_BYTES};

/// Cases per property: `PROPTEST_CASES` when set (CI runs 2048 in
/// release), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Every `error.kind` the protocol is allowed to emit.
const ERROR_KINDS: &[&str] = &[
    "oversized",
    "parse",
    "schema",
    "unknown_op",
    "unknown_policy",
    "unknown_test",
    "model",
    "overloaded",
    "shed",
    "closed",
    "internal",
];

/// Parses a response line and asserts the envelope invariants every
/// reply must satisfy; returns the parsed document.
fn check_envelope(line: &str, response: &str) -> Value {
    assert!(
        !response.contains('\n'),
        "response must be single-line for {line:?}: {response:?}"
    );
    let doc = json::parse(response)
        .unwrap_or_else(|e| panic!("response must be valid JSON for {line:?}: {e} {response:?}"));
    assert_eq!(
        doc.compact(),
        response,
        "responses must be canonical compact JSON"
    );
    let ok = doc.get("ok").and_then(Value::as_bool);
    assert!(ok.is_some(), "response must carry ok: {response:?}");
    if ok == Some(false) {
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("error response must carry error.kind: {response:?}"));
        assert!(
            ERROR_KINDS.contains(&kind),
            "unknown error kind {kind:?} in {response:?}"
        );
    }
    doc
}

/// Builds a structurally valid request from generated numbers. Stream
/// parameters are kept positive and ordered (ch < d <= t) so the model
/// layer accepts them; the request space still covers all four ops and
/// all four policies.
fn build_request(op_policy: usize, id: i64, streams: &[(i64, i64)]) -> Value {
    let policies = ["fcfs", "dm", "dm-paper", "edf"];
    let policy = policies[op_policy % policies.len()];
    let op = if op_policy.is_multiple_of(2) {
        "feasibility"
    } else {
        "response_times"
    };
    let rendered: Vec<Value> = streams
        .iter()
        .map(|&(ch, t)| {
            json::object([
                ("ch", Value::Int(ch)),
                ("d", Value::Int(t)),
                ("t", Value::Int(t)),
            ])
        })
        .collect();
    json::object([
        ("id", Value::Int(id)),
        ("op", Value::Str(op.to_string())),
        ("policy", Value::Str(policy.to_string())),
        (
            "net",
            json::object([
                ("ttr", Value::Int(5_000)),
                (
                    "masters",
                    Value::Array(vec![json::object([
                        ("cl", Value::Int(0)),
                        ("streams", Value::Array(rendered)),
                    ])]),
                ),
            ]),
        ),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn valid_requests_round_trip_and_get_canonical_answers(
        op_policy in 0usize..8,
        id in -1_000_000i64..1_000_000,
        raw in prop::collection::vec((10i64..500, 10_000i64..200_000), 1..5),
    ) {
        let req = build_request(op_policy, id, &raw);
        let line = req.compact();

        // parse ∘ render = id on the request itself.
        let reparsed = json::parse(&line).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("{e}"))
        })?;
        prop_assert_eq!(&reparsed, &req);
        prop_assert_eq!(reparsed.compact(), line.clone());

        // The answer echoes the id, is canonical, and round-trips too.
        let resp = answer_line(&line);
        let doc = check_envelope(&line, &resp);
        prop_assert_eq!(doc.get("id").and_then(Value::as_i64), Some(id));
        prop_assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
        let again = json::parse(&resp).map_err(|e| {
            proptest::test_runner::TestCaseError::fail(format!("{e}"))
        })?;
        prop_assert_eq!(again.compact(), resp);
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_never_succeed(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let line = String::from_utf8_lossy(&bytes).replace(['\n', '\r'], " ");
        prop_assume!(!line.trim().is_empty());
        let resp = answer_line(&line);
        let doc = check_envelope(&line, &resp);
        // Random bytes essentially never form a valid request; if the
        // generator ever does produce one, a true answer is fine — what
        // is banned is a panic or a malformed envelope (checked above).
        if doc.get("ok").and_then(Value::as_bool) == Some(false) {
            prop_assert!(doc.get("error").is_some());
        }
    }

    #[test]
    fn truncated_valid_requests_fail_structurally(
        op_policy in 0usize..8,
        id in 0i64..1_000,
        cut in 1usize..60,
    ) {
        let line = build_request(op_policy, id, &[(100, 50_000)]).compact();
        prop_assume!(cut < line.len());
        let truncated = &line[..line.len() - cut];
        let resp = answer_line(truncated);
        let doc = check_envelope(truncated, &resp);
        prop_assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("");
        // A truncation either breaks the JSON ("parse") or removes a
        // required field ("schema").
        prop_assert!(
            kind == "parse" || kind == "schema",
            "unexpected kind {} for {}",
            kind,
            truncated
        );
    }

    #[test]
    fn schema_violations_are_schema_errors_not_panics(
        which in 0usize..6,
        id in 0i64..1_000,
    ) {
        // Structurally valid JSON, wrong shape: each case drops or
        // corrupts one required element.
        let line = match which {
            0 => format!("{{\"id\":{id}}}"),                        // no op
            1 => format!("{{\"id\":{id},\"op\":\"feasibility\"}}"), // no net
            2 => format!("{{\"id\":{id},\"op\":\"feasibility\",\"policy\":\"dm\",\"net\":[]}}"),
            3 => format!("{{\"id\":{id},\"op\":\"nope\"}}"),        // unknown op
            4 => format!(
                "{{\"id\":{id},\"op\":\"feasibility\",\"policy\":\"rm\",\"net\":{{\"ttr\":1,\"masters\":[]}}}}"
            ), // unknown policy
            _ => format!("{{\"id\":{id},\"op\":\"task_feasibility\",\"test\":\"nope\",\"tasks\":[]}}"),
        };
        let resp = answer_line(&line);
        let doc = check_envelope(&line, &resp);
        prop_assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
        prop_assert_eq!(doc.get("id").and_then(Value::as_i64), Some(id));
    }
}

#[test]
fn oversized_lines_are_rejected_by_the_cap_not_evaluated() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_cap: 8,
        memo_cap: 8,
        max_request_bytes: 256,
    })
    .unwrap();
    // Valid request, padded past the cap with trailing spaces: the cap
    // must fire on raw byte length, before any parsing.
    let mut line = build_request(0, 7, &[(100, 50_000)]).compact();
    line.push_str(&" ".repeat(300));
    let resp = engine.handle(&line);
    let doc = check_envelope(&line, &resp);
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str),
        Some("oversized")
    );
    // Same request unpadded sails through.
    let ok = engine.handle(&build_request(0, 7, &[(100, 50_000)]).compact());
    let doc = check_envelope("unpadded", &ok);
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    engine.shutdown();
}

#[test]
fn default_cap_bounds_every_accepted_line() {
    let line = "x".repeat(DEFAULT_MAX_REQUEST_BYTES + 1);
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_cap: 4,
        memo_cap: 0,
        max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
    })
    .unwrap();
    let resp = engine.handle(&line);
    assert!(resp.contains("\"oversized\""), "{resp}");
    engine.shutdown();
}

#[test]
fn malformed_networks_get_the_cli_detail() {
    let table = json::parse(include_str!("../../../tests/data/malformed_networks.json")).unwrap();
    for row in table.as_array().unwrap() {
        let field = |key| row.get(key).and_then(Value::as_str).unwrap();
        let candidate = json::object([
            ("master", Value::Int(0)),
            ("ch", Value::Int(100)),
            ("d", Value::Int(50_000)),
            ("t", Value::Int(50_000)),
        ]);
        for op in ["feasibility", "response_times", "admit"] {
            let line = json::object([
                ("op", Value::Str(op.to_string())),
                ("policy", Value::Str("dm".to_string())),
                ("net", row.get("net").unwrap().clone()),
                ("stream", candidate.clone()),
            ])
            .compact();
            let resp = answer_line(&line);
            let doc = check_envelope(&line, &resp);
            assert_eq!(
                doc.get("ok").and_then(Value::as_bool),
                Some(false),
                "{resp}"
            );
            let error = doc.get("error").unwrap();
            let case = field("case");
            assert_eq!(
                error.get("kind").and_then(Value::as_str),
                Some(field("kind")),
                "{case}"
            );
            assert_eq!(
                error.get("detail").and_then(Value::as_str),
                Some(field("detail")),
                "{case}"
            );
        }
    }
}
