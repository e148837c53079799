//! Memo-key properties: the decoded-question key against the rendered-
//! request oracle.
//!
//! The memo used to key each request by its object minus `"id"`,
//! compact-rendered ([`oracle_key`], kept here as the oracle). It now keys
//! the decoded question ([`proto::Request::key`]). Two properties make
//! that change safe:
//!
//! * (i) **no hit is lost** — equal oracle keys imply equal question
//!   keys;
//! * (ii) **no wrong hit** — equal question keys imply byte-identical
//!   `eval` output.
//!
//! Each case writes small questions several ways: shuffled field order,
//! explicit defaults (`j:0`, `cl:0`, `token_pass:166`) or none, integral
//! floats (`300.0`), unknown extra fields, duplicate keys (the last one
//! wins) and every JSON type as `id`. Every spelling of a question must
//! get one question key: this pins the network format's rule that an
//! unknown field decodes like its absence. The extra member is always
//! `x_extra`, a name `core::wire` does not read. Each question also gets
//! neighbours that differ in one field, so a key that dropped or merged a
//! field would meet a different answer under an equal key; (i) and (ii)
//! are checked across all lines of the case.

use std::collections::HashMap;

use proptest::prelude::*;

use profirt_base::json::{self, Value};
use profirt_base::Prng;
use profirt_core::{wire, PolicyTuning};
use profirt_serve::memo::Memo;
use profirt_serve::proto::{self, EvalScratch, TASK_TESTS};
use profirt_serve::{Engine, EngineConfig, DEFAULT_MAX_REQUEST_BYTES};

/// Cases per property: `PROPTEST_CASES` when set (CI runs 2048 in
/// release), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The memo key before requests were decoded once: the request object
/// minus `"id"`, compact-rendered. `None` for a line that is not a JSON
/// object.
fn oracle_key(line: &str) -> Option<String> {
    let mut doc = json::parse(line).ok()?;
    let Value::Object(obj) = &mut doc else {
        return None;
    };
    obj.remove("id");
    Some(doc.compact())
}

/// A request as written: member order and spelling are the renderer's.
#[derive(Clone, Debug)]
enum Node {
    Int(i64),
    Str(&'static str),
    /// Raw JSON text (ids and junk values).
    Raw(String),
    List(Vec<Node>),
    Obj(Vec<(&'static str, Node)>),
}

fn pick<T: Copy>(rng: &mut Prng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

/// Pushes `key: value` (an explicit default) or, half the time, omits it
/// so the decoder's default applies.
fn maybe(members: &mut Vec<(&'static str, Node)>, rng: &mut Prng, key: &'static str, v: i64) {
    if rng.unit() < 0.5 {
        members.push((key, Node::Int(v)));
    }
}

/// `(ch, d, t, j)`-style rows: the three required fields plus an
/// optional jitter (absent, an explicit default 0, or non-zero).
fn row(rng: &mut Prng, names: [&'static str; 3], c: &[i64], dt: &[i64], j: &[i64]) -> Node {
    let mut members = vec![
        (names[0], Node::Int(pick(rng, c))),
        (names[1], Node::Int(pick(rng, dt))),
        (names[2], Node::Int(pick(rng, dt))),
    ];
    let j = pick(rng, j);
    if j != 0 {
        members.push(("j", Node::Int(j)));
    } else {
        maybe(&mut members, rng, "j", 0);
    }
    Node::Obj(members)
}

fn stream(rng: &mut Prng) -> Node {
    row(
        rng,
        ["ch", "d", "t"],
        &[100, 300],
        &[30_000, 60_000],
        &[0, 500, 20_000],
    )
}

fn net(rng: &mut Prng, n_masters: usize) -> Node {
    let mut members = vec![("ttr", Node::Int(pick(rng, &[2_000, 3_000])))];
    match rng.index(3) {
        0 => members.push(("token_pass", Node::Int(200))),
        _ => maybe(&mut members, rng, "token_pass", wire::DEFAULT_TOKEN_PASS),
    }
    let masters = (0..n_masters)
        .map(|_| {
            let mut m = Vec::new();
            match rng.index(3) {
                0 => m.push(("cl", Node::Int(100))),
                _ => maybe(&mut m, rng, "cl", 0),
            }
            let streams = (0..1 + rng.index(2)).map(|_| stream(rng)).collect();
            m.push(("streams", Node::List(streams)));
            Node::Obj(m)
        })
        .collect();
    members.push(("masters", Node::List(masters)));
    Node::Obj(members)
}

/// One question (no `id`) from a domain small enough that a case draws
/// equal questions often.
fn question(rng: &mut Prng) -> Vec<(&'static str, Node)> {
    let policy = Node::Str(pick(rng, &["fcfs", "dm", "dm-paper", "edf"]));
    match rng.index(4) {
        0 => vec![
            ("op", Node::Str("feasibility")),
            ("policy", policy),
            ("net", net(rng, 1)),
        ],
        1 => {
            let n_masters = 1 + rng.index(2);
            vec![
                ("op", Node::Str("response_times")),
                ("policy", policy),
                ("net", net(rng, n_masters)),
            ]
        }
        2 => {
            let n_masters = 1 + rng.index(2);
            let Node::Obj(mut candidate) = stream(rng) else {
                unreachable!("stream() builds an object")
            };
            candidate.push(("master", Node::Int(rng.index(n_masters) as i64)));
            match rng.index(5) {
                0 => {}
                1 => candidate.push(("criticality", Node::Raw("null".to_string()))),
                _ => candidate.push(("criticality", Node::Str(pick(rng, &["lo", "mid", "hi"])))),
            }
            vec![
                ("op", Node::Str("admit")),
                ("policy", policy),
                ("net", net(rng, n_masters)),
                ("stream", Node::Obj(candidate)),
            ]
        }
        _ => {
            let tasks = (0..1 + rng.index(3))
                .map(|_| row(rng, ["c", "d", "t"], &[1, 2], &[10, 14], &[0, 1, 6]))
                .collect();
            vec![
                ("op", Node::Str("task_feasibility")),
                ("test", Node::Str(pick(rng, &TASK_TESTS))),
                ("tasks", Node::List(tasks)),
            ]
        }
    }
}

/// Every leaf under `node` (numbers, names, raw values) with the key of
/// the member that holds it.
fn leaves<'a>(node: &'a mut Node, key: &'static str, out: &mut Vec<(&'static str, &'a mut Node)>) {
    match node {
        Node::Obj(members) => {
            for (k, v) in members.iter_mut() {
                leaves(v, k, out);
            }
        }
        Node::List(items) => {
            for v in items.iter_mut() {
                leaves(v, key, out);
            }
        }
        leaf => out.push((key, leaf)),
    }
}

/// `question` with one field changed: a number moved, or a policy, test
/// or criticality swapped (possibly for the same one). Neighbours are
/// the questions a key that drops or merges one field would confuse.
fn neighbour(question: &[(&'static str, Node)], rng: &mut Prng) -> Vec<(&'static str, Node)> {
    let mut root = Node::Obj(question.to_vec());
    let mut found = Vec::new();
    leaves(&mut root, "", &mut found);
    found.retain(|(key, _)| *key != "op");
    let (key, leaf) = found.swap_remove(rng.index(found.len()));
    *leaf = match (key, &*leaf) {
        ("policy", _) => Node::Str(pick(rng, &["fcfs", "dm", "dm-paper", "edf"])),
        ("test", _) => Node::Str(pick(rng, &TASK_TESTS)),
        ("criticality", _) => match rng.index(4) {
            0 => Node::Raw("null".to_string()),
            _ => Node::Str(pick(rng, &["lo", "mid", "hi"])),
        },
        (_, Node::Int(n)) => Node::Int(n + pick(rng, &[1, 100, 20_000])),
        (_, other) => other.clone(),
    };
    let Node::Obj(members) = root else {
        unreachable!("the root is an object")
    };
    members
}

/// An `id` of every JSON type.
fn id(rng: &mut Prng) -> Node {
    let n = rng.index(1_000);
    Node::Raw(match rng.index(7) {
        0 => "null".to_string(),
        1 => "true".to_string(),
        2 => n.to_string(),
        3 => format!("{n}.5"),
        4 => format!("\"q{n}\""),
        5 => format!("[{n},\"x\",null]"),
        _ => format!("{{\"seq\":{n},\"tag\":[1.5,false]}}"),
    })
}

/// A value that must never reach the decoder: it is either shadowed by a
/// later duplicate or sits under a key the decoder ignores.
fn junk(rng: &mut Prng) -> Node {
    Node::Raw(
        pick(
            rng,
            &["null", "\"junk\"", "-1", "2.5", "[]", "{\"ttr\":1}", "true"],
        )
        .to_string(),
    )
}

/// Renders `node` in a random spelling: shuffled members, integral
/// floats, shadowed duplicate keys and unknown extra fields.
fn render(node: &Node, rng: &mut Prng, out: &mut String) {
    match node {
        Node::Int(n) if rng.unit() < 0.3 => out.push_str(&format!("{n}.0")),
        Node::Int(n) => out.push_str(&n.to_string()),
        Node::Str(s) => out.push_str(&format!("\"{s}\"")),
        Node::Raw(text) => out.push_str(text),
        Node::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            out.push(']');
        }
        Node::Obj(members) => {
            let mut members = members.clone();
            for i in (1..members.len()).rev() {
                members.swap(i, rng.index(i + 1));
            }
            let mut parts: Vec<(&str, Node)> = Vec::new();
            if rng.unit() < 0.2 {
                parts.push(("x_extra", junk(rng)));
            }
            for (key, value) in members {
                if rng.unit() < 0.2 {
                    parts.push((key, junk(rng)));
                }
                parts.push((key, value));
            }
            out.push('{');
            for (i, (key, value)) in parts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{key}\":"));
                render(value, rng, out);
            }
            out.push('}');
        }
    }
}

/// One spelling of `question` with a fresh `id`.
fn spell(question: &[(&'static str, Node)], rng: &mut Prng) -> String {
    let mut members = question.to_vec();
    members.push(("id", id(rng)));
    let mut out = String::new();
    render(&Node::Obj(members), rng, &mut out);
    out
}

/// `eval`'s rendered output for a decoded request.
fn eval_bytes(req: &proto::Request, scratch: &mut EvalScratch) -> String {
    match proto::eval(req, &PolicyTuning::default(), scratch) {
        Ok(v) => v.compact(),
        Err(e) => format!("error {} {}", e.kind, e.detail),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn question_keys_lose_no_hit_and_make_no_wrong_one(seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut scratch = EvalScratch::default();
        let mut by_oracle: HashMap<String, proto::Request> = HashMap::new();
        let mut by_key: HashMap<_, (String, String)> = HashMap::new();
        for _ in 0..2 {
            let q = question(&mut rng);
            // Four spellings of `q` (one group), then six neighbours of it,
            // each spelled once (a group of its own).
            let mut lines: Vec<(String, bool)> =
                (0..4).map(|_| (spell(&q, &mut rng), true)).collect();
            for _ in 0..6 {
                let n = neighbour(&q, &mut rng);
                lines.push((spell(&n, &mut rng), false));
            }
            let mut first_key = None;
            for (line, spelling) in lines {
                let req = match proto::parse_request(&line) {
                    Ok(req) => req,
                    // A model-level rejection (e.g. an admit candidate the
                    // stream validation refuses) has no key; every spelling
                    // of the question must be refused alike.
                    Err(re) => {
                        prop_assert!(!spelling || first_key.is_none(), "{}: {:?}", line, re.err);
                        continue;
                    }
                };
                // Every spelling of one question shares one key.
                if spelling {
                    let key = first_key.get_or_insert_with(|| req.key.clone());
                    prop_assert_eq!(&req.key, &*key, "spelling {} split the key", line);
                }

                // (i) equal oracle keys imply equal question keys.
                let oracle = oracle_key(&line).expect("a request line is an object");
                if let Some(seen) = by_oracle.get(&oracle) {
                    prop_assert_eq!(&seen.key, &req.key, "lost hit: {}", line);
                }
                // (ii) equal question keys imply identical eval output.
                let bytes = eval_bytes(&req, &mut scratch);
                if let Some((other, seen)) = by_key.get(&req.key) {
                    prop_assert_eq!(
                        seen,
                        &bytes,
                        "wrong hit: {} and {} share a key",
                        other,
                        line
                    );
                }
                by_key.entry(req.key.clone()).or_insert((line, bytes));
                by_oracle.entry(oracle).or_insert(req);
            }
        }
    }
}

const WITH_J0: &str = r#"{"op":"feasibility","policy":"dm","net":{"ttr":2000,"masters":[{"cl":0,"streams":[{"ch":300,"d":30000,"t":30000,"j":0}]}]},"id":1}"#;
const WITHOUT_J: &str = r#"{"op":"feasibility","policy":"dm","net":{"ttr":2000,"masters":[{"cl":0,"streams":[{"ch":300,"d":30000,"t":30000}]}]},"id":2}"#;

#[test]
fn explicit_default_jitter_shares_one_memo_entry() {
    // The oracle told the two spellings apart; the decoded question does
    // not.
    assert_ne!(oracle_key(WITH_J0), oracle_key(WITHOUT_J));
    let with = proto::parse_request(WITH_J0).unwrap();
    let without = proto::parse_request(WITHOUT_J).unwrap();
    let mut memo = Memo::new(8);
    let answer = proto::eval(&with, &PolicyTuning::default(), &mut EvalScratch::default()).unwrap();
    memo.put(&with.key, answer.clone());
    assert_eq!(memo.get(&without.key), Some(answer));
    assert_eq!(memo.len(), 1);

    // The engine answers the second spelling from the first one's entry,
    // byte-identically to the pure path.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_cap: 4,
        memo_cap: 8,
        max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
    })
    .unwrap();
    for line in [WITH_J0, WITHOUT_J] {
        assert_eq!(engine.handle(line), proto::answer_line(line));
    }
    let stats = engine.stats();
    assert_eq!((stats.memo_hits, stats.memo_misses), (1, 1));
    engine.shutdown();
}
