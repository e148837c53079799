//! Golden bytes of [`answer_line`].
//!
//! Every request of a fixed-seed corpus and its answer are pinned, line by
//! line, in `data/answer_golden.txt`: a `> ` line holds the request and
//! the `< ` line after it the answer. The corpus is
//!
//! * `selftest::build_corpus(true)`, the generated rings and task sets the
//!   differential suite and the self-test send;
//! * each row of `tests/data/malformed_networks.json`, asked as a
//!   `feasibility` request whose `id` is the row's `case`;
//! * a few lines that do not parse, or parse only by the letter of the
//!   grammar (escaped and long keys, extreme numbers).
//!
//! Any change to what `serve` answers, or to how the JSON tree reads or
//! renders a line, shows up here as a diff. After an intended change,
//! replace the pinned file with the text the failing test prints, and
//! review the diff.

use profirt_base::json::{self, Value};
use profirt_serve::answer_line;
use profirt_serve::selftest::build_corpus;

const GOLDEN: &str = include_str!("data/answer_golden.txt");
const MALFORMED: &str = include_str!("../../../tests/data/malformed_networks.json");

/// Lines outside the generated corpus.
const ODD_LINES: [&str; 10] = [
    "not json at all",
    "{\"op\":",
    "[1,2",
    "{\"id\":7,\"op\":\"ping\"} trailing",
    "{\"id\":1e999,\"op\":\"ping\"}",
    "{\"id\":-9223372036854775808,\"op\":\"ping\",\"op\":\"stats\",\"op\":\"ping\"}",
    "{\"id\":\"\\u00e9\\t\\\"q\\\"\",\"op\":\"ping\"}",
    "{\"op\":\"ping\",\"an_unknown_key_longer_than_twenty_four_bytes\":[{\"é\":1}],\"id\":[1.5,-0.0,1e99]}",
    "{\"id\":{\"b\":1,\"a\":2,\"b\":3},\"op\":\"feasibility\",\"policy\":\"dm\"}",
    "\"op\"",
];

fn corpus() -> Vec<String> {
    let mut lines = build_corpus(true).expect("corpus generation");
    let table = json::parse(MALFORMED).expect("malformed_networks.json parses");
    for row in table.as_array().expect("the table is an array") {
        lines.push(
            json::object([
                ("id", row.get("case").cloned().unwrap_or(Value::Null)),
                ("op", Value::Str("feasibility".to_string())),
                ("policy", Value::Str("dm".to_string())),
                ("net", row.get("net").cloned().unwrap_or(Value::Null)),
            ])
            .compact(),
        );
    }
    lines.extend(ODD_LINES.iter().map(|s| s.to_string()));
    lines
}

fn rendered() -> String {
    let mut out = String::new();
    for line in corpus() {
        out.push_str(&format!("> {line}\n< {}\n", answer_line(&line)));
    }
    out
}

#[test]
fn answers_match_the_pinned_bytes() {
    let actual = rendered();
    if actual == GOLDEN {
        return;
    }
    let first = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or(actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "answer_line drifted from tests/data/answer_golden.txt at line {}:\n  \
         pinned: {}\n  actual: {}\nactual file:\n{actual}",
        first + 1,
        GOLDEN.lines().nth(first).unwrap_or("<end of file>"),
        actual.lines().nth(first).unwrap_or("<end of file>"),
    );
}
