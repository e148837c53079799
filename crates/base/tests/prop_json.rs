//! `json::parse` and its renderers against a named oracle.
//!
//! [`oracle`] is the parser as it stood when object members were a
//! `BTreeMap<String, Value>`: a byte-at-a-time lexer that validates every
//! string chunk with `from_utf8` and parses every number through `str`. The
//! library keeps its own tree and lexer; this file holds it to the
//! oracle's observable behaviour:
//!
//! * a document both accept renders to the same `compact()` and
//!   `pretty()` bytes (sorted keys, last duplicate wins);
//! * a document both reject fails with the same [`json::ParseError`] kind, the
//!   same byte offset and the same message text;
//! * member edits through `insert` and `remove` leave an object that
//!   renders like the oracle's map after the same edits.
//!
//! Documents are generated with nested objects, duplicate keys, escaped
//! keys and values, keys on both sides of every inline-size boundary,
//! non-ASCII keys, integers at the `i64` edges and floats such as `1e999`
//! and `-0`; each is also truncated and byte-mutated so the error paths
//! meet the same inputs.

use proptest::prelude::*;

use profirt_base::json::{self, ParseErrorKind, Value};
use profirt_base::Prng;

/// Cases per property: `PROPTEST_CASES` when set (CI runs 2048 in
/// release), else `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The reference parser and tree, kept verbatim in behaviour.
mod oracle {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    use profirt_base::json::{ParseError, ParseErrorKind};

    #[derive(Clone, Debug, PartialEq)]
    pub enum OValue {
        Null,
        Bool(bool),
        Int(i64),
        Float(f64),
        Str(String),
        Array(Vec<OValue>),
        Object(BTreeMap<String, OValue>),
    }

    impl OValue {
        pub fn compact(&self) -> String {
            let mut out = String::new();
            self.write_compact(&mut out);
            out
        }

        pub fn pretty(&self) -> String {
            let mut out = String::new();
            self.write_pretty(&mut out, 0);
            out
        }

        fn write_compact(&self, out: &mut String) {
            match self {
                OValue::Null => out.push_str("null"),
                OValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
                OValue::Int(n) => {
                    let _ = write!(out, "{n}");
                }
                OValue::Float(f) => {
                    let _ = write!(out, "{f}");
                }
                OValue::Str(s) => write_escaped(out, s),
                OValue::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        item.write_compact(out);
                    }
                    out.push(']');
                }
                OValue::Object(map) => {
                    out.push('{');
                    for (i, (key, value)) in map.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_escaped(out, key);
                        out.push(':');
                        value.write_compact(out);
                    }
                    out.push('}');
                }
            }
        }

        fn write_pretty(&self, out: &mut String, indent: usize) {
            let pad = "  ".repeat(indent);
            let pad_in = "  ".repeat(indent + 1);
            match self {
                OValue::Array(items) if items.is_empty() => out.push_str("[]"),
                OValue::Array(items) => {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad_in);
                        item.write_pretty(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&pad);
                    out.push(']');
                }
                OValue::Object(map) if map.is_empty() => out.push_str("{}"),
                OValue::Object(map) => {
                    out.push_str("{\n");
                    for (i, (key, value)) in map.iter().enumerate() {
                        out.push_str(&pad_in);
                        write_escaped(out, key);
                        out.push_str(": ");
                        value.write_pretty(out, indent + 1);
                        if i + 1 < map.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&pad);
                    out.push('}');
                }
                scalar => scalar.write_compact(out),
            }
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// The message each error renders to.
    pub fn message(e: ParseError) -> String {
        let at = e.at;
        match e.kind {
            ParseErrorKind::UnexpectedEnd => "unexpected end of input".to_string(),
            ParseErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?} at byte {at}"),
            ParseErrorKind::TrailingChars => format!("trailing characters at byte {at}"),
            ParseErrorKind::TooDeep { limit } => format!("nesting deeper than {limit} levels"),
            ParseErrorKind::InvalidLiteral => format!("invalid literal at byte {at}"),
            ParseErrorKind::NumberNotFinite => format!("number at byte {at} is not a finite f64"),
            ParseErrorKind::IntegerOutOfRange => format!("integer out of i64 range at byte {at}"),
            ParseErrorKind::InvalidNumber => format!("invalid number at byte {at}"),
            ParseErrorKind::UnterminatedString => "unterminated string".to_string(),
            ParseErrorKind::BadEscape => format!("bad escape at byte {at}"),
            ParseErrorKind::BadCodePoint => format!("bad \\u code point at byte {at}"),
            ParseErrorKind::InvalidUtf8 => format!("invalid UTF-8 in string at byte {at}"),
            ParseErrorKind::ExpectedKey => format!("expected object key at byte {at}"),
            ParseErrorKind::ExpectedColon => format!("expected ':' at byte {at}"),
            ParseErrorKind::ExpectedCommaOrClose { close } => {
                format!("expected ',' or {close:?} at byte {at}")
            }
        }
    }

    fn err(kind: ParseErrorKind, at: usize) -> ParseError {
        ParseError { kind, at }
    }

    pub fn parse(text: &str) -> Result<OValue, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(ParseErrorKind::TrailingChars, pos));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    const MAX_DEPTH: usize = 128;

    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<OValue, ParseError> {
        if depth > MAX_DEPTH {
            return Err(err(ParseErrorKind::TooDeep { limit: MAX_DEPTH }, *pos));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err(err(ParseErrorKind::UnexpectedEnd, *pos)),
            Some(b'{') => parse_object(bytes, pos, depth),
            Some(b'[') => parse_array(bytes, pos, depth),
            Some(b'"') => Ok(OValue::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", OValue::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", OValue::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", OValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
            Some(c) => Err(err(ParseErrorKind::UnexpectedChar(*c as char), *pos)),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: OValue,
    ) -> Result<OValue, ParseError> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(err(ParseErrorKind::InvalidLiteral, *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<OValue, ParseError> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = bytes.get(*pos) {
            match c {
                b'0'..=b'9' => *pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    *pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|_| err(ParseErrorKind::InvalidNumber, start))?;
        if is_float {
            match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(OValue::Float(f)),
                Ok(_) => Err(err(ParseErrorKind::NumberNotFinite, start)),
                Err(_) => Err(err(ParseErrorKind::InvalidNumber, start)),
            }
        } else {
            match text.parse::<i64>() {
                Ok(n) => Ok(OValue::Int(n)),
                Err(_) => {
                    let digits = text.strip_prefix('-').unwrap_or(text);
                    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                        Err(err(ParseErrorKind::IntegerOutOfRange, start))
                    } else {
                        Err(err(ParseErrorKind::InvalidNumber, start))
                    }
                }
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
        let open = *pos;
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(ParseErrorKind::UnterminatedString, open)),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or(err(ParseErrorKind::BadEscape, *pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err(ParseErrorKind::BadEscape, *pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(ParseErrorKind::BadEscape, *pos))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or(err(ParseErrorKind::BadCodePoint, *pos))?,
                            );
                            *pos += 4;
                        }
                        _ => return Err(err(ParseErrorKind::BadEscape, *pos)),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let start = *pos;
                    while let Some(&b) = bytes.get(*pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        *pos += 1;
                    }
                    let chunk = std::str::from_utf8(&bytes[start..*pos])
                        .map_err(|_| err(ParseErrorKind::InvalidUtf8, start))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<OValue, ParseError> {
        *pos += 1;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(OValue::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos, depth + 1)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(OValue::Array(items));
                }
                _ => {
                    return Err(err(
                        ParseErrorKind::ExpectedCommaOrClose { close: ']' },
                        *pos,
                    ))
                }
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<OValue, ParseError> {
        *pos += 1;
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(OValue::Object(map));
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(err(ParseErrorKind::ExpectedKey, *pos));
            }
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(err(ParseErrorKind::ExpectedColon, *pos));
            }
            *pos += 1;
            map.insert(key, parse_value(bytes, pos, depth + 1)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(OValue::Object(map));
                }
                _ => {
                    return Err(err(
                        ParseErrorKind::ExpectedCommaOrClose { close: '}' },
                        *pos,
                    ))
                }
            }
        }
    }
}

use oracle::OValue;

fn pick<T: Copy>(rng: &mut Prng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

/// Object keys as written in the document (JSON string bodies, escapes
/// included). A small pool, so objects often repeat a key. The plain keys
/// straddle the inline-size boundary: 21 to 25 bytes, and longer.
const KEYS: [&str; 26] = [
    "id",
    "op",
    "ttr",
    "net",
    "a",
    "",
    "token_pass",
    "criticality",
    "schedulable_streams",
    "x_abcdefghijklmnopqrst",
    "x_abcdefghijklmnopqrstu",
    "x_abcdefghijklmnopqrstuv",
    "x_abcdefghijklmnopqrstuvw",
    "a_key_long_enough_to_need_the_heap_every_time",
    "é",
    "ключ",
    "ключ_длиннее_двадцати",
    "\u{1F680}rocket",
    "q\\\"uote",
    "back\\\\slash",
    "tab\\there",
    "\\u00e9",
    "\\u0041BC",
    "nl\\n",
    "sl\\/ash",
    "ctl\\u001f",
];

/// Number literals: `i64` edges, out-of-range integers, signed zeros,
/// exponents, and non-finite floats.
const NUMBERS: [&str; 22] = [
    "0",
    "-0",
    "7",
    "-42",
    "2000",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "-9223372036854775809",
    "99999999999999999999999",
    "007",
    "0.5",
    "-0.0",
    "1.5e3",
    "1E+2",
    "2e-5",
    "1e99",
    "1e999",
    "-1e999",
    "9007199254740993.0",
    "123456789012.25",
    "1e-400",
];

/// String value bodies, escapes included.
const STRINGS: [&str; 12] = [
    "",
    "dm",
    "feasibility",
    "x\\n",
    "\\\"q\\\"",
    "\\\\",
    "\\u20ac uro",
    "\\b\\f\\r\\t",
    "naïve",
    "日本語",
    "plain text that is longer than twenty-four bytes",
    "\\u007f\\u0000",
];

/// Whitespace between tokens, usually none.
fn ws(rng: &mut Prng, out: &mut String) {
    if rng.unit() < 0.25 {
        out.push_str(pick(rng, &[" ", "\n", "\t", "\r\n  ", "  "]));
    }
}

/// Writes one random JSON value at nesting `depth`.
fn document(rng: &mut Prng, depth: usize, out: &mut String) {
    let container = depth < 4 && rng.unit() < 0.55;
    if container && rng.unit() < 0.6 {
        out.push('{');
        let n = rng.index(6);
        for i in 0..n {
            if i > 0 {
                out.push(',');
            }
            ws(rng, out);
            out.push('"');
            out.push_str(pick(rng, &KEYS));
            out.push('"');
            ws(rng, out);
            out.push(':');
            ws(rng, out);
            document(rng, depth + 1, out);
            ws(rng, out);
        }
        out.push('}');
    } else if container {
        out.push('[');
        let n = rng.index(5);
        for i in 0..n {
            if i > 0 {
                out.push(',');
            }
            ws(rng, out);
            document(rng, depth + 1, out);
            ws(rng, out);
        }
        out.push(']');
    } else {
        match rng.index(6) {
            0 => out.push_str(pick(rng, &["true", "false", "null"])),
            1 | 2 => out.push_str(pick(rng, &NUMBERS)),
            3 => out.push_str(&(rng.next_u64() as i64 >> rng.index(64)).to_string()),
            _ => {
                out.push('"');
                out.push_str(pick(rng, &STRINGS));
                out.push('"');
            }
        }
    }
}

/// Characters a mutation may write: JSON structure, number and escape
/// alphabet, whitespace, a control character and non-ASCII.
const NOISE: [char; 30] = [
    '{', '}', '[', ']', '"', ':', ',', '\\', '-', '+', '.', 'e', 'E', '0', '1', '9', 't', 'f', 'n',
    'u', 'x', ' ', '\n', '\u{1}', 'é', '€', '/', 'r', 'l', 'a',
];

/// `text` truncated at a random character boundary, or with a few
/// characters replaced, inserted or deleted.
fn mutate(rng: &mut Prng, text: &str) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    if rng.unit() < 0.4 {
        chars.truncate(rng.index(chars.len() + 1));
        return chars.into_iter().collect();
    }
    for _ in 0..1 + rng.index(3) {
        let at = rng.index(chars.len() + 1);
        match rng.index(3) {
            0 if at < chars.len() => chars[at] = pick(rng, &NOISE),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, pick(rng, &NOISE)),
        }
    }
    chars.into_iter().collect()
}

/// What a parse is observed as: both renderings, or the error's kind,
/// offset and message.
#[derive(Debug, PartialEq)]
enum Seen {
    Parsed {
        compact: String,
        pretty: String,
    },
    Failed {
        kind: ParseErrorKind,
        at: usize,
        message: String,
    },
}

fn seen_library(text: &str) -> Seen {
    match json::parse(text) {
        Ok(v) => Seen::Parsed {
            compact: v.compact(),
            pretty: v.pretty(),
        },
        Err(e) => Seen::Failed {
            kind: e.kind,
            at: e.at,
            message: e.to_string(),
        },
    }
}

fn seen_oracle(text: &str) -> Seen {
    match oracle::parse(text) {
        Ok(v) => Seen::Parsed {
            compact: v.compact(),
            pretty: v.pretty(),
        },
        Err(e) => Seen::Failed {
            kind: e.kind,
            at: e.at,
            message: oracle::message(e),
        },
    }
}

/// Checks one input against the oracle.
fn agree(text: &str) -> Result<(), TestCaseError> {
    let lib = seen_library(text);
    let ora = seen_oracle(text);
    prop_assert_eq!(&lib, &ora, "input: {:?}", text);
    Ok(())
}

/// Keys for member edits: decoded key text, short and long.
const EDIT_KEYS: [&str; 8] = [
    "feasible",
    "hi_feasible",
    "id",
    "",
    "zz",
    "é",
    "x_abcdefghijklmnopqrstuv",
    "a_key_long_enough_to_need_the_heap_every_time",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn parse_and_render_match_the_oracle(seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..8 {
            let mut text = String::new();
            ws(&mut rng, &mut text);
            document(&mut rng, 0, &mut text);
            ws(&mut rng, &mut text);
            agree(&text)?;
            for _ in 0..4 {
                agree(&mutate(&mut rng, &text))?;
            }
        }
    }

    #[test]
    fn nesting_limit_matches_the_oracle(depth in 120usize..136, object in any::<bool>()) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let text = format!("{}1{}", open.repeat(depth), close.repeat(depth));
        agree(&text)?;
        agree(&text[..text.len() - 1])?;
    }

    #[test]
    fn member_edits_match_the_oracle(seed in any::<u64>()) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut value = json::parse("{}").unwrap();
        let mut map = std::collections::BTreeMap::new();
        for step in 0..24 {
            let key = pick(&mut rng, &EDIT_KEYS);
            let Value::Object(obj) = &mut value else {
                unreachable!("the edited value is an object")
            };
            if rng.unit() < 0.65 {
                let owned = key.to_string();
                let old_oracle = map.insert(owned.clone(), OValue::Int(step));
                let old = obj.insert(owned, Value::Int(step));
                prop_assert_eq!(old.map(|v| v.compact()), old_oracle.map(|v| v.compact()));
            } else {
                let old = obj.remove(key);
                let old_oracle = map.remove(key);
                prop_assert_eq!(old.map(|v| v.compact()), old_oracle.map(|v| v.compact()));
            }
            let oracle = OValue::Object(map.clone());
            prop_assert_eq!(value.compact(), oracle.compact());
            prop_assert_eq!(value.pretty(), oracle.pretty());
            for probe in EDIT_KEYS {
                prop_assert_eq!(
                    value.get(probe).map(Value::compact),
                    map.get(probe).map(OValue::compact)
                );
            }
        }
    }
}

/// The generated documents are not all errors: `1e999` and out-of-range
/// integers reject some, but most parse, so the renderers are compared.
#[test]
fn most_generated_documents_parse() {
    let mut rng = Prng::seed_from_u64(0x15_0E);
    let mut parsed = 0;
    for _ in 0..400 {
        let mut text = String::new();
        document(&mut rng, 0, &mut text);
        parsed += usize::from(json::parse(&text).is_ok());
    }
    assert!(parsed > 200, "only {parsed} of 400 documents parsed");
}

#[test]
fn fixed_inputs_match_the_oracle() {
    let inputs = [
        "",
        " ",
        "{",
        "}",
        "{\"a\":1,\"a\":2}",
        "{\"b\":1,\"a\":2,\"b\":3,\"a\":4}",
        "{\"k\":1,}",
        "{,}",
        "{\"k\" 1}",
        "{1:2}",
        "[1,]",
        "[1 2]",
        "\"\\u12\"",
        "\"\\u+041\"",
        "\"\\ud800\"",
        "\"\\uZZZZ\"",
        "\"\\x\"",
        "\"abc",
        "\"\\",
        "-",
        "--5",
        "1.2.3",
        "1e",
        "1e+-2",
        "-0",
        "-0.0",
        "1e999",
        "-9223372036854775808",
        "-9223372036854775809",
        "9223372036854775807",
        "9223372036854775808",
        "00012",
        "-abc",
        "tru",
        "nul",
        "falsey",
        "truex",
        "[true false]",
        "{} x",
        "\u{1}",
        "é",
        "{\"é\":\"€\",\"ключ\":[]}",
        "{\"x_abcdefghijklmnopqrstuv\":1,\"x_abcdefghijklmnopqrstu\":2}",
    ];
    for text in inputs {
        agree(text).unwrap();
    }
}
