//! Minimal JSON support shared by the CLI, the campaign engine, and the
//! admission-control server.
//!
//! Every on-disk schema in this workspace is a handful of small structs,
//! so the workspace carries its own dependency-free parser and pretty
//! printer. Supported: objects, arrays, strings (with the standard
//! escapes), integers, floats, booleans, and null — the full JSON grammar
//! minus exotic number forms (`1e99` parses
//! via `f64`; numbers that overflow to a non-finite `f64`, like `1e999`,
//! are rejected with a typed error rather than smuggling `inf` into a
//! feasibility decision).
//!
//! Parse failures are typed ([`ParseError`]: a [`ParseErrorKind`] plus the
//! byte offset), so wire-facing consumers such as `profirt serve` can
//! answer structured errors instead of pattern-matching message strings.
//!
//! # The tree
//!
//! An [`Object`] is one `Vec` of `(key, value)` members, sorted by key
//! (byte order, which is `str` order) when the object closes. Lookups are
//! binary searches. When a document repeats a key, the last member wins.
//! Key order is therefore normalised: [`Value::compact`] and
//! [`Value::pretty`] write members sorted, so equal values render to equal
//! bytes, and no workspace schema relies on the order as written.
//!
//! A key of up to 22 bytes (every schema key: `token_pass`,
//! `criticality`, `schedulable_streams`, …) is stored inline in its
//! member; only a longer key takes a heap allocation. Parsing a `serve`
//! request line therefore allocates once per object and array (its
//! member `Vec`) and once per string value, and nothing per key or
//! number. The lexer slices plain string runs straight out of the input,
//! which is already UTF-8, and accumulates integers as it scans them.
//!
//! ```
//! use profirt_base::json::{parse, Value};
//!
//! let doc = parse(r#"{"ttr": 2000, "masters": [1, 2], "ttr": 3000}"#).unwrap();
//! assert_eq!(doc.get("ttr").and_then(Value::as_i64), Some(3000));
//! assert_eq!(doc.compact(), r#"{"masters":[1,2],"ttr":3000}"#);
//! let again = parse(&doc.pretty()).unwrap();
//! assert_eq!(doc, again);
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral numbers (the config schemas are mostly ticks).
    Int(i64),
    /// Non-integral numbers.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// Members sorted by key, one per key; see [`Object`].
    Object(Object),
}

/// Longest key stored inline in its member, in bytes. With the length
/// byte and the variant tag, an inline key is as large as a boxed one.
const INLINE_KEY: usize = 22;

/// An object key: short keys in place, long ones boxed. A key of up to
/// [`INLINE_KEY`] bytes is always inline, so one text has one form.
#[derive(Clone)]
enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<str>),
}

impl Key {
    fn new(text: &str) -> Key {
        match u8::try_from(text.len()) {
            Ok(len) if text.len() <= INLINE_KEY => {
                let mut bytes = [0; INLINE_KEY];
                bytes[..text.len()].copy_from_slice(text.as_bytes());
                Key::Inline { len, bytes }
            }
            _ => Key::Heap(text.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Key::Heap(text) => text.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            // Inline bytes are copied from a `&str` whole, so they are
            // UTF-8; the fallback is unreachable.
            Key::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Key::Heap(text) => text,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

/// A JSON object: members sorted by key, each key once.
///
/// Built by [`parse`], by [`object`] or by collecting `(key, value)`
/// pairs; either way, a repeated key keeps its last value.
#[derive(Clone, Default, PartialEq)]
pub struct Object {
    members: Vec<(Key, Value)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Sorts `members` by key; of equal keys, the last one written wins.
    fn from_members(mut members: Vec<(Key, Value)>) -> Object {
        // A stable sort keeps equal keys in document order, so each run
        // of duplicates ends with the member that wins.
        members.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
        members.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        Object { members }
    }

    fn find(&self, key: &str) -> Result<usize, usize> {
        self.members
            .binary_search_by(|(k, _)| k.as_bytes().cmp(key.as_bytes()))
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` for `{}`.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.find(key).ok().map(|i| &self.members[i].1)
    }

    /// Sets `key` to `value`, returning the value it replaces.
    pub fn insert(&mut self, key: impl AsRef<str>, value: Value) -> Option<Value> {
        let key = key.as_ref();
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.members[i].1, value)),
            Err(i) => {
                self.members.insert(i, (Key::new(key), value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.find(key).ok()?;
        Some(self.members.remove(i).1)
    }

    /// Members in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> {
        self.members.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keys in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &str> {
        self.members.iter().map(|(k, _)| k.as_str())
    }
}

impl std::fmt::Debug for Object {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: AsRef<str>> FromIterator<(K, Value)> for Object {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(pairs: I) -> Object {
        Object::from_members(
            pairs
                .into_iter()
                .map(|(k, v)| (Key::new(k.as_ref()), v))
                .collect(),
        )
    }
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(obj) => obj.get(key),
            _ => None,
        }
    }

    /// Integer view (accepts exactly-integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// Floating-point view (accepts integers).
    ///
    /// Parsed documents never carry non-finite floats (the parser rejects
    /// them with [`ParseErrorKind::NumberNotFinite`]), so on any `Value`
    /// built by [`parse`] this is always finite.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object view.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(obj) => Some(obj),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (one key or element per line).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Renders on a single line with no insignificant whitespace — the
    /// canonical form for line-delimited wire protocols and cache keys
    /// (an [`Object`] keeps its members sorted and each key once, so
    /// equal values render to equal bytes).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(n) => write_int(out, *n),
            Value::Float(f) => {
                let _ = write!(out, "{f}");
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(obj) => {
                out.push('{');
                for (i, (key, value)) in obj.iter().enumerate() {
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
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
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
            Value::Object(obj) if obj.is_empty() => out.push_str("{}"),
            Value::Object(obj) => {
                out.push_str("{\n");
                for (i, (key, value)) in obj.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                    if i + 1 < obj.len() {
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

/// Writes `n` in decimal without the formatting machinery.
fn write_int(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Writes `s` quoted, escaping `"`, `\` and control characters. Runs of
/// plain characters are copied whole; every escaped character is ASCII,
/// so each run ends on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Convenience: builds an object from key/value pairs (a repeated key
/// keeps its last value).
pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(pairs.into_iter().collect())
}

/// What went wrong while parsing, independent of position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A character that cannot start or continue the expected construct.
    UnexpectedChar(char),
    /// Non-whitespace after the complete document.
    TrailingChars,
    /// Nesting exceeded the recursion guard.
    TooDeep {
        /// The enforced depth limit.
        limit: usize,
    },
    /// A `true`/`false`/`null` keyword was misspelt.
    InvalidLiteral,
    /// A number literal that overflows `f64` to `inf` (e.g. `1e999`) or
    /// parses to `NaN`: finite arithmetic only, by construction.
    NumberNotFinite,
    /// An integer literal outside the `i64` range.
    IntegerOutOfRange,
    /// A malformed number literal (e.g. `1.2.3`, `--5`, a bare `-`).
    InvalidNumber,
    /// A string missing its closing quote.
    UnterminatedString,
    /// A malformed `\` escape sequence.
    BadEscape,
    /// A `\u` escape naming an invalid code point.
    BadCodePoint,
    /// Raw bytes that are not valid UTF-8 inside a string.
    InvalidUtf8,
    /// An object member did not start with a string key.
    ExpectedKey,
    /// The `:` between an object key and its value is missing.
    ExpectedColon,
    /// Expected `,` or the closing bracket of the current container.
    ExpectedCommaOrClose {
        /// `]` or `}` depending on the container.
        close: char,
    },
}

/// A typed parse failure: the error class plus the byte offset at which it
/// was detected. Renders to the human-readable message via [`Display`];
/// `String` error contexts convert losslessly through `From`.
///
/// [`Display`]: std::fmt::Display
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// The failure class.
    pub kind: ParseErrorKind,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = self.at;
        match self.kind {
            ParseErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseErrorKind::UnexpectedChar(c) => {
                write!(f, "unexpected character {c:?} at byte {at}")
            }
            ParseErrorKind::TrailingChars => write!(f, "trailing characters at byte {at}"),
            ParseErrorKind::TooDeep { limit } => {
                write!(f, "nesting deeper than {limit} levels")
            }
            ParseErrorKind::InvalidLiteral => write!(f, "invalid literal at byte {at}"),
            ParseErrorKind::NumberNotFinite => {
                write!(f, "number at byte {at} is not a finite f64")
            }
            ParseErrorKind::IntegerOutOfRange => {
                write!(f, "integer out of i64 range at byte {at}")
            }
            ParseErrorKind::InvalidNumber => write!(f, "invalid number at byte {at}"),
            ParseErrorKind::UnterminatedString => write!(f, "unterminated string"),
            ParseErrorKind::BadEscape => write!(f, "bad escape at byte {at}"),
            ParseErrorKind::BadCodePoint => write!(f, "bad \\u code point at byte {at}"),
            ParseErrorKind::InvalidUtf8 => write!(f, "invalid UTF-8 in string at byte {at}"),
            ParseErrorKind::ExpectedKey => write!(f, "expected object key at byte {at}"),
            ParseErrorKind::ExpectedColon => write!(f, "expected ':' at byte {at}"),
            ParseErrorKind::ExpectedCommaOrClose { close } => {
                write!(f, "expected ',' or {close:?} at byte {at}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

fn err(kind: ParseErrorKind, at: usize) -> ParseError {
    ParseError { kind, at }
}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(err(ParseErrorKind::TrailingChars, p.pos));
    }
    Ok(value)
}

/// Recursion guard: adversarially deep documents must error, not blow the
/// stack. 128 is far beyond any real config (which nests 3 levels).
const MAX_DEPTH: usize = 128;

/// The lexer and parser state: the input and the byte offset reached.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(err(ParseErrorKind::TooDeep { limit: MAX_DEPTH }, self.pos));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(err(ParseErrorKind::UnexpectedEnd, self.pos)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number(),
            Some(c) => Err(err(ParseErrorKind::UnexpectedChar(c as char), self.pos)),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(err(ParseErrorKind::InvalidLiteral, self.pos))
        }
    }

    /// A number: the longest run of the number alphabet (`0-9 . e E + -`)
    /// after an optional `-`. A run of digits alone is an integer,
    /// accumulated as it is scanned; any other run parses as an `f64`.
    fn number(&mut self) -> Result<Value, ParseError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let digits = start + usize::from(negative);
        let mut pos = digits;
        // `None` once the integer leaves the i64 range. Negative numbers
        // accumulate downwards, so `i64::MIN` fits.
        let mut int = Some(0i64);
        while let Some(&c @ b'0'..=b'9') = bytes.get(pos) {
            let d = i64::from(c - b'0');
            int = int.and_then(|n| n.checked_mul(10)).and_then(|n| {
                if negative {
                    n.checked_sub(d)
                } else {
                    n.checked_add(d)
                }
            });
            pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = bytes.get(pos) {
            match c {
                b'0'..=b'9' => pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    pos += 1;
                }
                _ => break,
            }
        }
        self.pos = pos;
        if is_float {
            // The run is ASCII, so it slices on character boundaries.
            match self.text[start..pos].parse::<f64>() {
                // `1e999` overflows to `inf` without a parse error; NaN
                // cannot be produced by the grammar but is rejected for
                // completeness.
                Ok(f) if f.is_finite() => Ok(Value::Float(f)),
                Ok(_) => Err(err(ParseErrorKind::NumberNotFinite, start)),
                Err(_) => Err(err(ParseErrorKind::InvalidNumber, start)),
            }
        } else if pos == digits {
            // A bare `-`.
            Err(err(ParseErrorKind::InvalidNumber, start))
        } else {
            int.map(Value::Int)
                .ok_or(err(ParseErrorKind::IntegerOutOfRange, start))
        }
    }

    /// A string literal, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        let open = self.pos;
        self.pos += 1;
        let run = self.plain_run();
        match self.peek() {
            None => Err(err(ParseErrorKind::UnterminatedString, open)),
            Some(b'"') => {
                self.pos += 1;
                Ok(Cow::Borrowed(run))
            }
            Some(_) => self.escaped_string(open, run.to_string()).map(Cow::Owned),
        }
    }

    /// Consumes the longest run without `"` or `\` and returns it. Both
    /// are ASCII and never occur inside a multi-byte UTF-8 sequence, so
    /// the run starts and ends on character boundaries of the input.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b == b'"' || b == b'\\' {
                break;
            }
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// The rest of a string that holds an escape, appended to `out`; the
    /// input sits at a `\`.
    fn escaped_string(&mut self, open: usize, mut out: String) -> Result<String, ParseError> {
        let bytes = self.text.as_bytes();
        loop {
            match bytes.get(self.pos) {
                None => return Err(err(ParseErrorKind::UnterminatedString, open)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let pos = self.pos;
                    match bytes.get(pos) {
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
                                .get(pos + 1..pos + 5)
                                .ok_or(err(ParseErrorKind::BadEscape, pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| err(ParseErrorKind::BadEscape, pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(ParseErrorKind::BadEscape, pos))?;
                            // Surrogate pairs are not needed by any schema here.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(err(ParseErrorKind::BadCodePoint, pos))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(err(ParseErrorKind::BadEscape, pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume '['
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(Vec::new()));
        }
        let mut items = Vec::new();
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(err(
                        ParseErrorKind::ExpectedCommaOrClose { close: ']' },
                        self.pos,
                    ))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1; // consume '{'
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(Object::new()));
        }
        let mut members = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(err(ParseErrorKind::ExpectedKey, self.pos));
            }
            let key = Key::new(&self.string()?);
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(err(ParseErrorKind::ExpectedColon, self.pos));
            }
            self.pos += 1;
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(Object::from_members(members)));
                }
                _ => {
                    return Err(err(
                        ParseErrorKind::ExpectedCommaOrClose { close: '}' },
                        self.pos,
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": -3}}"#;
        let v = parse(text).unwrap();
        let again = parse(&v.pretty()).unwrap();
        assert_eq!(v, again);
        let compact = parse(&v.compact()).unwrap();
        assert_eq!(v, compact);
    }

    #[test]
    fn compact_is_single_line_and_sorted() {
        let v = parse(r#"{"b": 2, "a": [1, "x", {"k": null}]}"#).unwrap();
        assert_eq!(v.compact(), r#"{"a":[1,"x",{"k":null}],"b":2}"#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{ not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"unclosed": "#).is_err());
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(parse("").unwrap_err().kind, ParseErrorKind::UnexpectedEnd);
        assert_eq!(
            parse("{} x").unwrap_err(),
            ParseError {
                kind: ParseErrorKind::TrailingChars,
                at: 3
            }
        );
        assert_eq!(
            parse("[1 2]").unwrap_err().kind,
            ParseErrorKind::ExpectedCommaOrClose { close: ']' }
        );
        assert_eq!(
            parse("{\"a\" 1}").unwrap_err().kind,
            ParseErrorKind::ExpectedColon
        );
        assert_eq!(
            parse("tru").unwrap_err().kind,
            ParseErrorKind::InvalidLiteral
        );
        assert_eq!(
            parse("\"ab").unwrap_err().kind,
            ParseErrorKind::UnterminatedString
        );
    }

    #[test]
    fn typed_views() {
        let v = parse(r#"{"i": 3, "f": 1.5, "s": "x", "b": true, "a": []}"#).unwrap();
        assert_eq!(v.get("i").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("f").unwrap().as_i64(), None);
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.as_object().unwrap().len(), 5);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for text in ["1e999", "-1e999", "1e309", "[1, 2e99999]"] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.kind, ParseErrorKind::NumberNotFinite, "{text}: {e}");
        }
        // Large but finite exponents still parse.
        assert_eq!(parse("1e99").unwrap().as_f64(), Some(1e99));
    }

    #[test]
    fn negative_zero_parses_as_integer_zero() {
        assert_eq!(parse("-0").unwrap(), Value::Int(0));
        assert_eq!(parse("-0").unwrap().as_i64(), Some(0));
        // The float spelling stays a float but still views as 0.
        assert_eq!(parse("-0.0").unwrap().as_i64(), Some(0));
        assert_eq!(parse("-0.0").unwrap().as_f64(), Some(-0.0));
    }

    #[test]
    fn i64_boundaries() {
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::Int(i64::MIN));
        assert_eq!(parse("9223372036854775807").unwrap(), Value::Int(i64::MAX));
        assert_eq!(
            parse("9223372036854775808").unwrap_err().kind,
            ParseErrorKind::IntegerOutOfRange
        );
        assert_eq!(
            parse("-9223372036854775809").unwrap_err().kind,
            ParseErrorKind::IntegerOutOfRange
        );
        // i64::MIN survives the f64 view (exactly representable).
        assert_eq!(
            parse("-9223372036854775808").unwrap().as_f64(),
            Some(i64::MIN as f64)
        );
        // ... but is outside as_i64's exact-integral float window when
        // spelt as a float.
        assert_eq!(parse("-9.223372036854776e18").unwrap().as_i64(), None);
    }

    #[test]
    fn malformed_numbers_are_invalid_not_overflow() {
        for text in ["-", "1.2.3", "1e", "--5", "1e+-2"] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.kind, ParseErrorKind::InvalidNumber, "{text}: {e}");
        }
    }

    #[test]
    fn last_duplicate_key_wins() {
        let v = parse(r#"{"b": 1, "a": 2, "b": 3, "a": 4, "b": 5}"#).unwrap();
        assert_eq!(v.compact(), r#"{"a":4,"b":5}"#);
        assert_eq!(v.as_object().unwrap().len(), 2);
        let built = object([
            ("k", Value::Int(1)),
            ("j", Value::Null),
            ("k", Value::Int(2)),
        ]);
        assert_eq!(built.compact(), r#"{"j":null,"k":2}"#);
    }

    #[test]
    fn keys_inline_up_to_the_limit_and_box_beyond_it() {
        for len in [0, 1, INLINE_KEY - 1, INLINE_KEY, INLINE_KEY + 1, 64] {
            let text = "k".repeat(len);
            let key = Key::new(&text);
            assert_eq!(
                matches!(key, Key::Inline { .. }),
                len <= INLINE_KEY,
                "{len}"
            );
            assert_eq!(key.as_str(), text);
        }
        // A multi-byte key is inline by its byte length.
        assert!(matches!(Key::new("ключ_ключ_ключ"), Key::Heap(_)));
        assert_eq!(Key::new("ключ").as_str(), "ключ");
        // An inline key costs no more room than a boxed one.
        assert_eq!(
            std::mem::size_of::<Key>(),
            std::mem::size_of::<Box<str>>() + 8
        );
    }

    #[test]
    fn members_insert_and_remove_in_key_order() {
        let mut v = parse(r#"{"op": "ping", "id": 7}"#).unwrap();
        let Value::Object(obj) = &mut v else {
            unreachable!("parsed an object")
        };
        assert_eq!(obj.remove("id"), Some(Value::Int(7)));
        assert_eq!(obj.remove("id"), None);
        assert_eq!(obj.insert("feasible", Value::Bool(true)), None);
        assert_eq!(
            obj.insert("feasible", Value::Bool(false)),
            Some(Value::Bool(true))
        );
        assert_eq!(obj.keys().collect::<Vec<_>>(), ["feasible", "op"]);
        assert_eq!(v.compact(), r#"{"feasible":false,"op":"ping"}"#);
    }

    #[test]
    fn integers_render_like_display() {
        for n in [0, 7, -7, 10, -10, 1_000_000, i64::MAX, i64::MIN] {
            assert_eq!(Value::Int(n).compact(), n.to_string());
        }
    }

    #[test]
    fn rejects_adversarial_nesting_without_stack_overflow() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep { limit: 128 });
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }
}
