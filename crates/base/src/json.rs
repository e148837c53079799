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
//! ```
//! use profirt_base::json::{parse, Value};
//!
//! let doc = parse(r#"{"ttr": 2000, "masters": [1, 2]}"#).unwrap();
//! assert_eq!(doc.get("ttr").and_then(Value::as_i64), Some(2000));
//! let again = parse(&doc.pretty()).unwrap();
//! assert_eq!(doc, again);
//! ```

use std::collections::BTreeMap;
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
    /// Key order is normalised; no workspace schema relies on it.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
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
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
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
    /// (object keys are already sorted by the `BTreeMap` representation,
    /// so equal values render to equal bytes).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
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
            Value::Object(map) => {
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
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(f) => {
                let _ = write!(out, "{f}");
            }
            Value::Str(s) => write_escaped(out, s),
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
            Value::Object(map) if map.is_empty() => out.push_str("{}"),
            Value::Object(map) => {
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

/// Convenience: builds an object from key/value pairs.
pub fn object(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
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

/// Recursion guard: adversarially deep documents must error, not blow the
/// stack. 128 is far beyond any real config (which nests 3 levels).
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_DEPTH {
        return Err(err(ParseErrorKind::TooDeep { limit: MAX_DEPTH }, *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(ParseErrorKind::UnexpectedEnd, *pos)),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(err(ParseErrorKind::UnexpectedChar(*c as char), *pos)),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(ParseErrorKind::InvalidLiteral, *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
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
    // The scanned bytes are all from the ASCII number alphabet, so this
    // conversion cannot fail; keep it typed rather than asserting.
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| err(ParseErrorKind::InvalidNumber, start))?;
    if is_float {
        match text.parse::<f64>() {
            // `1e999` overflows to `inf` without a parse error; NaN cannot
            // be produced by the grammar but is rejected for completeness.
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            Ok(_) => Err(err(ParseErrorKind::NumberNotFinite, start)),
            Err(_) => Err(err(ParseErrorKind::InvalidNumber, start)),
        }
    } else {
        match text.parse::<i64>() {
            Ok(n) => Ok(Value::Int(n)),
            // Distinguish an in-grammar integer that merely overflows i64
            // from junk like a bare `-`.
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
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
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
                        // Surrogate pairs are not needed by any schema here.
                        out.push(
                            char::from_u32(code).ok_or(err(ParseErrorKind::BadCodePoint, *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(err(ParseErrorKind::BadEscape, *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the maximal run of plain characters in one go.
                // '"' (0x22) and '\\' (0x5C) never occur inside multi-byte
                // UTF-8 sequences, so scanning raw bytes is sound, and
                // validating only this chunk keeps parsing linear.
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

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
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

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
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
                return Ok(Value::Object(map));
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
    fn rejects_adversarial_nesting_without_stack_overflow() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep { limit: 128 });
        assert!(err.to_string().contains("nesting deeper"), "{err}");
    }
}
