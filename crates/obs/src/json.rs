//! The workspace's one JSON reader (and string escaper).
//!
//! The workspace is offline — no serde_json. Every JSON document the
//! repo reads back goes through [`parse`]: trace journals
//! (`wcms-trace`), the serve wire protocol and job journal, and the
//! checksummed checkpoint records (cells, manifests, leases). The value
//! model is deliberately small: numbers are `f64` (integer fields are
//! read with [`Value::as_u64`], exact up to 2^53) and objects preserve
//! insertion order. Nesting is capped at [`MAX_DEPTH`], so a hostile
//! document cannot recurse the reader off its thread's stack.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. Far deeper than any
/// document the repo writes; bounds the reader's recursion so a frame
/// of nothing but `[` is a typed error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Not well-formed JSON: the byte offset and what was expected.
    Syntax(String),
    /// Arrays/objects nest deeper than [`MAX_DEPTH`] at this byte offset.
    TooDeep(usize),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(msg) => f.write_str(msg),
            ParseError::TooDeep(at) => write!(f, "byte {at}: nested deeper than {MAX_DEPTH}"),
        }
    }
}

type Parsed<T> = Result<T, ParseError>;

/// A [`ParseError::Syntax`] at byte `at`.
fn syntax<T>(at: usize, what: impl fmt::Display) -> Parsed<T> {
    Err(ParseError::Syntax(format!("byte {at}: {what}")))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match), else `None`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as an exact `u64` if this is a non-negative integral
    /// number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number as `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`ParseError::Syntax`] naming the byte offset and what was expected
/// there, or [`ParseError::TooDeep`] past [`MAX_DEPTH`] levels.
pub fn parse(text: &str) -> Parsed<Value> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return syntax(pos, "trailing characters after the document");
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(*pos) {
        *pos += 1;
    }
}

// The readers below take the document as `&str` and advance `pos` only
// past ASCII bytes or whole strings, so `pos` is always a char boundary.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Parsed<Value> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(ParseError::TooDeep(*pos)),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(text, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
        None => syntax(*pos, "unexpected end of input"),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Parsed<Value> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        syntax(*pos, format_args!("expected '{lit}'"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Parsed<Value> {
    let start = *pos;
    if let Some(b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(*pos) {
        *pos += 1;
    }
    // The scanned bytes are ASCII, so the slice is valid UTF-8.
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or_default();
    match text.parse::<f64>() {
        Ok(n) => Ok(Value::Num(n)),
        Err(_) => syntax(start, format_args!("'{text}' is not a number")),
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Parsed<String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return syntax(*pos, "unterminated string"),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex =
                            bytes.get(*pos + 1..*pos + 5).and_then(|h| std::str::from_utf8(h).ok());
                        let Some(code) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
                            return syntax(*pos, "bad \\u escape");
                        };
                        // Surrogates (journals never emit them) degrade
                        // to the replacement character rather than fail.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return syntax(*pos, format_args!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote
                // or backslash; both are ASCII, so it ends on a char
                // boundary of the already-valid `text`.
                let run = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\');
                let end = run.map_or(bytes.len(), |len| *pos + len);
                out.push_str(&text[*pos..end]);
                *pos = end;
            }
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Parsed<Value> {
    let bytes = text.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => return syntax(*pos, format_args!("expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Parsed<Value> {
    let bytes = text.as_bytes();
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return syntax(*pos, "expected a string key");
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return syntax(*pos, "expected ':'");
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => return syntax(*pos, format_args!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// `s` as a JSON string literal (with quotes).
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// Append `s` as a JSON string literal (with quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::Str("a\nb".into()));
        assert_eq!(parse(r#""é""#).unwrap(), Value::Str("é".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Value::Bool(false)));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            Value::Obj(members) => {
                assert_eq!(members[0].0, "z");
                assert_eq!(members[1].0, "a");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", r#"{"a" 1}"#, "tru", "1 2", r#""unterminated"#] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let hostile = "a\"b\\c\nd\te\u{1}f é";
        let mut doc = String::new();
        escape_into(&mut doc, hostile);
        assert_eq!(parse(&doc).unwrap(), Value::Str(hostile.into()));
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |k: usize| format!("{}{}", "[".repeat(k), "]".repeat(k));
        assert!(parse(&nest(MAX_DEPTH)).is_ok(), "MAX_DEPTH levels must parse");
        assert_eq!(parse(&nest(MAX_DEPTH + 1)), Err(ParseError::TooDeep(MAX_DEPTH)));
        assert!(matches!(parse(&"{\"a\":".repeat(1 << 16)), Err(ParseError::TooDeep(_))));
    }

    /// A string costs time linear in its length: a 1 MiB string of
    /// mixed one- and multi-byte characters and escapes parses well
    /// inside a second (a reader that rescans the rest of the document
    /// per character needs tens of seconds).
    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let unit = "abcé→\\n\\u0041😀";
        let body = unit.repeat((1 << 20) / unit.len());
        let want: String = body.replace("\\n", "\n").replace("\\u0041", "A");
        let started = std::time::Instant::now();
        let parsed = parse(&format!("\"{body}\""));
        let took = started.elapsed();
        assert_eq!(parsed, Ok(Value::Str(want)));
        assert!(took < std::time::Duration::from_secs(1), "1 MiB string took {took:?}");
    }

    #[test]
    fn timestamps_survive_as_exact_integers() {
        let v = parse("1234567890123").unwrap();
        assert_eq!(v.as_u64(), Some(1_234_567_890_123));
    }
}
