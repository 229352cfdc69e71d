//! The workspace's one JSON value type, parser and string escape.
//!
//! The workspace deliberately has no external dependencies. Every JSON
//! file it reads goes through [`parse`]: `fault_plan/v1` plans,
//! `hypersio-checkpoint/v2` headers, and the `sim_report/v1` family of
//! outputs that the bench validators check. Every writer builds its own
//! byte layout with format strings and shares only [`escape`].
//!
//! The parser covers the full JSON grammar and is strict where the
//! grammar is: it rejects non-finite numbers (`1e999`), `\u` escapes
//! that are not four hex digits, unpaired surrogates, duplicate object
//! keys, and whitespace other than space, tab, newline and carriage
//! return. Malformed input yields a [`ParseError`] with a byte offset,
//! never a panic.
//!
//! # Examples
//!
//! ```
//! use hypersio_types::json::{self, Json};
//!
//! let doc = json::parse(r#"{"seed": 42, "name": "a\"b"}"#).unwrap();
//! assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(42));
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("a\"b"));
//! assert_eq!(json::escape("a\"b"), r#"a\"b"#);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; always finite).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic for tests.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Returns the object map if this value is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Returns the array elements if this value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string contents if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric value if this value is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the value as a `u64` if it is a non-negative whole number
    /// below 2^64. (`u64::MAX as f64` rounds up to 2^64, so the bound is
    /// exclusive.)
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        self.as_num()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n < TWO_POW_64)
            .map(|n| n as u64)
    }

    /// Returns the boolean value if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// The JSON type of this value, for "expected a number, got string"
    /// messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset at which parsing failed.
    pub at: usize,
    /// Human-readable reason.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a [`ParseError`] at the first byte that is not valid JSON.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if map.contains_key(&key) {
                return Err(ParseError {
                    at: key_at,
                    msg: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&low)
                                        .then(|| 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                                } else {
                                    None
                                }
                            } else {
                                Some(code)
                            };
                            out.push(
                                c.and_then(char::from_u32)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // boundaries are valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .peek()
                        .is_some_and(|b| b & 0xC0 == 0x80 && self.pos - start < 4)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape. Each must be a hex digit:
    /// `u32::from_str_radix` alone would also take a leading `+`.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let code = hex.iter().fold(0, |acc, &b| {
            acc * 16 + (b as char).to_digit(16).expect("checked hex digit")
        });
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = parse(r#"{"a": [1, {"b": "x"}, false], "c": {}}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert!(doc.get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert_eq!(parse(r#""\u00e9\u002F""#).unwrap(), Json::Str("é/".into()));
        // Surrogate pair (U+1F600), raw and escaped.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::Str("😀".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "1 2",
            // A `\u` escape takes exactly four hex digits.
            "\"\\u+02f\"",
            // Numbers must be finite.
            "1e999",
            // Object keys are unique.
            r#"{"a":1,"a":2}"#,
            // Form feed is not JSON whitespace.
            "{\u{c}}",
            // A high surrogate needs a low surrogate after it.
            r#""\ud800""#,
            r#""\ud800\u0041""#,
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_carry_the_byte_offset() {
        let err = parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert_eq!(err.at, 7);
        assert_eq!(
            err.to_string(),
            "JSON parse error at byte 7: duplicate key \"a\""
        );
    }

    #[test]
    fn as_u64_takes_only_whole_numbers_below_two_to_the_64() {
        let n = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(n("0"), Some(0));
        assert_eq!(n("42"), Some(42));
        assert_eq!(n("3e18"), Some(3_000_000_000_000_000_000));
        assert_eq!(n("18446744073709549568"), Some(18_446_744_073_709_549_568));
        assert_eq!(n("18446744073709551616"), None);
        assert_eq!(n("-1"), None);
        assert_eq!(n("1.5"), None);
        assert_eq!(n("\"7\""), None);
    }

    #[test]
    fn type_names() {
        let names: Vec<_> = ["null", "true", "1", "\"s\"", "[]", "{}"]
            .iter()
            .map(|t| parse(t).unwrap().type_name())
            .collect();
        assert_eq!(
            names,
            ["null", "boolean", "number", "string", "array", "object"]
        );
    }

    #[test]
    fn escape_round_trips() {
        let s = "line\n\"quoted\"\tand\\slash\u{1}";
        let parsed = parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(parsed, Json::Str(s.into()));
    }
}
