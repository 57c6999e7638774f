//! A minimal JSON value model, parser and serialiser.
//!
//! The serving front-end (`saber-serve`) speaks JSON over HTTP, and the
//! build environment has no access to crates.io, so this module provides the
//! small slice of JSON the workspace needs: a [`JsonValue`] tree, a
//! recursive-descent [`parse`] with bounded depth, and a `Display`-based
//! serialiser with proper string escaping.
//!
//! Two deliberate deviations from a general-purpose JSON crate:
//!
//! * Unsigned integer literals that fit in a `u64` are kept exact
//!   ([`JsonValue::Uint`]) instead of being routed through `f64`, so request
//!   seeds — which must replay bit-identically — survive the wire even above
//!   2⁵³. Everything else becomes [`JsonValue::Number`].
//! * Non-finite floats serialise as `null` (JSON has no NaN/∞).
//!
//! # Example
//!
//! ```
//! use saber_core::json::{parse, JsonValue};
//!
//! let v = parse(r#"{"words": [0, 2, 4], "seed": 18446744073709551615}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
//! let words: Vec<u64> = v.get("words").unwrap().as_array().unwrap()
//!     .iter().filter_map(JsonValue::as_u64).collect();
//! assert_eq!(words, [0, 2, 4]);
//! assert_eq!(v.to_string(), r#"{"words":[0,2,4],"seed":18446744073709551615}"#);
//! ```

use std::fmt;

/// Maximum nesting depth [`parse`] accepts before reporting
/// [`JsonError::TooDeep`]; prevents stack exhaustion on adversarial input.
pub(crate) const MAX_DEPTH: usize = 64;

/// One JSON value.
///
/// Objects preserve insertion order (they are a `Vec` of pairs, not a map):
/// serialisation is deterministic, and the handful of keys per wire message
/// makes linear [`JsonValue::get`] lookup cheaper than hashing.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer literal that fits in `u64`, kept exact.
    Uint(u64),
    /// Any other number (negative, fractional or exponent form).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object, or `None` for non-objects / absent keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`: exact for [`JsonValue::Uint`]; accepted for
    /// [`JsonValue::Number`] only when integral, non-negative and below 2⁵³
    /// (the exact range of `f64`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::Uint(u) => Some(u),
            JsonValue::Number(n) if n >= 0.0 && n.fract() == 0.0 && n < 9_007_199_254_740_992.0 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (lossy above 2⁵³ for [`JsonValue::Uint`]).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Uint(u) => Some(u as f64),
            JsonValue::Number(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers from `f32` samples (the θ wire format).
    pub fn f32_array(values: &[f32]) -> JsonValue {
        JsonValue::Array(
            values
                .iter()
                .map(|&x| JsonValue::Number(f64::from(x)))
                .collect(),
        )
    }
}

impl From<u64> for JsonValue {
    fn from(u: u64) -> Self {
        JsonValue::Uint(u)
    }
}

impl From<usize> for JsonValue {
    fn from(u: usize) -> Self {
        JsonValue::Uint(u as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Uint(u) => write!(f, "{u}"),
            JsonValue::Number(n) => {
                if n.is_finite() {
                    // `{}` on f64 prints the shortest representation that
                    // round-trips (integral floats come out as "1").
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A string as a JSON string literal (quoted and escaped exactly as
/// [`JsonValue::String`] prints it), for writers that print a body without
/// building a [`JsonValue`] tree.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.0)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Unexpected byte (or end of input) at `offset`.
    Unexpected {
        /// Byte offset into the input.
        offset: usize,
        /// What was found / expected.
        detail: String,
    },
    /// Nesting exceeded `MAX_DEPTH` (64).
    TooDeep,
    /// Valid JSON followed by trailing non-whitespace.
    TrailingData {
        /// Byte offset of the first trailing byte.
        offset: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Unexpected { offset, detail } => {
                write!(f, "invalid JSON at byte {offset}: {detail}")
            }
            JsonError::TooDeep => write!(f, "JSON nested deeper than {MAX_DEPTH} levels"),
            JsonError::TrailingData { offset } => {
                write!(f, "trailing data after JSON value at byte {offset}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (a single value plus optional surrounding
/// whitespace).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, nesting beyond `MAX_DEPTH`,
/// or trailing bytes after the value.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::TrailingData { offset: p.pos });
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError::Unexpected {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one whole UTF-8 scalar (input is &str, so any
                    // multi-byte sequence here is valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The value of the digits while it fits a `u64`: word ids, topic
        // ids and integral counts are most of every body on the serving
        // path, and this spares them a second pass over the text.
        let mut uint = Some(0u64);
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            uint = uint.and_then(|u| u.checked_mul(10)?.checked_add(u64::from(digit - b'0')));
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if let (true, false, Some(u)) = (integral, negative, uint) {
            return Ok(JsonValue::Uint(u));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| JsonError::Unexpected {
                offset: start,
                detail: format!("invalid number '{text}'"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for (text, value) in [
            ("null", JsonValue::Null),
            ("true", JsonValue::Bool(true)),
            ("false", JsonValue::Bool(false)),
            ("0", JsonValue::Uint(0)),
            ("18446744073709551615", JsonValue::Uint(u64::MAX)),
            // One past `u64::MAX` and twenty-one digits: too wide to stay exact.
            (
                "18446744073709551616",
                JsonValue::Number(18446744073709551616.0),
            ),
            ("100000000000000000000", JsonValue::Number(1e20)),
            ("007", JsonValue::Uint(7)),
            ("12.0", JsonValue::Number(12.0)),
            ("-1", JsonValue::Number(-1.0)),
            ("0.5", JsonValue::Number(0.5)),
            ("1e3", JsonValue::Number(1000.0)),
            (r#""hi""#, JsonValue::String("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 7;
        let doc = JsonValue::object([("seed", JsonValue::Uint(seed))]).to_string();
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(seed));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,2.5,{"b":null}],"c":"x\"y\\z","d":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("c").unwrap().as_str(), Some(r#"x"y\z"#));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn string_escapes_and_unicode() {
        let v = parse(r#""line\nfeed \u00e9 \ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nfeed é 😀"));
        // Control characters are re-escaped on output.
        assert_eq!(
            JsonValue::String("a\u{1}b".into()).to_string(),
            r#""a\u0001b""#
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for text in [
            "",
            "{",
            "[1,",
            "nul",
            r#"{"a" 1}"#,
            "1 2",
            "[1]]",
            "\"\\x\"",
            "\"\u{1}\"",
            r#""\ud800""#,
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep), Err(JsonError::TooDeep));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors_and_conversions() {
        let v = JsonValue::object([
            ("f", JsonValue::from(0.25)),
            ("u", JsonValue::from(3usize)),
            ("s", JsonValue::from("str")),
            ("b", JsonValue::Bool(false)),
        ]);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("f").unwrap().as_u64(), None);
        assert_eq!(v.get("u").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("str"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
        // Integral in-range floats are usable as u64; non-integral are not.
        assert_eq!(JsonValue::Number(4.0).as_u64(), Some(4));
        assert_eq!(JsonValue::Number(-4.0).as_u64(), None);
        // Non-finite floats serialise as null.
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn f32_array_helper() {
        let arr = JsonValue::f32_array(&[0.5, 0.25]);
        assert_eq!(arr.to_string(), "[0.5,0.25]");
    }
}
