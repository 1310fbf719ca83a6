//! A minimal JSON value, parser and writer.
//!
//! The workspace builds offline, so the wire layer is hand-rolled like the
//! store format. The subset implemented here is exactly what the serving
//! protocol needs: objects, arrays, strings (with `\uXXXX` escapes), numbers,
//! booleans and null. Two deliberate choices keep query fingerprints and MI
//! bit-patterns exact across the wire:
//!
//! * numbers without a fraction or exponent that fit an `i64` parse as
//!   [`Json::Int`], so 64-bit sketch seeds round-trip losslessly;
//! * floats use Rust's shortest-round-trip `{}` formatting on the way out and
//!   standard `f64` parsing on the way in, which is an exact round trip.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part that fits an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted (`BTreeMap`), which canonicalizes the
    /// serialized form — two requests with the same fields in a different
    /// order fingerprint identically.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key`, when this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an `i64` (integers only).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// This value as an `f64` (accepts integers too).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// This value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to a compact JSON string. Object keys come out
    /// in sorted order, so the encoding is canonical.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let mut s = format!("{f}");
                    // `{}` omits the decimal point for integral floats; add
                    // one so the value parses back as Float, not Int.
                    if !s.contains(['.', 'e', 'E']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    // JSON has no NaN/Inf; the protocol never emits them
                    // (MI estimates are finite by construction).
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document, rejecting trailing garbage.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

/// Convenience: builds an object from key/value pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn write_json_string(out: &mut String, s: &str) {
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

/// A parse failure with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting limit: deep enough for any protocol message, shallow enough that
/// hostile input cannot overflow the stack (the parser recurses).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    /// The document; `pos` only ever advances over whole characters, so it
    /// always sits on a char boundary of `text`.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(JsonError::at(self.pos, "nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::at(
                self.pos,
                format!("unexpected character '{}'", other as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(JsonError::at(self.pos, format!("expected '{text}'")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key, value).is_some() {
                return Err(JsonError::at(self.pos, "duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    // Infallible expect below: `pos` is a char boundary short of the end.
    #[allow(clippy::expect_used)]
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = match cp {
                                0xD800..=0xDBFF => {
                                    // Surrogate pair: require \uXXXX low half.
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let low = self.hex4()?;
                                        if !(0xDC00..=0xDFFF).contains(&low) {
                                            return Err(JsonError::at(
                                                start,
                                                "invalid low surrogate",
                                            ));
                                        }
                                        let combined = 0x10000
                                            + ((u32::from(cp) - 0xD800) << 10)
                                            + (u32::from(low) - 0xDC00);
                                        char::from_u32(combined)
                                            .ok_or_else(|| JsonError::at(start, "invalid scalar"))?
                                    } else {
                                        return Err(JsonError::at(start, "lone high surrogate"));
                                    }
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(JsonError::at(start, "lone low surrogate"))
                                }
                                cp => char::from_u32(u32::from(cp))
                                    .ok_or_else(|| JsonError::at(start, "invalid scalar"))?,
                            };
                            out.push(c);
                            continue; // hex4 consumed trailing digits already
                        }
                        _ => return Err(JsonError::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at(self.pos, "control character in string"))
                }
                Some(_) => {
                    // Consume one scalar in O(1): re-validating the rest of
                    // the document per character would make parsing O(n²).
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| JsonError::at(self.pos, "truncated \\u escape"))?;
        let s = std::str::from_utf8(digits)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        let value = u16::from_str_radix(s, 16)
            .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    // Infallible expect: the consumed span holds only ASCII number bytes.
    #[allow(clippy::expect_used)]
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => Err(JsonError::at(start, format!("invalid number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Int(42)),
            ("-7", Json::Int(-7)),
            ("1.5", Json::Float(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(Json::parse(text).unwrap(), value);
            assert_eq!(Json::parse(&value.encode()).unwrap(), value);
        }
    }

    #[test]
    fn i64_extremes_are_exact() {
        for i in [i64::MAX, i64::MIN, 1 << 62, u32::MAX as i64 + 1] {
            let encoded = Json::Int(i).encode();
            assert_eq!(Json::parse(&encoded).unwrap(), Json::Int(i));
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for f in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -2.5e-17, 3.0] {
            let encoded = Json::Float(f).encode();
            match Json::parse(&encoded).unwrap() {
                Json::Float(parsed) => assert_eq!(parsed.to_bits(), f.to_bits(), "{encoded}"),
                other => panic!("expected float from {encoded}, got {other:?}"),
            }
        }
    }

    #[test]
    fn nested_structures_round_trip_canonically() {
        let text = r#" { "b" : [1, 2.5, "x\n\u00e9"], "a": {"inner": null} } "#;
        let value = Json::parse(text).unwrap();
        let encoded = value.encode();
        // Canonical: keys sorted, no whitespace.
        assert_eq!(encoded, r#"{"a":{"inner":null},"b":[1,2.5,"x\né"]}"#);
        assert_eq!(Json::parse(&encoded).unwrap(), value);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"",
            "{\"a\":}",
            "01x",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "nul",
            "\"\\q\"",
            "\"\u{1}\"",
            "[1]]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn raw_multibyte_characters_decode_in_place() {
        let text = "[\"zürich\", \"東京\", \"🦀x\", \"a\\né\"]";
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::Arr(vec![
                Json::Str("zürich".into()),
                Json::Str("東京".into()),
                Json::Str("🦀x".into()),
                Json::Str("a\né".into()),
            ])
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse(r#""\ud83e\udd80""#).unwrap(),
            Json::Str("🦀".into())
        );
        assert!(Json::parse(r#""\ud83e""#).is_err());
        assert!(Json::parse(r#""\udd80""#).is_err());
    }
}
