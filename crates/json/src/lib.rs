//! Minimal JSON reading/writing shared across the workspace.
//!
//! The build environment has no registry access, so instead of `serde_json`
//! this crate implements the small subset its consumers need: a
//! recursive-descent parser into a [`Json`] value tree, an [`escape`]r for
//! embedding strings in hand-written JSON output, and a number formatter.
//! It started life inside `uo_bench` (perf artifacts) and moved here so the
//! SPARQL results serializer (`uo_sparql::results`) and the HTTP
//! endpoint's `/metrics` view (`uo_server`) reuse the same escaping logic
//! instead of duplicating it.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (sorted), which is fine for
    /// the gate's lookups.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A JSON parse error with byte offset.
#[derive(Debug, Clone)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters", pos));
    }
    Ok(value)
}

fn err(message: &str, offset: usize) -> JsonError {
    JsonError { message: message.to_string(), offset }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err("invalid literal", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| err("invalid number", start))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| err("invalid \\u escape", *pos))?;
                        // Surrogate pairs are not needed for our artifacts;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("invalid escape", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged. A
                // truncated sequence at end of input is a parse error, not
                // a panic.
                let len = utf8_len(c);
                let bytes =
                    b.get(*pos..*pos + len).ok_or_else(|| err("truncated UTF-8 sequence", *pos))?;
                let s = std::str::from_utf8(bytes).map_err(|_| err("invalid UTF-8", *pos))?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err("expected object key", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(err("expected ':'", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err("expected ',' or '}'", *pos)),
        }
    }
}

/// Escapes a string for embedding in JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = escape_into(s, &mut out); // writing to a String cannot fail
    out
}

/// [`escape`] into any [`fmt::Write`] sink, without allocating: runs of
/// characters that need no escaping are written as one slice.
pub fn escape_into<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Every escaped character is ASCII, so byte offsets at them are char
    // boundaries and multi-byte sequences pass through inside the runs.
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let control;
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x00..=0x1f => {
                control =
                    [b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]];
                std::str::from_utf8(&control).expect("six ASCII bytes")
            }
            _ => continue,
        };
        out.write_str(&s[clean..i])?;
        out.write_str(escaped)?;
        clean = i + 1;
    }
    out.write_str(&s[clean..])
}

/// Formats an `f64` as a JSON number (finite values only; NaN/inf become
/// `null`, which the parser reads back as absent-like).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a dot; keep them valid JSON
        // numbers either way (they are), so nothing more to do.
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Json::Str("a\nb".to_string()));
    }

    #[test]
    fn parses_nested_structure() {
        let doc = r#"{"a": [1, 2, {"b": "x"}], "c": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        // Unterminated string ending in a multi-byte char: error, no panic.
        assert!(parse("\"caf\u{e9}").is_err());
    }

    #[test]
    fn multibyte_strings_round_trip() {
        let v = parse("\"caf\u{e9} \u{1f600}\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} \u{1f600}"));
    }

    #[test]
    fn escape_round_trips() {
        let original = "line\nwith \"quotes\" and \\slashes\\";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap(), Json::Str(original.to_string()));
    }

    #[test]
    fn escape_into_writes_controls_as_u_escapes() {
        let mut out = String::from("[");
        escape_into("a\u{1}\u{1f}\"caf\u{e9}\t", &mut out).unwrap();
        assert_eq!(out, "[a\\u0001\\u001f\\\"caf\u{e9}\\t");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn num_formats_finite_values() {
        assert_eq!(num(2.5), "2.5");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(f64::NAN), "null");
    }
}
