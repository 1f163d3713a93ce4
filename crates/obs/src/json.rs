//! A minimal JSON value, writer, and parser.
//!
//! The workspace has no network access to crates.io, so the exporters and
//! the schema validator carry their own tiny JSON implementation instead
//! of `serde_json`.  Only what the report formats need is implemented:
//! objects, arrays, strings, finite numbers, booleans, and null.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved by the writer, lookups go
    /// through [`Json::get`].
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other variants / missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    pub(crate) fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an object from a string-keyed map (sorted keys).
    pub(crate) fn from_map<V: Into<Json> + Clone>(map: &BTreeMap<String, V>) -> Json {
        Json::Obj(
            map.iter()
                .map(|(k, v)| (k.clone(), v.clone().into()))
                .collect(),
        )
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// Escapes a string for embedding in JSON (quotes not included).
fn escape_into(out: &mut String, s: &str) {
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
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => {
                // JSON has no NaN/Inf; the exporters never produce them,
                // but degrade to null rather than emit invalid output.
                if v.is_finite() {
                    if *v == v.trunc() && v.abs() < 1e15 {
                        write!(f, "{}", *v as i64)
                    } else {
                        write!(f, "{v}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::with_capacity(k.len());
                    escape_into(&mut buf, k);
                    write!(f, "\"{buf}\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses a JSON document; returns the value or a position-annotated error.
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
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
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = src_slice(b, *pos + 1, 4)?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the full UTF-8 sequence starting here.
                        let start = *pos;
                        let len = utf8_len(c);
                        let chunk = b
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        out.push_str(
                            std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8".to_string())?,
                        );
                        *pos += len;
                    }
                }
            }
        }
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number '{text}' at byte {start}"))
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

fn src_slice(b: &[u8], start: usize, len: usize) -> Result<&str, String> {
    b.get(start..start + len)
        .and_then(|s| std::str::from_utf8(s).ok())
        .ok_or_else(|| "truncated escape".to_string())
}

fn literal(b: &[u8], pos: &mut usize, text: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(text.as_bytes()) {
        *pos += text.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::from("Mat\"Mult\"\n")),
            ("count", Json::from(3u64)),
            ("time", Json::from(0.25)),
            (
                "events",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::from(1.5)]),
            ),
        ]);
        let text = doc.to_string();
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parses_numbers_and_unicode() {
        assert_eq!(parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
        assert_eq!(
            parse("\"\\u0041π\"").unwrap().as_str(),
            Some("Aπ"),
            "escapes and multibyte both decode"
        );
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn get_walks_objects() {
        let doc = parse("{\"a\": {\"b\": [1, 2]}}").unwrap();
        let inner = doc.get("a").and_then(|v| v.get("b")).unwrap();
        assert_eq!(inner.as_arr().unwrap().len(), 2);
        assert!(doc.get("missing").is_none());
    }
}
