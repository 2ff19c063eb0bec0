//! A small, dependency-free JSON value type with a parser and a pretty
//! printer, plus the [`ToJson`] trait used by experiment reports, the
//! cleaning leaderboard, and checkpoint files.
//!
//! Floats are printed with Rust's shortest round-trip formatting, so a value
//! survives a serialize → parse cycle bit-identically — a requirement for
//! checkpoint/resume determinism. Unsigned integers are kept exact (seeds
//! and RNG state words do not fit in an `f64`).

use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact (u64 range).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; may round > 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exact `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|u| u as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Print on one line with no whitespace: the form a line-per-record
    /// log stores, and the exact bytes a record checksum covers.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Write pretty-printed at `indent` levels, or compact for `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        // Pretty only: break the line and indent to `levels`.
        let newline = |out: &mut String, levels: Option<usize>| {
            if let Some(levels) = levels {
                out.push('\n');
                push_indent(out, levels);
            }
        };
        let inner = indent.map(|i| i + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => push_fmt(out, format_args!("{u}")),
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` is shortest-round-trip and always marks floats
                    // with a '.' or exponent, so parsing restores the type.
                    push_fmt(out, format_args!("{x:?}"));
                } else {
                    // JSON has no NaN/inf; null is the least-bad encoding.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_escaped(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_pretty())
    }
}

/// Append formatted text to `out` without an intermediate `String`.
fn push_fmt(out: &mut String, args: fmt::Arguments<'_>) {
    fmt::Write::write_fmt(out, args).expect("writing to a String cannot fail");
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our writers;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or_else(|| self.err("bad utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !fractional && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

/// Conversion into a [`Json`] value; the workspace's replacement for
/// `serde::Serialize` (derive with [`crate::json_struct!`]).
pub trait ToJson {
    /// Convert to a JSON document.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! uint_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )*};
}

uint_to_json!(u8, u16, u32, u64, usize);

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                if *self >= 0 {
                    Json::UInt(*self as u64)
                } else {
                    Json::Float(*self as f64)
                }
            }
        }
    )*};
}

int_to_json!(i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Implement [`ToJson`] for a named-field struct by listing its fields:
///
/// ```
/// struct Point { x: f64, y: f64 }
/// nde_data::json_struct!(Point { x, y });
/// let j = nde_data::json::ToJson::to_json(&Point { x: 1.0, y: 2.0 });
/// assert!(j.get("x").is_some());
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
    };
}

// Typed field readers for checkpoint payloads. Each error is a message that
// names the field; every crate wraps it in its own `Checkpoint` error.

/// Field `name` of an object.
pub fn field<'a>(doc: &'a Json, name: &str) -> Result<&'a Json, String> {
    doc.get(name)
        .ok_or_else(|| format!("missing field `{name}`"))
}

/// Field `name` as an exact `u64`.
pub fn uint(doc: &Json, name: &str) -> Result<u64, String> {
    field(doc, name)?
        .as_u64()
        .ok_or_else(|| format!("`{name}` is not an integer"))
}

/// Field `name` as a string.
pub fn text<'a>(doc: &'a Json, name: &str) -> Result<&'a str, String> {
    field(doc, name)?
        .as_str()
        .ok_or_else(|| format!("`{name}` is not a string"))
}

/// Field `name` as an array.
pub fn array<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], String> {
    field(doc, name)?
        .as_arr()
        .ok_or_else(|| format!("`{name}` is not an array"))
}

/// Field `name` as a finite `f64`. A permissive parse turns `1e999` into
/// infinity; refusing it here keeps it out of any resumed fold.
pub fn finite(doc: &Json, name: &str) -> Result<f64, String> {
    match field(doc, name)?.as_f64() {
        Some(v) if v.is_finite() => Ok(v),
        _ => Err(format!("`{name}` is not a finite number")),
    }
}

/// Field `name` as an array of finite `f64`s.
pub fn finite_vec(doc: &Json, name: &str) -> Result<Vec<f64>, String> {
    array(doc, name)?
        .iter()
        .enumerate()
        .map(|(i, v)| match v.as_f64() {
            Some(v) if v.is_finite() => Ok(v),
            _ => Err(format!("`{name}[{i}]` is not a finite number")),
        })
        .collect()
}

/// Field `name` as an array of exact `u64`s.
pub fn uint_vec(doc: &Json, name: &str) -> Result<Vec<u64>, String> {
    array(doc, name)?
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("`{name}` holds a non-integer"))
        })
        .collect()
}

/// Refuse a payload whose `method` tag is not `expected`.
pub fn check_method(doc: &Json, expected: &str) -> Result<(), String> {
    let method = text(doc, "method")?;
    if method != expected {
        return Err(format!(
            "snapshot written by `{method}`, expected `{expected}`"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_structures() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("a \"quoted\"\nline".into())),
            ("count".into(), Json::UInt(u64::MAX)),
            ("score".into(), Json::Float(0.1 + 0.2)),
            ("neg".into(), Json::Float(-1.5e-8)),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "xs".into(),
                Json::Arr(vec![Json::UInt(1), Json::Float(2.5), Json::Str("x".into())]),
            ),
            ("empty_arr".into(), Json::Arr(vec![])),
            ("empty_obj".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        let compact = doc.to_string_compact();
        assert!(!compact.contains('\n') && compact.len() < text.len());
        assert_eq!(Json::parse(&compact).unwrap(), doc);
    }

    #[test]
    fn compact_text_has_no_whitespace() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::UInt(1), Json::Float(2.5)])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Arr(vec![]))])),
            ("d".into(), Json::Str("x y".into())),
        ]);
        assert_eq!(
            doc.to_string_compact(),
            r#"{"a":[1,2.5],"b":{"c":[]},"d":"x y"}"#
        );
        assert_eq!(Json::Float(-0.0).to_string_compact(), "-0.0");
    }

    #[test]
    #[allow(clippy::excessive_precision)] // over-precise literal exercises rounding
    fn floats_roundtrip_bit_identically() {
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            123456789.123456789,
            2f64.powi(-1074),
        ] {
            let text = Json::Float(x).to_string_pretty();
            let back = Json::parse(&text).unwrap();
            let y = back.as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} reparsed as {y}");
        }
    }

    #[test]
    fn u64_values_stay_exact() {
        for u in [0u64, 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let text = Json::UInt(u).to_string_pretty();
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(u));
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{}  extra").is_err());
        assert!(Json::parse("not json").is_err());
    }

    #[test]
    fn accessors_and_lookup() {
        let doc = Json::parse(r#"{"a": 3, "b": [1.5, true], "c": "s"}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_usize(), Some(3));
        assert_eq!(doc.get("b").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("c").unwrap().as_str(), Some("s"));
        assert!(doc.get("missing").is_none());
        assert_eq!(
            doc.get("b").unwrap().as_arr().unwrap()[1].as_bool(),
            Some(true)
        );
    }

    #[test]
    fn json_struct_macro_serializes_fields_in_order() {
        struct Report {
            name: String,
            runs: usize,
            scores: Vec<f64>,
        }
        crate::json_struct!(Report { name, runs, scores });
        let j = Report {
            name: "x".into(),
            runs: 2,
            scores: vec![0.5, 1.0],
        }
        .to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("runs").unwrap().as_usize(), Some(2));
        assert_eq!(j.get("scores").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let text = Json::Float(f64::NAN).to_string_pretty();
        assert_eq!(text, "null");
    }
}
