//! Dependency-free JSON for the selfstab workspace.
//!
//! The build environment has no crates.io access, so instead of serde +
//! serde_json the workspace uses this small crate: a [`Json`] value model,
//! a strict parser ([`Json::parse`]), compact and pretty printers, and the
//! [`ToJson`] / [`FromJson`] conversion traits that replace
//! `#[derive(Serialize, Deserialize)]` with explicit impls.
//!
//! Design notes:
//!
//! * Numbers are kept as `i64` / `u64` / `f64` variants so 64-bit node IDs
//!   round-trip exactly (a plain `f64` model would corrupt them above
//!   2^53).
//! * Non-finite floats print as `null` (matching serde_json) and parse
//!   back as NaN via [`FromJson`] for `f64`.
//! * Object fields keep insertion order, so output is deterministic.
//! * The parser recurses once per `[` or `{`, so it rejects documents
//!   nested deeper than [`MAX_DEPTH`] with an error instead of overflowing
//!   the stack: one hostile line must not abort a daemon.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A negative integer (parser: any integer with a leading `-`).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A number with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields keep insertion order.
    Object(Vec<(String, Json)>),
}

/// A parse or conversion failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Build an error from a message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, JsonError>;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Build an object from field pairs (keeps the given order).
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the key name — the `FromJson`
    /// impl workhorse.
    pub fn field(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// Typed field lookup: `field` + [`FromJson`], with the key name
    /// prepended to any shape error (so a deep record mismatch says *which*
    /// field, not just "expected u64").
    pub fn parse_field<T: FromJson>(&self, key: &str) -> Result<T> {
        T::from_json(self.field(key)?)
            .map_err(|e| JsonError::new(format!("field `{key}`: {}", e.message)))
    }

    /// `true` iff the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::I64(n) => Some(*n as f64),
            Json::U64(n) => Some(*n as f64),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a JSON document (strict: rejects trailing input).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Render with 2-space indentation. (Compact rendering is the
    /// [`Display`](fmt::Display) impl, i.e. plain `.to_string()`.)
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => {
                if x.is_finite() {
                    // `{:?}` guarantees a round-trippable rendering and
                    // keeps a distinguishing `.0` on integral floats.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, or fail past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
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
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Four hex digits; leaves `pos` just past them.
    fn hex4(&mut self) -> Result<u32> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json> {
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
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(n) = stripped.parse::<u64>() {
                    if let Ok(i) = i64::try_from(n).map(|i| -i) {
                        return Ok(Json::I64(i));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError::new(format!("invalid number `{text}`")))
    }
}

/// Conversion into a [`Json`] value (replaces `serde::Serialize`).
pub trait ToJson {
    /// Build the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value (replaces `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Reconstruct a value, with a descriptive error on shape mismatch.
    fn from_json(value: &Json) -> Result<Self>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self> {
        Ok(value.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::new("expected bool"))
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| JsonError::new(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::new(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let v = *self as i64;
                if v >= 0 { Json::U64(v as u64) } else { Json::I64(v) }
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self> {
                let n = value
                    .as_i64()
                    .ok_or_else(|| JsonError::new(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| JsonError::new(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        if self.is_finite() {
            Json::F64(*self)
        } else {
            Json::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self> {
        if value.is_null() {
            // Non-finite floats serialize as null; NaN is the only
            // self-describing reconstruction.
            return Ok(f64::NAN);
        }
        value
            .as_f64()
            .ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
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

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_json(value).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self> {
        match value.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new("expected 2-element array")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in [
            "null", "true", "false", "0", "-7", "42.5", "\"hi\"", "[]", "{}",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn big_u64_is_exact() {
        let n = u64::MAX - 3;
        let v = Json::parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(u64::from_json(&v).unwrap(), n);
    }

    #[test]
    fn nested_structure_and_pretty() {
        let v = Json::obj([
            ("n", 3u32.to_json()),
            ("edges", vec![(0u32, 1u32), (1, 2)].to_json()),
            ("name", "C3".to_json()),
        ]);
        let compact = v.to_string();
        assert_eq!(compact, r#"{"n":3,"edges":[[0,1],[1,2]],"name":"C3"}"#);
        let back = Json::parse(&compact).unwrap();
        assert_eq!(back, v);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"edges\": ["));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn string_escapes() {
        let original = "line\nquote\"back\\slash\ttab\u{1F600}é";
        let rendered = original.to_json().to_string();
        let back = String::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(back, original);
        // \u escapes, including a surrogate pair.
        let v = Json::parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn non_finite_floats_are_null() {
        assert_eq!(f64::NAN.to_json(), Json::Null);
        assert!(f64::from_json(&Json::Null).unwrap().is_nan());
        assert_eq!(f64::from_json(&Json::F64(2.5)).unwrap(), 2.5);
    }

    #[test]
    fn parse_field_names_the_offending_key() {
        let v = Json::obj([("n", "oops".to_json())]);
        assert_eq!(v.parse_field::<String>("n").unwrap(), "oops".to_string());
        let err = v.parse_field::<u64>("n").unwrap_err();
        assert!(err.to_string().contains("field `n`"), "{err}");
        assert!(err.to_string().contains("expected u64"), "{err}");
        let err = v.parse_field::<u64>("absent").unwrap_err();
        assert!(err.to_string().contains("missing field `absent`"), "{err}");
    }

    #[test]
    fn parse_field_round_trips_escaped_protocol_strings() {
        // Protocol messages carry client-controlled strings (tags, error
        // text) in object fields; a full render → parse → parse_field
        // cycle must preserve every escape class, and keys themselves may
        // need escaping.
        let hostile = "tag with \"quotes\", back\\slash,\nnewline, \r\t\u{0} control, \u{1F600}é";
        let msg = Json::obj([
            ("op", "mutate".to_json()),
            ("tag", hostile.to_json()),
            ("weird \"key\"\n", 7u64.to_json()),
        ]);
        let line = msg.to_string();
        assert!(
            !line.contains('\n'),
            "a wire message stays one line: {line:?}"
        );
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.parse_field::<String>("op").unwrap(), "mutate");
        assert_eq!(back.parse_field::<String>("tag").unwrap(), hostile);
        assert_eq!(back.parse_field::<u64>("weird \"key\"\n").unwrap(), 7);
        // Idempotent: re-render the parsed value and parse again.
        assert_eq!(Json::parse(&back.to_string()).unwrap(), back);
    }

    #[test]
    fn option_and_field_access() {
        let v = Json::obj([("a", None::<u32>.to_json()), ("b", Some(9u32).to_json())]);
        assert_eq!(
            Option::<u32>::from_json(v.field("a").unwrap()).unwrap(),
            None
        );
        assert_eq!(
            Option::<u32>::from_json(v.field("b").unwrap()).unwrap(),
            Some(9)
        );
        let err = v.field("missing").unwrap_err();
        assert!(err.to_string().contains("missing field `missing`"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            "\"unterminated",
            "[01x]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&nested(depth)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Objects count too, and so does any mix, unclosed or not.
        let objects = r#"{"a":"#.repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(Json::parse(&objects).is_ok());
        assert!(Json::parse(&format!("[{objects}]")).is_err());
        assert!(Json::parse(&r#"[{"a":"#.repeat(100_000)).is_err());
        // Siblings do not add up: depth is nesting, not count.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1); 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(
            Json::parse("-9007199254740993").unwrap().as_i64(),
            Some(-9007199254740993)
        );
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5e-1").unwrap().as_f64(), Some(-0.25));
    }
}
