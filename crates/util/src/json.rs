//! A minimal JSON layer: value tree, writer, parser, and conversion traits.
//!
//! This replaces `serde`/`serde_json` for the workspace's needs. The
//! supported subset is deliberately small and fully deterministic:
//!
//! - **Values**: `null`, booleans, finite IEEE-754 numbers, strings, arrays,
//!   and objects. Objects preserve insertion order (no hashing), so writing
//!   is byte-reproducible.
//! - **Writer**: compact (no whitespace); floats use Rust's shortest
//!   round-trip formatting, integers up to 2^53 are written without a
//!   fractional part. Non-finite floats serialize as `null`, matching
//!   `serde_json`.
//! - **Parser**: recursive-descent with a depth limit of 128, full string
//!   escapes (including `\uXXXX` surrogate pairs), and precise error
//!   positions.
//!
//! Types opt in through [`ToJson`] / [`FromJson`], usually via the
//! [`impl_json_struct!`](crate::impl_json_struct) and
//! [`impl_json_enum!`](crate::impl_json_enum) macros, which mirror serde's
//! derive layout (struct → object keyed by field name; unit enum variant →
//! string; payload variant → `{"Variant": {...}}`).
//!
//! ```
//! use volcast_util::json::{JsonValue, ToJson, FromJson};
//!
//! let v = JsonValue::parse(r#"{"a": [1, 2.5], "b": "x\n"}"#).unwrap();
//! assert_eq!(v.get("b").unwrap().as_str(), Some("x\n"));
//! let round: JsonValue = JsonValue::parse(&v.to_json_string()).unwrap();
//! assert_eq!(v, round);
//! ```

use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; pairs keep insertion order for reproducible output.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(n) => write_number(*n, out),
            JsonValue::Str(s) => write_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (must consume the whole input).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }
}

/// Exact integers print without a fraction; everything else uses Rust's
/// shortest round-trip float formatting. Non-finite → `null`.
fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Errors from parsing or schema conversion.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Syntax error at a byte offset.
    Parse {
        /// Byte offset into the input.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// Structurally valid JSON that does not match the expected schema.
    Schema(String),
}

impl JsonError {
    /// Convenience constructor for schema mismatches.
    pub fn schema(msg: impl Into<String>) -> JsonError {
        JsonError::Schema(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            JsonError::Schema(m) => write!(f, "JSON schema error: {m}"),
        }
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError::Parse {
            offset: self.pos,
            message: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Arr(items));
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
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is valid UTF-8: from &str).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads exactly four hex digits, returning the code unit.
    ///
    /// Each byte is validated as an ASCII hex digit individually;
    /// `from_str_radix` would also accept a leading `+`, so `"\u+0bc"`
    /// used to slip through as a valid escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut v = 0u32;
        for &b in &self.bytes[self.pos..end] {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("bad \\u escape")),
            };
            v = (v << 4) | digit as u32;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zeros are not allowed"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Serialization into a [`JsonValue`].
pub trait ToJson {
    /// Converts `self` into a JSON tree.
    fn to_json(&self) -> JsonValue;
}

/// Deserialization from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or reports which part of the schema failed.
    fn from_json(v: &JsonValue) -> Result<Self, JsonError>;
}

/// Reads a required object field (used by [`impl_json_struct!`](crate::impl_json_struct)).
pub fn field<T: FromJson>(v: &JsonValue, name: &str) -> Result<T, JsonError> {
    let inner = v
        .get(name)
        .ok_or_else(|| JsonError::schema(format!("missing field '{name}'")))?;
    T::from_json(inner).map_err(|e| JsonError::schema(format!("field '{name}': {e}")))
}

macro_rules! impl_json_float {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
                match v {
                    JsonValue::Num(n) => Ok(*n as $t),
                    // serde_json writes NaN/inf as null; accept it back.
                    JsonValue::Null => Ok(<$t>::NAN),
                    _ => Err(JsonError::schema("expected number")),
                }
            }
        }
    )+};
}

impl_json_float!(f32, f64);

macro_rules! impl_json_int {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
                let n = v.as_f64().ok_or_else(|| JsonError::schema("expected integer"))?;
                if n != n.trunc() {
                    return Err(JsonError::schema("expected integer, got fraction"));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(JsonError::schema("integer out of range"));
                }
                Ok(n as $t)
            }
        }
    )+};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::schema("expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::schema("expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        v.as_arr()
            .ok_or_else(|| JsonError::schema("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        match self {
            Some(x) => x.to_json(),
            None => JsonValue::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v {
            JsonValue::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl ToJson for JsonValue {
    fn to_json(&self) -> JsonValue {
        self.clone()
    }
}

impl FromJson for JsonValue {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// mirroring serde's derive layout (an object keyed by field name).
///
/// ```
/// use volcast_util::impl_json_struct;
/// use volcast_util::json::{FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Sample { id: u32, score: f64 }
/// impl_json_struct!(Sample { id, score });
///
/// let s = Sample { id: 7, score: 0.5 };
/// let back = Sample::from_json(&s.to_json()).unwrap();
/// assert_eq!(back, s);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                if v.as_obj().is_none() {
                    return Err($crate::json::JsonError::schema(concat!(
                        "expected object for ", stringify!($ty)
                    )));
                }
                Ok($ty {
                    $($field: $crate::json::field(v, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum of unit variants,
/// mirroring serde's layout: each variant is the string `"Variant"`.
///
/// ```
/// use volcast_util::impl_json_enum;
/// use volcast_util::json::{FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum Kind { Solo, Group }
/// impl_json_enum!(Kind { Solo, Group });
///
/// assert_eq!(Kind::from_json(&Kind::Group.to_json()).unwrap(), Kind::Group);
/// assert_eq!(Kind::Solo.to_json().as_str(), Some("Solo"));
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Str(match self {
                    $($ty::$variant => stringify!($variant),)+
                }.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::JsonValue,
            ) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    Some(other) => Err($crate::json::JsonError::schema(format!(
                        "unknown variant '{}' for {}", other, stringify!($ty)
                    ))),
                    None => Err($crate::json::JsonError::schema(concat!(
                        "expected variant string for ", stringify!($ty)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("-2.5e2").unwrap(), JsonValue::Num(-250.0));
        assert_eq!(
            JsonValue::parse(r#""a\u0041\n""#).unwrap(),
            JsonValue::Str("aA\n".into())
        );
    }

    #[test]
    fn parse_surrogate_pair() {
        assert_eq!(
            JsonValue::parse(r#""\ud83d\ude00""#).unwrap(),
            JsonValue::Str("😀".into())
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "01", "1.", "\"\\q\"", "nul", "1 2",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_malformed_unicode_escapes() {
        // Each case names the precise failure: signs and whitespace inside
        // the four digit positions (from_str_radix would take a leading
        // '+'), short escapes, lone/inverted/truncated surrogate halves.
        let cases: &[(&str, &str)] = &[
            (r#""\u+123""#, "bad \\u escape"),
            (r#""\u-123""#, "bad \\u escape"),
            (r#""\u 123""#, "bad \\u escape"),
            (r#""\u12g4""#, "bad \\u escape"),
            (r#""\u12""#, "truncated \\u escape"),
            (r#""\u12"4""#, "bad \\u escape"),
            (r#""\u""#, "truncated \\u escape"),
            (r#""\ud800""#, "unpaired surrogate"),
            (r#""\ud800abcd""#, "unpaired surrogate"),
            (r#""\ud800\n""#, "unpaired surrogate"),
            (r#""\ud800\ud801""#, "invalid low surrogate"),
            (r#""\udc00\ud800""#, "invalid \\u escape"),
            (r#""\udfff""#, "invalid \\u escape"),
            (r#""\ud800\u+c00""#, "bad \\u escape"),
        ];
        for (bad, want) in cases {
            let err = JsonValue::parse(bad).expect_err(bad);
            let msg = err.to_string();
            assert!(msg.contains(want), "{bad:?}: got {msg:?}, want {want:?}");
        }
        // A truncated escape at end-of-input reports truncation, not a
        // generic bad-digit error.
        let err = JsonValue::parse("\"\\u00").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn writer_round_trips() {
        let src = r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y\\z"},"d":-7}"#;
        let v = JsonValue::parse(src).unwrap();
        assert_eq!(JsonValue::parse(&v.to_json_string()).unwrap(), v);
        // Compact writer with preserved order is byte-stable.
        assert_eq!(v.to_json_string(), src);
    }

    #[test]
    fn integers_print_exactly() {
        assert_eq!(JsonValue::Num(3.0).to_json_string(), "3");
        assert_eq!(JsonValue::Num(-0.5).to_json_string(), "-0.5");
        assert_eq!(JsonValue::Num(f64::NAN).to_json_string(), "null");
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        n: u32,
        xs: Vec<f64>,
        tag: Option<String>,
    }
    impl_json_struct!(Demo { n, xs, tag });

    #[test]
    fn struct_macro_round_trip() {
        let d = Demo {
            n: 3,
            xs: vec![1.5, -2.0],
            tag: None,
        };
        let v = d.to_json();
        assert_eq!(Demo::from_json(&v).unwrap(), d);
        assert!(Demo::from_json(&JsonValue::Null).is_err());
        assert!(Demo::from_json(&JsonValue::parse(r#"{"n":1}"#).unwrap()).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum DemoKind {
        Plain,
        Tagged,
    }
    impl_json_enum!(DemoKind { Plain, Tagged });

    #[test]
    fn enum_macro_round_trip() {
        for k in [DemoKind::Plain, DemoKind::Tagged] {
            let v = k.to_json();
            assert_eq!(DemoKind::from_json(&v).unwrap(), k);
        }
        assert!(DemoKind::from_json(&JsonValue::Str("Nope".into())).is_err());
        assert!(DemoKind::from_json(&JsonValue::Null).is_err());
    }
}
