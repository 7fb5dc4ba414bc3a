//! # osn-serde
//!
//! The workspace's serialization layer: a small self-describing [`Value`]
//! tree with [`ToValue`] / [`FromValue`] conversion traits, a **pretty**
//! JSON writer (byte-compatible with the layout the experiment harness has
//! always emitted — existing `*.json` artifacts round-trip unchanged), a
//! **compact** one-line writer for snapshots, and a parser reporting
//! [`ParseError`]s with byte offsets. The parser caps container nesting at
//! [`MAX_DEPTH`] levels, so hostile input deep enough to exhaust the stack
//! is refused with an error instead of aborting the process.
//!
//! The build environment has no registry access for `serde`, and the
//! workspace's schemas (experiment artifacts, job snapshots) are small
//! enough that a bespoke value tree is simpler than vendoring a framework.
//! This crate replaces the hand-rolled JSON module that used to live inside
//! `osn-experiments::output`, generalizing it from two fixed container
//! shapes to arbitrary trees so the service layer can serialize walker, RNG
//! and estimator state through the same API.
//!
//! ## Canonical form
//!
//! Integers and floats are distinct: [`Value::Uint`] / [`Value::Int`] hold
//! exact integers (RNG words, cursors, node ids), while [`Value::Num`]
//! floats are always written with a decimal point or exponent so they parse
//! back as floats. The parser mirrors this: an integer token becomes `Uint`
//! (non-negative) or `Int` (negative), anything with `.`/`e`/`E` becomes
//! `Num`. Non-finite floats are written as strings (`"inf"`, `"-inf"`,
//! `"NaN"`) — the historical artifact convention — and
//! `f64::`[`FromValue`] accepts that string form back. On trees in
//! canonical form with finite floats, `parse ∘ write` is the identity for
//! both writers (pinned by a property test).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The deepest container nesting [`Value::parse`] accepts. Every snapshot
/// this workspace writes sits far below it; anything deeper is refused with
/// a [`ParseError`] rather than recursing until the stack overflows.
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed value tree (the JSON data model, with exact
/// integers split out from floats).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Non-negative integer, exact (canonical form for integers `>= 0`).
    Uint(u64),
    /// Negative integer, exact (canonical form holds only negatives; a
    /// non-negative `Int` still writes correctly but parses back as `Uint`).
    Int(i64),
    /// Float. Always written with a `.` or exponent; non-finite values are
    /// written as strings.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs (insertion order is preserved and
    /// duplicate keys are kept verbatim).
    Obj(Vec<(String, Value)>),
}

/// Convert a Rust value into a [`Value`] tree.
pub trait ToValue {
    /// Build the value tree.
    fn to_value(&self) -> Value;
}

/// Reconstruct a Rust value from a [`Value`] tree.
pub trait FromValue: Sized {
    /// Parse the tree; errors are human-readable schema messages.
    ///
    /// # Errors
    /// Returns a message naming the expected shape when `value` does not
    /// encode a `Self`.
    fn from_value(value: &Value) -> Result<Self, String>;
}

impl Value {
    /// Build an object from `(key, value)` pairs, e.g.
    /// `Value::obj([("x", 1u64.to_value())])`.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build an array by converting each element.
    pub fn arr<T: ToValue>(items: &[T]) -> Value {
        Value::Arr(items.iter().map(ToValue::to_value).collect())
    }

    /// Short name of this value's shape, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Uint(_) | Value::Int(_) => "integer",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// Object field lookup (first match), `None` when absent or not an
    /// object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    ///
    /// # Errors
    /// Errors when `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Value, String> {
        match self {
            Value::Obj(_) => self
                .get(key)
                .ok_or_else(|| format!("missing field `{key}`")),
            other => Err(format!("expected object, got {}", other.type_name())),
        }
    }

    /// Decode into any [`FromValue`] type: `v.decode::<Vec<f64>>()?`.
    ///
    /// # Errors
    /// Propagates the type's [`FromValue`] error.
    pub fn decode<T: FromValue>(&self) -> Result<T, String> {
        T::from_value(self)
    }

    /// The object's fields.
    ///
    /// # Errors
    /// Errors when `self` is not an object.
    pub fn as_object(&self) -> Result<&[(String, Value)], String> {
        match self {
            Value::Obj(fields) => Ok(fields),
            other => Err(format!("expected object, got {}", other.type_name())),
        }
    }

    /// The array's items.
    ///
    /// # Errors
    /// Errors when `self` is not an array.
    pub fn as_array(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {}", other.type_name())),
        }
    }

    /// The string's contents.
    ///
    /// # Errors
    /// Errors when `self` is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, got {}", other.type_name())),
        }
    }

    /// Render in the pretty multi-line layout (2-space indent, scalar
    /// arrays inline) — byte-identical to the historical experiment-artifact
    /// format.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, &mut out, 0);
        out
    }

    /// Render on one line with no whitespace — the snapshot wire form.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Parse a document produced by either writer (or any JSON within this
    /// crate's subset: no exponent-less huge integers beyond `u64`/`i64`
    /// keep exactness, see [`Value::Uint`]).
    ///
    /// # Errors
    /// Returns a [`ParseError`] carrying the byte offset of the problem —
    /// including containers nested deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err_at(p.pos, "trailing input"));
        }
        Ok(v)
    }
}

/// A parse failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What went wrong (without the offset; [`fmt::Display`] appends it).
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_scalar(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Uint(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Num(x) => {
            if x.is_finite() {
                out.push_str(&format_float(*x));
            } else {
                // Historical convention: non-finite floats as strings.
                out.push('"');
                out.push_str(&x.to_string());
                out.push('"');
            }
        }
        Value::Str(s) => escape_string(s, out),
        Value::Arr(_) | Value::Obj(_) => unreachable!("containers handled by callers"),
    }
}

/// Shortest round-trip decimal form, always with a decimal point or
/// exponent so the value reads back as a float, never an integer.
fn format_float(x: f64) -> String {
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn escape_string(s: &str, out: &mut String) {
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

fn is_container(v: &Value) -> bool {
    matches!(v, Value::Arr(_) | Value::Obj(_))
}

fn write_pretty(v: &Value, out: &mut String, level: usize) {
    match v {
        Value::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, level + 1);
                escape_string(key, out);
                out.push_str(": ");
                write_pretty(val, out, level + 1);
            }
            out.push('\n');
            push_indent(out, level);
            out.push('}');
        }
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
            } else if items.iter().any(is_container) {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, level + 1);
                    write_pretty(item, out, level + 1);
                }
                out.push('\n');
                push_indent(out, level);
                out.push(']');
            } else {
                // All-scalar arrays inline: `[1, 2, 3]`.
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_scalar(item, out);
                }
                out.push(']');
            }
        }
        scalar => write_scalar(scalar, out),
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Obj(fields) => {
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_string(key, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        scalar => write_scalar(scalar, out),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err_at(&self, offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, ParseError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err_at(self.pos, "unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        let got = self.peek()?;
        if got != b {
            return Err(self.err_at(
                self.pos,
                format!("expected `{}`, got `{}`", b as char, got as char),
            ));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(
                        self.err_at(self.pos, format!("nesting deeper than {MAX_DEPTH} levels"))
                    );
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string_value()?)),
            b't' | b'f' | b'n' => self.keyword(),
            _ => self.number(),
        }
    }

    fn keyword(&mut self) -> Result<Value, ParseError> {
        for (text, value) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.bytes[self.pos..].starts_with(text.as_bytes()) {
                self.pos += text.len();
                return Ok(value);
            }
        }
        Err(self.err_at(self.pos, "invalid literal"))
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            if self.peek()? != b'"' {
                return Err(self.err_at(self.pos, "expected string key"));
            }
            let key = self.string_value()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => {
                    return Err(self.err_at(
                        self.pos,
                        format!("expected `,` or `}}`, got `{}`", other as char),
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(self.err_at(
                        self.pos,
                        format!("expected `,` or `]`, got `{}`", other as char),
                    ))
                }
            }
        }
    }

    fn string_value(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.err_at(self.pos, "unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err_at(self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err_at(self.pos, "truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err_at(self.pos, "non-utf8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| {
                                self.err_at(self.pos, format!("bad \\u escape `{hex}`"))
                            })?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or_else(|| {
                                self.err_at(self.pos, format!("invalid codepoint {code}"))
                            })?);
                        }
                        other => {
                            return Err(self
                                .err_at(self.pos - 1, format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences from the raw byte
                    // stream.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err_at(start, "truncated utf-8 sequence"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err_at(start, "invalid utf-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
        Ok(out)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number bytes");
        let bad = || ParseError {
            offset: start,
            message: format!("bad number `{text}`"),
        };
        if text.contains(['.', 'e', 'E']) {
            return text.parse::<f64>().map(Value::Num).map_err(|_| bad());
        }
        // Integer token: keep exactness. Canonical form sends non-negative
        // integers to `Uint` and negatives to `Int`; out-of-range integers
        // degrade to a float rather than failing.
        if text.starts_with('-') {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        } else if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::Uint(u));
        }
        text.parse::<f64>().map(Value::Num).map_err(|_| bad())
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// ToValue / FromValue impls
// ---------------------------------------------------------------------------

impl ToValue for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl FromValue for Value {
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(value.clone())
    }
}

impl ToValue for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromValue for bool {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {}", other.type_name())),
        }
    }
}

impl ToValue for u64 {
    fn to_value(&self) -> Value {
        Value::Uint(*self)
    }
}

impl FromValue for u64 {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Uint(u) => Ok(*u),
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!(
                "expected unsigned integer, got {}",
                other.type_name()
            )),
        }
    }
}

impl ToValue for u32 {
    fn to_value(&self) -> Value {
        Value::Uint(u64::from(*self))
    }
}

impl FromValue for u32 {
    fn from_value(value: &Value) -> Result<Self, String> {
        let u = u64::from_value(value)?;
        u32::try_from(u).map_err(|_| format!("integer {u} out of u32 range"))
    }
}

impl ToValue for u8 {
    fn to_value(&self) -> Value {
        Value::Uint(u64::from(*self))
    }
}

impl FromValue for u8 {
    fn from_value(value: &Value) -> Result<Self, String> {
        let u = u64::from_value(value)?;
        u8::try_from(u).map_err(|_| format!("integer {u} out of u8 range"))
    }
}

impl ToValue for usize {
    fn to_value(&self) -> Value {
        Value::Uint(*self as u64)
    }
}

impl FromValue for usize {
    fn from_value(value: &Value) -> Result<Self, String> {
        let u = u64::from_value(value)?;
        usize::try_from(u).map_err(|_| format!("integer {u} out of usize range"))
    }
}

impl ToValue for i64 {
    fn to_value(&self) -> Value {
        if *self >= 0 {
            Value::Uint(*self as u64)
        } else {
            Value::Int(*self)
        }
    }
}

impl FromValue for i64 {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Int(i) => Ok(*i),
            Value::Uint(u) => {
                i64::try_from(*u).map_err(|_| format!("integer {u} out of i64 range"))
            }
            other => Err(format!("expected integer, got {}", other.type_name())),
        }
    }
}

impl ToValue for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromValue for f64 {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Num(x) => Ok(*x),
            Value::Uint(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            // Non-finite floats are encoded as strings ("inf", "NaN").
            Value::Str(s) => s
                .parse::<f64>()
                .map_err(|_| format!("expected number, got string `{s}`")),
            other => Err(format!("expected number, got {}", other.type_name())),
        }
    }
}

impl ToValue for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromValue for String {
    fn from_value(value: &Value) -> Result<Self, String> {
        value.as_str().map(str::to_owned)
    }
}

impl ToValue for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: ToValue> ToValue for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(ToValue::to_value).collect())
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, String> {
        value.as_array()?.iter().map(T::from_value).collect()
    }
}

impl<T: ToValue> ToValue for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj([
            ("id", "figX".to_value()),
            ("count", 3u64.to_value()),
            ("offset", (-7i64).to_value()),
            ("ratio", 0.25f64.to_value()),
            ("flag", true.to_value()),
            ("missing", Value::Null),
            ("xs", Value::arr(&[20.0f64, 40.0])),
            (
                "series",
                Value::Arr(vec![Value::obj([
                    ("label", "SRW".to_value()),
                    ("y", Value::arr(&[0.5f64, 0.25])),
                ])]),
            ),
            ("notes", Value::Arr(vec![])),
        ])
    }

    #[test]
    fn pretty_layout_matches_historical_format() {
        let v = Value::obj([
            ("id", "figX".to_value()),
            (
                "series",
                Value::Arr(vec![
                    Value::obj([
                        ("label", "SRW".to_value()),
                        ("x", Value::arr(&[20.0f64, 40.0])),
                    ]),
                    Value::obj([("label", "CNRW".to_value()), ("x", Value::Arr(vec![]))]),
                ]),
            ),
            ("notes", Value::Arr(vec!["a".to_value(), "b".to_value()])),
        ]);
        let expected = concat!(
            "{\n",
            "  \"id\": \"figX\",\n",
            "  \"series\": [\n",
            "    {\n",
            "      \"label\": \"SRW\",\n",
            "      \"x\": [20.0, 40.0]\n",
            "    },\n",
            "    {\n",
            "      \"label\": \"CNRW\",\n",
            "      \"x\": []\n",
            "    }\n",
            "  ],\n",
            "  \"notes\": [\"a\", \"b\"]\n",
            "}",
        );
        assert_eq!(v.to_pretty(), expected);
    }

    #[test]
    fn pretty_roundtrip() {
        let v = sample();
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn compact_roundtrip() {
        let v = sample();
        let compact = v.to_compact();
        assert!(!compact.contains('\n'));
        assert_eq!(Value::parse(&compact).unwrap(), v);
    }

    #[test]
    fn integers_are_exact() {
        for u in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63] {
            let v = u.to_value();
            let back = Value::parse(&v.to_compact()).unwrap();
            assert_eq!(back.decode::<u64>().unwrap(), u);
        }
        for i in [-1i64, i64::MIN, -42] {
            let v = i.to_value();
            let back = Value::parse(&v.to_compact()).unwrap();
            assert_eq!(back.decode::<i64>().unwrap(), i);
        }
    }

    #[test]
    fn floats_always_read_back_as_floats() {
        // An integral float must not collapse into Uint on re-parse.
        let v = 20.0f64.to_value();
        let s = v.to_compact();
        assert_eq!(s, "20.0");
        assert_eq!(Value::parse(&s).unwrap(), Value::Num(20.0));
    }

    #[test]
    fn nonfinite_floats_use_string_forms() {
        let v = Value::arr(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let s = v.to_compact();
        assert_eq!(s, "[\"inf\",\"-inf\",\"NaN\"]");
        let back = Value::parse(&s).unwrap().decode::<Vec<f64>>().unwrap();
        assert_eq!(back[0], f64::INFINITY);
        assert_eq!(back[1], f64::NEG_INFINITY);
        assert!(back[2].is_nan());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let hostile = "quote \" slash \\ newline \n tab \t ctrl \u{1} unicode π Δ 🦀";
        let v = hostile.to_value();
        for text in [v.to_pretty(), v.to_compact()] {
            assert_eq!(Value::parse(&text).unwrap().as_str().unwrap(), hostile);
        }
    }

    #[test]
    fn keywords_parse() {
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert!(Value::parse("nul").is_err());
        assert!(Value::parse("truex").is_err());
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let err = Value::parse("{\"a\": 1,}").unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.to_string().contains("at byte 8"), "{err}");

        let err = Value::parse("[1, 2").unwrap_err();
        assert_eq!(err.offset, 5);
        assert_eq!(err.message, "unexpected end of input");

        let err = Value::parse("[1, 2] tail").unwrap_err();
        assert_eq!(err.message, "trailing input");
        assert_eq!(err.offset, 7);

        let err = Value::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.message.contains("bad number"));
    }

    #[test]
    fn field_and_decode_helpers() {
        let v = sample();
        assert_eq!(v.field("count").unwrap().decode::<u64>().unwrap(), 3);
        assert_eq!(v.field("offset").unwrap().decode::<i64>().unwrap(), -7);
        assert!(v.field("nope").unwrap_err().contains("missing field"));
        assert!(Value::Null
            .field("x")
            .unwrap_err()
            .contains("expected object"));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(
            v.field("missing").unwrap().decode::<Option<u64>>().unwrap(),
            None
        );
        assert_eq!(
            v.field("count").unwrap().decode::<Option<u64>>().unwrap(),
            Some(3)
        );
    }

    #[test]
    fn numeric_range_checks() {
        assert!(Value::Uint(1 << 40).decode::<u32>().is_err());
        assert!(Value::Uint(u64::MAX).decode::<i64>().is_err());
        assert!(Value::Int(-1).decode::<u64>().is_err());
        assert_eq!(Value::Int(-1).decode::<f64>().unwrap(), -1.0);
        assert_eq!(Value::Uint(7).decode::<f64>().unwrap(), 7.0);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Obj(vec![]).to_pretty(), "{}");
        assert_eq!(Value::Arr(vec![]).to_pretty(), "[]");
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(Value::parse(" [ ] ").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn deep_nesting_is_refused_with_an_offset() {
        // A million open brackets used to recurse once per level until the
        // stack overflowed and the process aborted.
        let err = Value::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");

        let chain = format!("{}1{}", r#"{"a":"#.repeat(200_000), "}".repeat(200_000));
        let err = Value::parse(&chain).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH * r#"{"a":"#.len());

        // Mixed containers count alike, and the cap itself still parses.
        let half = MAX_DEPTH / 2;
        let at_cap = format!("{}0{}", r#"[{"k":"#.repeat(half), "}]".repeat(half));
        assert!(Value::parse(&at_cap).is_ok());
        let past_cap = format!("[{at_cap}]");
        assert!(Value::parse(&past_cap).is_err());
    }
}
