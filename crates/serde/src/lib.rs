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
//!
//! ## Cost
//!
//! Snapshots are mostly long arrays of integers and short plain strings,
//! so those are the cheap cases. The parser reads an integer of up to 19
//! plain digits, and a string with no escape, as one slice of the input;
//! every other token takes the general path, and both paths give the same
//! values and the same errors (pinned by a property test). It gathers the
//! fields of the open objects, the items of the open arrays and the
//! integers of a column on scratch stacks of its own, and moves each
//! container out as one `Vec` of exact size when it closes, so nothing
//! grows by doubling; each object key is still one `String`. The writers
//! format every integer, scalar or column item, with one formatter that
//! finds the width first and then writes two digits per step. A packed
//! column is formatted into one byte buffer, reused across the tree's
//! columns and checked as UTF-8 once per column, since the crate forbids
//! `unsafe`; indentation and escape-free strings are copied whole. A `\u`
//! escape takes exactly four hex digits; a surrogate pair decodes to one
//! character, and a lone surrogate is refused.
//!
//! ## Packed integer columns
//!
//! A non-empty array of non-negative integers is held as one packed
//! column, [`Value::Uints`]: one `u64` per item instead of one [`Value`].
//! [`Value::parse`] produces it for every array whose items are all plain
//! integers, and [`Value::arr`] (and `Vec::to_value`) over `u8`, `u32`,
//! `u64` and `usize` items builds it, as does [`Value::uints`]. It is
//! invisible in text and in comparisons: both writers print it byte for
//! byte as the [`Value::Arr`] of [`Value::Uint`]s it stands for, and `==`
//! holds between the two forms. Read it with [`Value::as_uints`], which
//! borrows the column in place (and collects a hand-built `Arr` of
//! `Uint`s), or decode it, `decode::<Vec<u32>>()`, which reads both forms.
//! [`Value::as_array`] cannot lend `&[Value]` over a packed column and
//! says so.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::borrow::Cow;
use std::fmt;

/// The deepest container nesting [`Value::parse`] accepts. Every snapshot
/// this workspace writes sits far below it; anything deeper is refused with
/// a [`ParseError`] rather than recursing until the stack overflows.
pub const MAX_DEPTH: usize = 128;

/// A parsed or constructed value tree (the JSON data model, with exact
/// integers split out from floats).
#[derive(Debug, Clone)]
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
    /// A non-empty array of non-negative integers, packed (see the crate
    /// docs): it prints as, and compares equal to, the `Arr` of `Uint`s
    /// it stands for.
    Uints(Vec<u64>),
    /// Object as ordered key/value pairs (insertion order is preserved and
    /// duplicate keys are kept verbatim).
    Obj(Vec<(String, Value)>),
}

/// Structural equality, except that a packed column equals the `Arr` of
/// `Uint`s with the same items.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Uint(a), Value::Uint(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Uints(a), Value::Uints(b)) => a == b,
            (Value::Uints(packed), Value::Arr(items))
            | (Value::Arr(items), Value::Uints(packed)) => {
                packed.len() == items.len()
                    && packed
                        .iter()
                        .zip(items)
                        .all(|(u, item)| matches!(item, Value::Uint(v) if v == u))
            }
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// Convert a Rust value into a [`Value`] tree.
pub trait ToValue {
    /// Build the value tree.
    fn to_value(&self) -> Value;

    /// Build the array of `items`: an [`Value::Arr`] of their trees, or a
    /// packed column for the unsigned integer types.
    fn array_value(items: &[Self]) -> Value
    where
        Self: Sized,
    {
        Value::Arr(items.iter().map(ToValue::to_value).collect())
    }
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

    /// Build an array by converting each element — a packed column
    /// ([`Value::Uints`]) when the items are unsigned integers.
    pub fn arr<T: ToValue>(items: &[T]) -> Value {
        T::array_value(items)
    }

    /// Build the array of `items` as a packed column, or an empty `Arr`
    /// when there are none.
    pub fn uints(items: impl IntoIterator<Item = u64>) -> Value {
        let items: Vec<u64> = items.into_iter().collect();
        if items.is_empty() {
            Value::Arr(Vec::new())
        } else {
            Value::Uints(items)
        }
    }

    /// Short name of this value's shape, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Uint(_) | Value::Int(_) => "integer",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) | Value::Uints(_) => "array",
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
    /// Errors when `self` is not an array, or is a packed integer column,
    /// which holds no [`Value`]s to lend: read that with
    /// [`as_uints`](Self::as_uints) or `decode`.
    pub fn as_array(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            Value::Uints(_) => Err("expected array of values, got a packed integer column \
                 (decode it, e.g. `decode::<Vec<u64>>()`, or read it with `as_uints`)"
                .into()),
            other => Err(format!("expected array, got {}", other.type_name())),
        }
    }

    /// The items of an array of non-negative integers: a packed column
    /// borrowed in place, or a hand-built `Arr` of integers collected.
    ///
    /// # Errors
    /// Errors when `self` is not an array, or an item is not a
    /// non-negative integer.
    pub fn as_uints(&self) -> Result<Cow<'_, [u64]>, String> {
        match self {
            Value::Uints(items) => Ok(Cow::Borrowed(items)),
            Value::Arr(items) => items
                .iter()
                .map(u64::from_value)
                .collect::<Result<Vec<_>, _>>()
                .map(Cow::Owned),
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
        let mut writer = Writer::default();
        writer.pretty(self, 0);
        writer.out
    }

    /// Render on one line with no whitespace — the snapshot wire form.
    pub fn to_compact(&self) -> String {
        let mut writer = Writer::default();
        writer.compact(self);
        writer.out
    }

    /// Parse a document produced by either writer (or any JSON within this
    /// crate's subset: no exponent-less huge integers beyond `u64`/`i64`
    /// keep exactness, see [`Value::Uint`]).
    ///
    /// # Errors
    /// Returns a [`ParseError`] carrying the byte offset of the problem —
    /// including containers nested deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        parse_with::<true>(input)
    }
}

/// [`Value::parse`], with (`FAST`) or without the single-slice reads of
/// plain integers and escape-free strings. Both give the same `Value`s and
/// the same errors; the general path is the reference the fast paths are
/// tested against.
fn parse_with<const FAST: bool>(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser::<FAST> {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        fields: Vec::new(),
        items: Vec::new(),
        column: Vec::new(),
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err_at(p.pos, "trailing input"));
    }
    Ok(v)
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

/// Two spaces per level, copied from one static run of spaces.
fn push_indent(out: &mut String, level: usize) {
    const SPACES: &str = "                                                                ";
    let mut width = 2 * level;
    while width > 0 {
        let run = width.min(SPACES.len());
        out.push_str(&SPACES[..run]);
        width -= run;
    }
}

/// The two-digit decimal strings `00` to `99`, back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The number of decimal digits of `u`.
fn decimal_width(u: u64) -> usize {
    u.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Write the decimal digits of `u` into `digits`, which is exactly
/// [`decimal_width`]`(u)` bytes long, two digits per step from the back.
/// The one integer formatter of both writers, for scalars and columns.
fn format_uint(mut u: u64, digits: &mut [u8]) {
    let mut at = digits.len();
    while u >= 100 {
        let pair = 2 * (u % 100) as usize;
        u /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if u >= 10 {
        let pair = 2 * u as usize;
        digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        digits[0] = b'0' + u as u8;
    }
}

/// Append the decimal digits of `u`, formatted on the stack.
fn push_uint(out: &mut String, u: u64) {
    let mut digits = [0u8; 20];
    let digits = &mut digits[..decimal_width(u)];
    format_uint(u, digits);
    out.push_str(ascii(digits));
}

/// Bytes the writers made of ASCII digits and punctuation, as text.
fn ascii(bytes: &[u8]) -> &str {
    match std::str::from_utf8(bytes) {
        Ok(text) => text,
        Err(_) => unreachable!("digits and separators are ASCII"),
    }
}

fn write_scalar(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Uint(u) => push_uint(out, *u),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_uint(out, i.unsigned_abs());
        }
        Value::Num(x) => push_float(out, *x),
        Value::Str(s) => escape_string(s, out),
        Value::Arr(_) | Value::Uints(_) | Value::Obj(_) => {
            unreachable!("containers handled by callers")
        }
    }
}

/// Shortest round-trip decimal form, always with a decimal point or
/// exponent so the value reads back as a float, never an integer.
/// Non-finite floats are written as strings (the historical convention).
fn push_float(out: &mut String, x: f64) {
    use fmt::Write as _;
    // Writing to a `String` cannot fail.
    if x.is_finite() {
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        let _ = write!(out, "\"{x}\"");
    }
}

/// Whether `b` must be escaped inside a JSON string.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

fn escape_string(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(needs_escape) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn is_container(v: &Value) -> bool {
    matches!(v, Value::Arr(_) | Value::Uints(_) | Value::Obj(_))
}

/// A writer's output, and the byte buffer it formats each packed column
/// in: one buffer, reused across the columns of a tree, and checked as
/// UTF-8 once per column, since the crate forbids `unsafe`.
#[derive(Default)]
struct Writer {
    out: String,
    column: Vec<u8>,
}

impl Writer {
    /// The items of a packed column, `separator` between each two, in
    /// brackets: the bytes either writer gives the same `Arr` of `Uint`s.
    fn uints(&mut self, items: &[u64], separator: &str) {
        let column = &mut self.column;
        column.clear();
        column.push(b'[');
        for (i, &u) in items.iter().enumerate() {
            if i > 0 {
                column.extend_from_slice(separator.as_bytes());
            }
            let at = column.len();
            column.resize(at + decimal_width(u), 0);
            format_uint(u, &mut column[at..]);
        }
        column.push(b']');
        self.out.push_str(ascii(column));
    }

    fn pretty(&mut self, v: &Value, level: usize) {
        match v {
            Value::Obj(fields) => {
                if fields.is_empty() {
                    self.out.push_str("{}");
                    return;
                }
                self.out.push_str("{\n");
                for (i, (key, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(",\n");
                    }
                    push_indent(&mut self.out, level + 1);
                    escape_string(key, &mut self.out);
                    self.out.push_str(": ");
                    self.pretty(val, level + 1);
                }
                self.out.push('\n');
                push_indent(&mut self.out, level);
                self.out.push('}');
            }
            Value::Arr(items) => {
                if items.is_empty() {
                    self.out.push_str("[]");
                } else if items.iter().any(is_container) {
                    self.out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            self.out.push(',');
                        }
                        self.out.push('\n');
                        push_indent(&mut self.out, level + 1);
                        self.pretty(item, level + 1);
                    }
                    self.out.push('\n');
                    push_indent(&mut self.out, level);
                    self.out.push(']');
                } else {
                    // All-scalar arrays inline: `[1, 2, 3]`.
                    self.out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        write_scalar(item, &mut self.out);
                    }
                    self.out.push(']');
                }
            }
            Value::Uints(items) => self.uints(items, ", "),
            scalar => write_scalar(scalar, &mut self.out),
        }
    }

    fn compact(&mut self, v: &Value) {
        match v {
            Value::Obj(fields) => {
                self.out.push('{');
                for (i, (key, val)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    escape_string(key, &mut self.out);
                    self.out.push(':');
                    self.compact(val);
                }
                self.out.push('}');
            }
            Value::Arr(items) => {
                self.out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.compact(item);
                }
                self.out.push(']');
            }
            Value::Uints(items) => self.uints(items, ","),
            scalar => write_scalar(scalar, &mut self.out),
        }
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a, const FAST: bool> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
    /// The fields read so far of the objects open around `pos`, innermost
    /// last: an object that closes moves its own out as one `Vec` of exact
    /// size, so no object's fields grow by doubling.
    fields: Vec<(String, Value)>,
    /// The items read so far of the open arrays, likewise.
    items: Vec<Value>,
    /// The integers of the packed column being read; only the innermost
    /// array reads one, and it reads no other value meanwhile.
    column: Vec<u64>,
}

impl<const FAST: bool> Parser<'_, FAST> {
    fn err_at(&self, offset: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            offset,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .unwrap_or(rest.len());
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
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(Vec::new()));
        }
        let base = self.fields.len();
        loop {
            if self.peek()? != b'"' {
                return Err(self.err_at(self.pos, "expected string key"));
            }
            let key = self.string_value()?;
            self.expect(b':')?;
            let val = self.value()?;
            self.fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(self.fields.drain(base..).collect()));
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
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(Vec::new()));
        }
        let base = self.items.len();
        if FAST {
            // Read plain integers straight into a packed column. The first
            // item that is anything else goes to the general loop below
            // untouched, so both paths meet every byte the same way.
            self.column.clear();
            loop {
                self.peek()?;
                let Some(u) = self.plain_uint() else {
                    self.items
                        .extend(self.column.iter().map(|&u| Value::Uint(u)));
                    break;
                };
                self.column.push(u);
                if self.array_separator()? {
                    return Ok(Value::Uints(self.column.to_vec()));
                }
            }
        }
        loop {
            let item = self.value()?;
            self.items.push(item);
            if self.array_separator()? {
                let items = self.items.drain(base..).collect();
                return Ok(if FAST {
                    packed(items)
                } else {
                    Value::Arr(items)
                });
            }
        }
    }

    /// The `,` after an array item (`false`) or the closing `]` (`true`),
    /// consumed.
    fn array_separator(&mut self) -> Result<bool, ParseError> {
        match self.peek()? {
            b',' => {
                self.pos += 1;
                Ok(false)
            }
            b']' => {
                self.pos += 1;
                Ok(true)
            }
            other => Err(self.err_at(
                self.pos,
                format!("expected `,` or `]`, got `{}`", other as char),
            )),
        }
    }

    fn string_value(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        if FAST {
            // No escape before the closing quote: the string is one slice
            // of the input (both ends sit next to an ASCII quote, so on
            // char boundaries).
            let rest = &self.bytes[self.pos..];
            if let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') {
                if rest[len] == b'"' {
                    let s = self.text[self.pos..self.pos + len].to_owned();
                    self.pos += len + 1;
                    return Ok(s);
                }
            }
        }
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
                        b'u' => out.push(self.unicode_escape()?),
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

    /// The character of a `\u` escape whose hex digits start at `pos`: a
    /// code point outside the surrogates, or a high surrogate followed by
    /// an escaped low one, decoded as the pair. A lone surrogate is refused
    /// at its digits' offset.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let at = self.pos;
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                    return Err(self.lone_surrogate(at));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.lone_surrogate(at));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.lone_surrogate(at)),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err_at(at, format!("invalid codepoint {code}")))
    }

    fn lone_surrogate(&self, at: usize) -> ParseError {
        self.err_at(
            at,
            format!("lone surrogate `\\u{}`", &self.text[at..at + 4]),
        )
    }

    /// Four hex digits at `pos` (no sign, no other characters), consumed.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err_at(self.pos, "truncated \\u escape"))?;
        let hex =
            std::str::from_utf8(hex).map_err(|_| self.err_at(self.pos, "non-utf8 \\u escape"))?;
        let mut code = 0;
        for c in hex.chars() {
            let digit = c
                .to_digit(16)
                .ok_or_else(|| self.err_at(self.pos, format!("bad \\u escape `{hex}`")))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// A number token at `pos` (whitespace already skipped by `value`).
    fn number(&mut self) -> Result<Value, ParseError> {
        if FAST {
            if let Some(u) = self.plain_uint() {
                return Ok(Value::Uint(u));
            }
        }
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
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

    /// A token of 1 to 20 plain digits, at most `u64::MAX`, not followed
    /// by another number byte (`-+.eE`), read in place: tokens the general
    /// path reads as a `Uint`. A 20th digit is read with overflow checks,
    /// as RNG state words need it. `None` leaves `pos` alone for the
    /// general path, which reads a larger token as a float.
    fn plain_uint(&mut self) -> Option<u64> {
        let (start, mut value) = (self.pos, 0u64);
        let mut end = start;
        while let Some(&digit @ b'0'..=b'9') = self.bytes.get(end) {
            let digit = u64::from(digit - b'0');
            value = match end - start {
                0..=18 => value * 10 + digit,
                19 => value.checked_mul(10)?.checked_add(digit)?,
                _ => return None,
            };
            end += 1;
        }
        if end == start || matches!(self.bytes.get(end), Some(b'-' | b'+' | b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos = end;
        Some(value)
    }
}

/// A parsed array: packed when every item is a `Uint` (the items the fast
/// column read left to the general loop, such as integers written with
/// more than 20 digits).
fn packed(items: Vec<Value>) -> Value {
    let column: Option<Vec<u64>> = items
        .iter()
        .map(|item| match item {
            Value::Uint(u) => Some(*u),
            _ => None,
        })
        .collect();
    match column {
        Some(column) if !column.is_empty() => Value::Uints(column),
        _ => Value::Arr(items),
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

    fn array_value(items: &[Self]) -> Value {
        Value::uints(items.iter().copied())
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

    fn array_value(items: &[Self]) -> Value {
        Value::uints(items.iter().map(|&u| u64::from(u)))
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

    fn array_value(items: &[Self]) -> Value {
        Value::uints(items.iter().map(|&u| u64::from(u)))
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

    fn array_value(items: &[Self]) -> Value {
        Value::uints(items.iter().map(|&u| u as u64))
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
        T::array_value(self)
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Uints(items) => items
                .iter()
                .map(|&u| T::from_value(&Value::Uint(u)))
                .collect(),
            other => other.as_array()?.iter().map(T::from_value).collect(),
        }
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
            // Objects nested in middle fields: the parser's scratch stack
            // holds the outer fields while the inner ones are read.
            (
                "inner",
                Value::obj([
                    ("a", Value::uints([2, 3])),
                    ("b", Value::obj([("deep", Value::Null)])),
                    ("c", Value::Arr(vec![Value::obj([]), "x".to_value()])),
                ]),
            ),
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

    #[test]
    fn surrogate_pair_escapes_decode_to_one_char() {
        // `\ud83e\udd80` is the escaped form of U+1F980 (🦀).
        let v = Value::parse(r#""crab \ud83e\udd80 🦀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "crab 🦀 🦀");
    }

    #[test]
    fn lone_surrogate_escapes_are_refused_with_an_offset() {
        for (text, offset) in [
            (r#""\ud83e""#, 3),
            (r#""ab\ud83e tail""#, 5),
            (r#""\ud83eA""#, 3),
            (r#""\ud83e\ud83e""#, 3),
            (r#""\udd80""#, 3),
            (r#""\udd80\ud83e""#, 3),
        ] {
            let err = Value::parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
            assert!(err.message.starts_with("lone surrogate"), "{text}: {err}");
        }
        // A bad second escape is reported where it is.
        let err = Value::parse(r#""\ud83e\uzzzz""#).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (9, "bad \\u escape `zzzz`")
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        // `u32::from_str_radix` would read `+041` as 0x41.
        for (text, digits) in [
            (r#""\u+041""#, "+041"),
            (r#""\u-041""#, "-041"),
            (r#""\u 041""#, " 041"),
            (r#""\u004g""#, "004g"),
        ] {
            let err = Value::parse(text).unwrap_err();
            assert_eq!(err.offset, 3, "{text}");
            assert_eq!(err.message, format!("bad \\u escape `{digits}`"));
        }
        let v = Value::parse(r#""\u0041\u00E9""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "Aé");
        let err = Value::parse(r#""\u00""#).unwrap_err();
        assert_eq!(
            (err.offset, err.message.as_str()),
            (3, "truncated \\u escape")
        );
    }

    #[test]
    fn writers_match_the_formatting_machinery() {
        // Integers, floats and strings are written without temporary
        // strings; the bytes are what `Display` and the escape table give.
        for u in [0u64, 7, 10, 99, 1 << 32, u64::MAX] {
            assert_eq!(Value::Uint(u).to_compact(), u.to_string());
        }
        for i in [-1i64, -10, i64::MIN, 0, 42] {
            assert_eq!(Value::Int(i).to_compact(), i.to_string());
        }
        for x in [0.0f64, -0.0, 1.5, 1e300, 3e-7, 20.0, f64::MAX] {
            let want = format!("{x}");
            let want = if want.contains(['.', 'e', 'E']) {
                want
            } else {
                want + ".0"
            };
            assert_eq!(Value::Num(x).to_compact(), want);
        }
        let s = "plain π 🦀".to_value();
        assert_eq!(s.to_compact(), "\"plain π 🦀\"");
        assert_eq!(
            "\u{1}\u{1f}\"".to_value().to_compact(),
            r#""\u0001\u001f\"""#
        );
        let deep = (0..40).fold(Value::Uint(1), |v, _| Value::obj([("k", v)]));
        let pretty = deep.to_pretty();
        assert!(pretty.contains(&format!("\n{}\"k\": 1\n", " ".repeat(80))));
        assert_eq!(Value::parse(&pretty).unwrap(), deep);
    }

    #[test]
    fn integers_of_every_width_print_as_display_does() {
        let mut items = vec![0, u64::MAX];
        for k in 1..20 {
            let power = 10u64.pow(k);
            items.extend([power - 1, power, power + 1]);
        }
        for &u in &items {
            assert_eq!(Value::Uint(u).to_pretty(), u.to_string());
            assert_eq!(Value::Uint(u).to_compact(), u.to_string());
            assert_eq!(decimal_width(u), u.to_string().len(), "{u}");
        }
        let want: Vec<String> = items.iter().map(u64::to_string).collect();
        let column = Value::uints(items.iter().copied());
        assert_eq!(column.to_compact(), format!("[{}]", want.join(",")));
        assert_eq!(column.to_pretty(), format!("[{}]", want.join(", ")));
        // Columns of different lengths in one tree share the writer's
        // buffer; each prints only its own items.
        let tree = Value::obj([
            ("long", column.clone()),
            ("short", Value::uints([7, 10])),
            ("one", Value::uints([u64::MAX])),
        ]);
        assert_eq!(
            tree.to_compact(),
            format!(
                "{{\"long\":[{}],\"short\":[7,10],\"one\":[{}]}}",
                want.join(","),
                u64::MAX
            )
        );
        assert_eq!(Value::parse(&tree.to_pretty()).unwrap(), tree);
    }

    #[test]
    fn packed_columns_print_and_compare_as_arrays_of_uints() {
        for items in [vec![0u64], vec![7, 0, 42], vec![u64::MAX, 1 << 32, 10]] {
            let packed = Value::uints(items.iter().copied());
            assert!(matches!(packed, Value::Uints(_)));
            let plain = Value::Arr(items.iter().map(|&u| Value::Uint(u)).collect());
            assert_eq!(packed, plain);
            assert_eq!(plain, packed);
            assert_eq!(packed.to_pretty(), plain.to_pretty());
            assert_eq!(packed.to_compact(), plain.to_compact());
            // Nested, a packed column is a container like any array.
            let nest =
                |column: Value| Value::obj([("xs", Value::Arr(vec![column.clone(), column]))]);
            assert_eq!(nest(packed.clone()), nest(plain.clone()));
            assert_eq!(
                nest(packed.clone()).to_pretty(),
                nest(plain.clone()).to_pretty()
            );
            assert_eq!(
                nest(packed.clone()).to_compact(),
                nest(plain.clone()).to_compact()
            );
            // Both forms decode and read alike.
            assert_eq!(packed.decode::<Vec<u64>>().unwrap(), items);
            assert_eq!(plain.decode::<Vec<u64>>().unwrap(), items);
            assert_eq!(&*packed.as_uints().unwrap(), items.as_slice());
            assert_eq!(&*plain.as_uints().unwrap(), items.as_slice());
            assert_eq!(packed.type_name(), "array");
        }
        // An item of another value, or another count, is not equal.
        let packed = Value::uints([1, 2]);
        assert_ne!(packed, Value::Arr(vec![Value::Uint(1), Value::Int(2)]));
        assert_ne!(packed, Value::Arr(vec![Value::Uint(1)]));
        assert_ne!(packed, Value::uints([1, 3]));
        // No items: the one empty array form.
        assert_eq!(Value::uints([]), Value::Arr(Vec::new()));
        assert_eq!(Value::arr::<u32>(&[]), Value::Arr(Vec::new()));
    }

    #[test]
    fn unsigned_builders_and_the_parser_give_packed_columns() {
        assert_eq!(Value::arr(&[1u8, 2]), Value::Uints(vec![1, 2]));
        assert!(matches!(Value::arr(&[1u32, 2]), Value::Uints(_)));
        assert!(matches!(vec![3usize].to_value(), Value::Uints(_)));
        assert!(matches!(Value::arr(&[1i64, 2]), Value::Arr(_)));
        for text in ["[1, 2, 3]", "[ 007 ,4]", "[18446744073709551615, 1]"] {
            assert!(
                matches!(Value::parse(text).unwrap(), Value::Uints(_)),
                "{text}"
            );
        }
        for text in ["[]", "[1, -2]", "[1, 2.5]", "[[1], 2]", "[1, \"2\"]"] {
            assert!(
                matches!(Value::parse(text).unwrap(), Value::Arr(_)),
                "{text}"
            );
        }
    }

    #[test]
    fn as_array_refuses_a_packed_column_and_names_the_way_to_read_it() {
        let err = Value::uints([1, 2]).as_array().unwrap_err();
        assert!(err.contains("packed integer column"), "{err}");
        assert!(err.contains("decode"), "{err}");
        assert_eq!(Value::Arr(Vec::new()).as_array().unwrap(), &[] as &[Value]);
        let err = Value::Arr(vec![Value::Str("x".into())])
            .as_uints()
            .unwrap_err();
        assert_eq!(err, "expected unsigned integer, got string");
        assert_eq!(
            Value::Null.as_uints().unwrap_err(),
            "expected array, got null"
        );
        assert_eq!(
            Value::uints([300]).decode::<Vec<u8>>().unwrap_err(),
            "integer 300 out of u8 range"
        );
    }

    mod fast_paths {
        //! The parser's fast paths — plain integers and escape-free strings
        //! read as one slice — against the general path, on generated
        //! documents that are well-formed, malformed or cut short.

        use super::super::{parse_with, Value};
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha12Rng;

        fn digits(rng: &mut ChaCha12Rng, len: usize) -> String {
            (0..len)
                .map(|_| char::from(b'0' + rng.gen_range(0..10u8)))
                .collect()
        }

        /// A numeric token: plain, signed, padded, at and past the fast
        /// path's 19 digits and `u64::MAX`, or not a number at all.
        fn number(rng: &mut ChaCha12Rng) -> String {
            let n = rng.gen_range(1..24usize);
            match rng.gen_range(0..14) {
                0 | 1 => digits(rng, n),
                2 => format!("{}{}", "0".repeat(rng.gen_range(1..4)), digits(rng, n)),
                3 => format!("+{}", digits(rng, n)),
                4 => "-0".into(),
                5 => rng
                    .gen_range(1_000_000_000_000_000_000u64..10_000_000_000_000_000_000)
                    .to_string(),
                6 => rng
                    .gen_range(10_000_000_000_000_000_000u64..u64::MAX)
                    .to_string(),
                7 => {
                    let extra = rng.gen_range(0..3);
                    format!("{}{}", u64::MAX, digits(rng, extra))
                }
                8 => "18446744073709551616".into(),
                9 => format!("{}+{}", digits(rng, n), digits(rng, 1)),
                10 => format!("{}e{}", digits(rng, n), digits(rng, 1)),
                11 => "-".into(),
                12 => format!("-{}", digits(rng, n)),
                _ => {
                    let tail = ["-", "+", ".", "e", "E", ".5", "x"][rng.gen_range(0..7usize)];
                    format!("{}{tail}", digits(rng, n))
                }
            }
        }

        /// A string token, with and without escapes (good, bad and cut),
        /// raw multi-byte and control characters.
        fn string(rng: &mut ChaCha12Rng) -> String {
            let pieces = [
                "a",
                "key",
                " ",
                "π",
                "🦀",
                "\u{1}",
                "\\n",
                "\\\"",
                "\\\\",
                "\\/",
                "\\u0041",
                "\\ud83e\\udd80",
                "\\ud83e",
                "\\u+041",
                "\\x",
                "\\u00",
            ];
            let plain = rng.gen_range(0..2) == 0;
            let mut s = String::from("\"");
            for _ in 0..rng.gen_range(0..6) {
                let upto = if plain { 6 } else { pieces.len() };
                s.push_str(pieces[rng.gen_range(0..upto)]);
            }
            if rng.gen_range(0..10) > 0 {
                s.push('"');
            }
            s
        }

        fn ws(rng: &mut ChaCha12Rng) -> &'static str {
            ["", " ", "\n  ", "\t"][rng.gen_range(0..4usize)]
        }

        fn document(rng: &mut ChaCha12Rng, depth: u32) -> String {
            match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
                0 | 1 => number(rng),
                2 => string(rng),
                3 => ["true", "null", "nul", "x"][rng.gen_range(0..4usize)].into(),
                4 => {
                    let items: Vec<String> = (0..rng.gen_range(0..5))
                        .map(|_| format!("{}{}", ws(rng), document(rng, depth - 1)))
                        .collect();
                    format!("[{}{}]", items.join(","), ws(rng))
                }
                _ => {
                    let fields: Vec<String> = (0..rng.gen_range(0..4))
                        .map(|_| format!("{}:{}{}", string(rng), ws(rng), document(rng, depth - 1)))
                        .collect();
                    format!("{{{}}}", fields.join(","))
                }
            }
        }

        /// Cut, drop or insert one character, or leave the text whole.
        fn damage(rng: &mut ChaCha12Rng, text: String) -> String {
            let bounds: Vec<usize> = text
                .char_indices()
                .map(|(i, _)| i)
                .chain([text.len()])
                .collect();
            let at = bounds[rng.gen_range(0..bounds.len())];
            match rng.gen_range(0..4) {
                0 => text[..at].to_string(),
                1 if at < text.len() => {
                    let next = bounds
                        .iter()
                        .find(|&&b| b > at)
                        .copied()
                        .unwrap_or(text.len());
                    format!("{}{}", &text[..at], &text[next..])
                }
                2 => {
                    let c = ["\"", "\\", "-", "+", ".", "e", "0", ",", "]", "}"]
                        [rng.gen_range(0..10usize)];
                    format!("{}{c}{}", &text[..at], &text[at..])
                }
                _ => text,
            }
        }

        /// An array of integer tokens — mostly plain, sometimes signed,
        /// fractional, padded or past `u64::MAX` — with varied spacing.
        fn integer_array(rng: &mut ChaCha12Rng) -> String {
            let items: Vec<String> = (0..rng.gen_range(0..8))
                .map(|_| {
                    let token = if rng.gen_range(0..4) > 0 {
                        let n = rng.gen_range(1..20);
                        digits(rng, n)
                    } else {
                        number(rng)
                    };
                    format!("{}{token}{}", ws(rng), ws(rng))
                })
                .collect();
            format!("[{}]", items.join(","))
        }

        /// Every array of the tree whose items are all `Uint`s is packed.
        fn fully_packed(v: &Value) -> bool {
            match v {
                Value::Arr(items) => {
                    let all_uints =
                        !items.is_empty() && items.iter().all(|i| matches!(i, Value::Uint(_)));
                    !all_uints && items.iter().all(fully_packed)
                }
                Value::Obj(fields) => fields.iter().all(|(_, f)| fully_packed(f)),
                _ => true,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            #[test]
            fn fast_paths_agree_with_the_general_path(seed in 0u64..u64::MAX, depth in 0u32..4) {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let text = document(&mut rng, depth);
                let text = damage(&mut rng, text);
                let fast = parse_with::<true>(&text);
                prop_assert!(fast.as_ref().map_or(true, fully_packed), "{}", text);
                prop_assert_eq!(fast, parse_with::<false>(&text), "{}", text);
            }

            #[test]
            fn packed_integer_arrays_agree_with_the_general_path(seed in 0u64..u64::MAX) {
                let mut rng = ChaCha12Rng::seed_from_u64(seed);
                let text = integer_array(&mut rng);
                let text = damage(&mut rng, text);
                let fast = parse_with::<true>(&text);
                prop_assert!(fast.as_ref().map_or(true, fully_packed), "{}", text);
                prop_assert_eq!(fast, parse_with::<false>(&text), "{}", text);
            }
        }

        #[test]
        fn malformed_integer_arrays_fail_alike() {
            for text in [
                "[1,",
                "[1 2]",
                "[1, -2]",
                "[1, 2.5]",
                "[01, 2]",
                "[]",
                "[1,]",
                "[,1]",
                "[1, 2",
                "[1, 2 ,",
                "[12345678901234567890, 1]",
                "[1, 18446744073709551615]",
                "[1, 18446744073709551616]",
                "[1, 99999999999999999999999]",
                "[1, 2e3]",
                "[1, 2x]",
                "[1, 2]]",
            ] {
                let (fast, general) = (parse_with::<true>(text), parse_with::<false>(text));
                assert_eq!(fast, general, "{text}");
                if let (Err(f), Err(g)) = (&fast, &general) {
                    assert_eq!((f.offset, &f.message), (g.offset, &g.message), "{text}");
                }
            }
        }

        #[test]
        fn named_numeric_tokens_agree() {
            for token in [
                "007",
                "+5",
                "-0",
                "0",
                "1234567890123456789",
                "12345678901234567890",
                "18446744073709551615",
                "18446744073709551616",
                "99999999999999999999999",
                "12+3",
                "1e5",
                "-",
                "1.",
                "9-",
                "[007,+5,-0]",
                "[1234567890123456789 ]",
                "[18446744073709551615,1]",
                "[1,18446744073709551616]",
                "[00000000000000000001,2]",
                "[000000000000000000001,2]",
                "[[1,99999999999999999999],[3,4]]",
            ] {
                let fast = parse_with::<true>(token);
                assert_eq!(fast, parse_with::<false>(token), "{token}");
                if let Ok(value) = &fast {
                    assert!(fully_packed(value), "{token}: {value:?}");
                }
            }
        }
    }
}
