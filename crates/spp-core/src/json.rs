//! The repo's one JSON codec: a minimal parser, the [`Writer`] every
//! wire document is serialized through, and the [`Doc`]/[`Fields`]
//! reader every document is parsed through — plus the canonical
//! on-disk instance format built on them.
//!
//! The allowed dependency set contains no data-format crate, so both
//! halves are hand rolled. The parser is a strict recursive-descent
//! parser that tracks the **line** of every value, so schema errors can
//! name the offending field *and* line — the contract the batch tooling
//! relies on when a 10 000-file shard run rejects one input.
//!
//! **Layout rule.** A [`Writer`] document is a block object: `{`, one
//! `"key": value` per line at two-space indent, `}` and a newline. A
//! value is a scalar, an inline array or object on one line
//! (`["a", "b"]`, `{"k": 1, "j": 2}`), or a row array with one element
//! per line at the next indent level (four spaces inside a document);
//! an empty row array is `[]`. Floats go through [`Writer::num`], the
//! one place `{:.17e}` is written, so `parse ∘ serialize` is the
//! identity bit for bit.
//!
//! On-disk schema (`InstanceFile`):
//!
//! ```json
//! {
//!   "format": "spp-instance",
//!   "version": 1,
//!   "items": [
//!     {"id": 0, "w": 5.00000000000000000e-1, "h": 1.00000000000000000e0, "release": 0.00000000000000000e0}
//!   ],
//!   "edges": [
//!     [0, 1]
//!   ]
//! }
//! ```
//!
//! Edges are stored as raw `[pred, succ]` id pairs; cycle checking
//! belongs to the DAG layer (`spp-dag`), which this crate deliberately
//! does not depend on.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::error::CoreError;
use crate::instance::Instance;
use crate::item::Item;

// ---------------------------------------------------------------------------
// Low-level JSON values
// ---------------------------------------------------------------------------

/// A parsed JSON value (payload only; the line lives in [`JsonValue`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    /// A non-negative integer above 2^53, which `f64` cannot hold
    /// exactly (a 64-bit seed, say). Every other number is [`Json::Num`];
    /// [`as_num`] reads this one rounded, [`as_u64`] exactly.
    WideInt(u64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl Json {
    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) | Json::WideInt(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A JSON value together with the 1-based line it started on.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonValue {
    pub json: Json,
    pub line: usize,
}

/// A syntax error from the low-level parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonSyntaxError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for JsonSyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for JsonSyntaxError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> JsonSyntaxError {
        JsonSyntaxError {
            line: self.line,
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonSyntaxError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                Err(self.err(format!("expected {:?}, found {:?}", b as char, got as char)))
            }
            None => Err(self.err(format!("expected {:?}, found end of input", b as char))),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonSyntaxError> {
        self.skip_ws();
        let line = self.line;
        let json = match self.peek() {
            Some(b'{') => self.parse_object()?,
            Some(b'[') => self.parse_array()?,
            Some(b'"') => Json::Str(self.parse_string()?),
            Some(b't') | Some(b'f') => self.parse_bool()?,
            Some(b'n') => {
                self.parse_keyword("null")?;
                Json::Null
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number()?,
            Some(c) => return Err(self.err(format!("unexpected character {:?}", c as char))),
            None => return Err(self.err("unexpected end of input")),
        };
        Ok(JsonValue { json, line })
    }

    fn parse_keyword(&mut self, kw: &str) -> Result<(), JsonSyntaxError> {
        for want in kw.bytes() {
            match self.bump() {
                Some(got) if got == want => {}
                _ => return Err(self.err(format!("expected keyword {kw:?}"))),
            }
        }
        Ok(())
    }

    fn parse_bool(&mut self) -> Result<Json, JsonSyntaxError> {
        if self.peek() == Some(b't') {
            self.parse_keyword("true")?;
            Ok(Json::Bool(true))
        } else {
            self.parse_keyword("false")?;
            Ok(Json::Bool(false))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonSyntaxError> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.bump();
            }
        };
        let mut integer = self.peek() != Some(b'-');
        if !integer {
            self.bump();
        }
        digits(self);
        if self.peek() == Some(b'.') {
            integer = false;
            self.bump();
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            digits(self);
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        // Integer lexemes past f64's exact range keep every bit.
        if integer && self.pos - start > 15 {
            if let Ok(n) = token.parse::<u64>() {
                if n > 1 << 53 {
                    return Ok(Json::WideInt(n));
                }
            }
        }
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number {token:?}")))
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonSyntaxError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String, JsonSyntaxError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let unit = self.parse_hex4()?;
                        let code = if (0xD800..=0xDBFF).contains(&unit) {
                            // High surrogate: JSON encodes astral-plane
                            // characters as a \uXXXX\uXXXX pair.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("high surrogate not followed by \\u escape"));
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(self.err("invalid low surrogate in \\u pair"));
                            }
                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            unit
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?,
                        );
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Re-decode a multi-byte UTF-8 sequence (input is &str,
                    // so the bytes are valid UTF-8 by construction).
                    let len = match first {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonSyntaxError> {
        self.expect(b'[')?;
        let mut vals = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Json::Arr(vals));
        }
        loop {
            vals.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(vals)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonSyntaxError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(text: &str) -> Result<JsonValue, JsonSyntaxError> {
    let mut p = Parser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(v)
}

/// Escape a string for embedding in a JSON document (borrowed when
/// nothing needs escaping — the common case for registry names and
/// digests).
pub fn escape(s: &str) -> Cow<'_, str> {
    if !s
        .chars()
        .any(|c| c == '"' || c == '\\' || (c as u32) < 0x20)
    {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
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
    Cow::Owned(out)
}

// ---------------------------------------------------------------------------
// Writing: the one serializer
// ---------------------------------------------------------------------------

/// The serializer every wire document goes through; see the module docs
/// for the layout rule it implements. Field methods take the key and
/// return `&mut Self` for chaining; [`Writer::obj`], [`Writer::rows`]
/// and [`Writer::row`] open a container that [`Writer::end`] closes, and
/// [`Writer::finish`] closes whatever is still open.
pub struct Writer {
    out: String,
    /// Open containers, innermost last: closing bracket, one element
    /// per line (documents, row arrays), still empty.
    open: Vec<(char, bool, bool)>,
}

impl Writer {
    /// Open a document with its `format`/`version` header.
    pub fn new(format: &str, version: u64) -> Writer {
        let mut w = Writer::unversioned(format);
        w.int("version", version);
        w
    }

    /// Open a document whose only header is its `format` tag (error and
    /// acknowledgement replies).
    pub fn unversioned(format: &str) -> Writer {
        let mut w = Writer::start('{', '}');
        w.str("format", format);
        w
    }

    /// Open a document that is a bare row array (benchmark records).
    pub fn row_array() -> Writer {
        Writer::start('[', ']')
    }

    fn start(open: char, close: char) -> Writer {
        let mut w = Writer {
            out: String::with_capacity(512),
            open: Vec::new(),
        };
        w.open(None, open, close, true);
        w
    }

    /// Separator and key before the next value of the innermost
    /// container; returns the buffer to write the value into.
    fn next(&mut self, key: Option<&str>) -> &mut String {
        let depth = self.open.len();
        if let Some((_, block, empty)) = self.open.last_mut() {
            let first = std::mem::replace(empty, false);
            if *block {
                self.out.push_str(if first { "\n" } else { ",\n" });
                self.out.extend(std::iter::repeat_n("  ", depth));
            } else if !first {
                self.out.push_str(", ");
            }
        }
        if let Some(key) = key {
            self.out.push('"');
            self.out.push_str(&escape(key));
            self.out.push_str("\": ");
        }
        &mut self.out
    }

    fn open(&mut self, key: Option<&str>, open: char, close: char, block: bool) -> &mut Self {
        self.next(key).push(open);
        self.open.push((close, block, true));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let out = self.next(Some(key));
        out.push('"');
        out.push_str(&escape(v));
        out.push('"');
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.next(Some(key)), "{v}");
        self
    }

    /// A float in the canonical `{:.17e}` form, which parses back to the
    /// identical bits.
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let _ = write!(self.next(Some(key)), "{v:.17e}");
        self
    }

    /// A float rounded to `decimals` places — for human-facing figures
    /// (latencies, benchmark records), never for values read back.
    pub fn fixed(&mut self, key: &str, v: f64, decimals: usize) -> &mut Self {
        let _ = write!(self.next(Some(key)), "{v:.decimals$}");
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        let _ = write!(self.next(Some(key)), "{v}");
        self
    }

    /// An inline array of strings.
    pub fn strs<S: AsRef<str>>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = S>,
    ) -> &mut Self {
        self.open(Some(key), '[', ']', false);
        for s in items {
            let out = self.next(None);
            out.push('"');
            out.push_str(&escape(s.as_ref()));
            out.push('"');
        }
        self.end()
    }

    /// Open an inline object field.
    pub fn obj(&mut self, key: &str) -> &mut Self {
        self.open(Some(key), '{', '}', false)
    }

    /// Open a row array field.
    pub fn rows(&mut self, key: &str) -> &mut Self {
        self.open(Some(key), '[', ']', true)
    }

    /// Open an inline object as the next row of the innermost row array.
    pub fn row(&mut self) -> &mut Self {
        self.open(None, '{', '}', false)
    }

    /// An inline integer array as the next row of the innermost row
    /// array (an edge's `[pred, succ]`).
    pub fn row_ints(&mut self, ints: &[u64]) -> &mut Self {
        self.open(None, '[', ']', false);
        for v in ints {
            let _ = write!(self.next(None), "{v}");
        }
        self.end()
    }

    /// Close the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        let (close, block, empty) = self.open.pop().expect("Writer::end with nothing open");
        if block && !empty {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n("  ", self.open.len()));
        }
        self.out.push(close);
        self
    }

    /// Close every open container and return the document.
    pub fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.end();
        }
        self.out.push('\n');
        self.out
    }
}

// ---------------------------------------------------------------------------
// Reading: typed getters that name the field path
// ---------------------------------------------------------------------------

/// A schema error: which field is wrong, on which line, and why.
#[derive(Debug, Clone, PartialEq)]
pub enum FileFormatError {
    /// The document is not JSON at all.
    Syntax(JsonSyntaxError),
    /// The document is JSON but violates its schema.
    Field {
        /// Dotted/indexed path of the offending field, e.g. `items[3].w`.
        field: String,
        /// 1-based line the offending value starts on.
        line: usize,
        msg: String,
    },
}

impl std::fmt::Display for FileFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileFormatError::Syntax(e) => write!(f, "invalid JSON: {e}"),
            FileFormatError::Field { field, line, msg } => {
                write!(f, "field {field} (line {line}): {msg}")
            }
        }
    }
}

impl std::error::Error for FileFormatError {}

impl From<JsonSyntaxError> for FileFormatError {
    fn from(e: JsonSyntaxError) -> Self {
        FileFormatError::Syntax(e)
    }
}

fn field_err(field: &str, line: usize, msg: impl Into<String>) -> FileFormatError {
    FileFormatError::Field {
        field: field.to_string(),
        line,
        msg: msg.into(),
    }
}

/// `e` with its field path replaced — for accessors called with an empty
/// path so the real one is only formatted on error.
fn relabel(e: FileFormatError, path: &str) -> FileFormatError {
    match e {
        FileFormatError::Field { line, msg, .. } => field_err(path, line, msg),
        syntax => syntax,
    }
}

fn type_err(v: &JsonValue, path: &str, want: &str) -> FileFormatError {
    field_err(
        path,
        v.line,
        format!("expected {want}, found {}", v.json.type_name()),
    )
}

/// Typed accessor: the value must be an object; `path` names it in the
/// error.
pub fn as_obj<'a>(
    v: &'a JsonValue,
    path: &str,
) -> Result<&'a Vec<(String, JsonValue)>, FileFormatError> {
    match &v.json {
        Json::Obj(fields) => Ok(fields),
        _ => Err(type_err(v, path, "object")),
    }
}

/// Typed accessor: the value must be an array.
pub fn as_arr<'a>(v: &'a JsonValue, path: &str) -> Result<&'a Vec<JsonValue>, FileFormatError> {
    match &v.json {
        Json::Arr(vals) => Ok(vals),
        _ => Err(type_err(v, path, "array")),
    }
}

/// Typed accessor: the value must be a number.
pub fn as_num(v: &JsonValue, path: &str) -> Result<f64, FileFormatError> {
    match &v.json {
        Json::Num(x) => Ok(*x),
        Json::WideInt(n) => Ok(*n as f64),
        _ => Err(type_err(v, path, "number")),
    }
}

/// Typed accessor: the value must be a non-negative integer; exact over
/// all of `u64`.
pub fn as_u64(v: &JsonValue, path: &str) -> Result<u64, FileFormatError> {
    if let Json::WideInt(n) = v.json {
        return Ok(n);
    }
    let x = as_num(v, path)?;
    // 2^64 and beyond would saturate to u64::MAX instead of failing.
    if x < 0.0 || x.fract() != 0.0 || x >= u64::MAX as f64 {
        return Err(field_err(
            path,
            v.line,
            format!("expected a non-negative integer, found {x}"),
        ));
    }
    Ok(x as u64)
}

/// Typed accessor: the value must be a string.
pub fn as_str<'a>(v: &'a JsonValue, path: &str) -> Result<&'a str, FileFormatError> {
    match &v.json {
        Json::Str(s) => Ok(s),
        _ => Err(type_err(v, path, "string")),
    }
}

/// Typed accessor: the value must be `true` or `false`.
pub fn as_bool(v: &JsonValue, path: &str) -> Result<bool, FileFormatError> {
    match v.json {
        Json::Bool(b) => Ok(b),
        _ => Err(type_err(v, path, "bool")),
    }
}

/// Look up a required field of an object (`doc` supplies the error line
/// when the field is absent).
pub fn get_field<'a>(
    obj: &'a [(String, JsonValue)],
    doc: &JsonValue,
    name: &str,
) -> Result<&'a JsonValue, FileFormatError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| field_err(name, doc.line, "missing required field"))
}

/// A parsed wire document whose `format` tag and `version` are checked —
/// the one place every format does so. Read it through [`Doc::fields`].
pub struct Doc {
    root: JsonValue,
}

impl Doc {
    pub fn parse(text: &str, format: &str, version: u64) -> Result<Doc, FileFormatError> {
        let doc = Doc { root: parse(text)? };
        let top = Fields::of(&doc.root, "$")?;
        let tag = top.str("format")?;
        if tag != format {
            return Err(top.err("format", format!("expected {format:?}, found {tag:?}")));
        }
        let v = top.u64("version")?;
        if v != version {
            return Err(top.err(
                "version",
                format!("unsupported wire version {v} (this build reads {version})"),
            ));
        }
        Ok(doc)
    }

    /// The document's top-level fields.
    pub fn fields(&self) -> Fields<'_> {
        Fields::of(&self.root, "$").expect("checked to be an object at parse")
    }
}

/// One object of a parsed document, with required and optional typed
/// getters. Every getter error names the field's full path
/// (`cells[3].lb`) and line; the path is only built on error.
#[derive(Clone, Copy)]
pub struct Fields<'a> {
    fields: &'a [(String, JsonValue)],
    line: usize,
    /// The row array and index this object sits at; `None` at top level.
    row: Option<(&'a str, usize)>,
}

impl<'a> Fields<'a> {
    /// View `v` as an object (`path` names it if it is not one).
    fn of(v: &'a JsonValue, path: &str) -> Result<Fields<'a>, FileFormatError> {
        Ok(Fields {
            fields: as_obj(v, path)?,
            line: v.line,
            row: None,
        })
    }

    fn path(&self, name: &str) -> String {
        match self.row {
            Some((arr, i)) => format!("{arr}[{i}].{name}"),
            None => name.to_string(),
        }
    }

    /// A schema error naming field `name` — at its value's line when
    /// present, at this object's otherwise.
    pub fn err(&self, name: &str, msg: impl Into<String>) -> FileFormatError {
        let line = self.opt_value(name).map_or(self.line, |v| v.line);
        field_err(&self.path(name), line, msg)
    }

    fn opt_value(&self, name: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Reject any field not in `allowed`, by name — for hand-written
    /// inputs, where a typo must not be silently dropped.
    pub fn only(&self, allowed: &[&str]) -> Result<(), FileFormatError> {
        match self
            .fields
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((key, _)) => Err(self.err(key, "unknown field")),
            None => Ok(()),
        }
    }

    fn value(&self, name: &str) -> Result<&'a JsonValue, FileFormatError> {
        self.opt_value(name)
            .ok_or_else(|| self.err(name, "missing required field"))
    }

    /// Field `name` through a typed accessor, its path built only on
    /// error.
    fn get<T>(
        &self,
        name: &str,
        read: fn(&'a JsonValue, &str) -> Result<T, FileFormatError>,
    ) -> Result<T, FileFormatError> {
        read(self.value(name)?, "").map_err(|e| relabel(e, &self.path(name)))
    }

    pub fn str(&self, name: &str) -> Result<&'a str, FileFormatError> {
        self.get(name, as_str)
    }

    pub fn u64(&self, name: &str) -> Result<u64, FileFormatError> {
        self.get(name, as_u64)
    }

    pub fn num(&self, name: &str) -> Result<f64, FileFormatError> {
        self.get(name, as_num)
    }

    pub fn bool(&self, name: &str) -> Result<bool, FileFormatError> {
        self.get(name, as_bool)
    }

    /// `get(name)` when the field is present, `None` when absent — for
    /// fields a format gained after version 1 (old documents still parse).
    pub fn opt<T>(
        &self,
        name: &str,
        get: impl FnOnce(&Self, &str) -> Result<T, FileFormatError>,
    ) -> Result<Option<T>, FileFormatError> {
        match self.opt_value(name) {
            Some(_) => get(self, name).map(Some),
            None => Ok(None),
        }
    }

    pub fn arr(&self, name: &str) -> Result<&'a [JsonValue], FileFormatError> {
        self.get(name, as_arr).map(Vec::as_slice)
    }

    /// An array of strings.
    pub fn strs(&self, name: &str) -> Result<Vec<String>, FileFormatError> {
        let item = |(i, v): (usize, &JsonValue)| match &v.json {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(type_err(v, &format!("{}[{i}]", self.path(name)), "string")),
        };
        self.arr(name)?.iter().enumerate().map(item).collect()
    }

    /// A row array of objects, each viewed through its own getters.
    pub fn rows(
        &self,
        name: &'a str,
    ) -> Result<impl Iterator<Item = Result<Fields<'a>, FileFormatError>> + 'a, FileFormatError>
    {
        Ok(self
            .arr(name)?
            .iter()
            .enumerate()
            .map(move |(i, v)| match &v.json {
                Json::Obj(fields) => Ok(Fields {
                    fields,
                    line: v.line,
                    row: Some((name, i)),
                }),
                _ => Err(type_err(v, &format!("{name}[{i}]"), "object")),
            }))
    }
}

// ---------------------------------------------------------------------------
// The instance file
// ---------------------------------------------------------------------------

/// The on-disk instance document: items plus raw precedence edges.
///
/// This is the *transport* form — it stores exactly what the file stores.
/// [`InstanceFile::instance`] builds the validated [`Instance`]; pairing
/// the edges with a checked DAG is the caller's job (`spp-gen::fileio`),
/// because `spp-core` does not depend on the graph crate.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceFile {
    pub items: Vec<Item>,
    pub edges: Vec<(usize, usize)>,
}

/// Current schema version written by [`InstanceFile::to_json`].
pub const INSTANCE_FORMAT_VERSION: u64 = 1;

/// The `format` tag written by [`InstanceFile::to_json`].
pub const INSTANCE_FORMAT_NAME: &str = "spp-instance";

impl InstanceFile {
    pub fn new(items: Vec<Item>, edges: Vec<(usize, usize)>) -> Self {
        InstanceFile { items, edges }
    }

    /// Snapshot an instance (+ optional edge list) into transport form.
    pub fn from_instance(inst: &Instance, edges: Vec<(usize, usize)>) -> Self {
        InstanceFile {
            items: inst.items().to_vec(),
            edges,
        }
    }

    /// Build the validated [`Instance`] (ids must be exactly `0..n`).
    pub fn instance(&self) -> Result<Instance, CoreError> {
        Instance::new(self.items.clone())
    }

    /// Canonical serialization: fixed field order, one item / edge per
    /// line, floats via [`Writer::num`] so the round-trip is exact.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(INSTANCE_FORMAT_NAME, INSTANCE_FORMAT_VERSION);
        w.out
            .reserve(100 * self.items.len() + 12 * self.edges.len());
        w.rows("items");
        for it in &self.items {
            w.row()
                .int("id", it.id as u64)
                .num("w", it.w)
                .num("h", it.h)
                .num("release", it.release)
                .end();
        }
        w.end().rows("edges");
        for &(u, v) in &self.edges {
            w.row_ints(&[u as u64, v as u64]);
        }
        w.finish()
    }

    /// Parse and schema-check a document produced by [`Self::to_json`]
    /// (or written by hand). Items may appear in any order; their ids must
    /// be exactly `0..n`. Every schema violation names the offending
    /// field path and the line it starts on; unknown fields are rejected
    /// so typos (`"edgs"`) are named instead of silently dropped.
    pub fn parse(text: &str) -> Result<Self, FileFormatError> {
        let doc = Doc::parse(text, INSTANCE_FORMAT_NAME, INSTANCE_FORMAT_VERSION)?;
        let top = doc.fields();
        top.only(&["format", "version", "items", "edges"])?;

        let mut items = top
            .rows("items")?
            .map(|row| parse_item(row?))
            .collect::<Result<Vec<Item>, _>>()?;
        items.sort_by_key(|it| it.id);
        if let Some(index) = items.iter().enumerate().position(|(i, it)| it.id != i) {
            return Err(top.err(
                "items",
                format!(
                    "item ids must be exactly 0..{}; missing id {index}",
                    items.len()
                ),
            ));
        }

        let n = items.len();
        let edges_arr = top.arr("edges")?;
        let mut edges = Vec::with_capacity(edges_arr.len());
        for (i, ev) in edges_arr.iter().enumerate() {
            // Paths are formatted only on error: this runs for every edge
            // of every instance a server parses.
            let path = |end: &str| format!("edges[{i}]{end}");
            let pair = match &ev.json {
                Json::Arr(pair) if pair.len() == 2 => pair,
                Json::Arr(pair) => {
                    let msg = format!("expected [pred, succ], found {} elements", pair.len());
                    return Err(field_err(&path(""), ev.line, msg));
                }
                _ => return Err(type_err(ev, &path(""), "array")),
            };
            let end = |k: usize| match as_u64(&pair[k], "") {
                Ok(id) if id < n as u64 => Ok(id as usize),
                Ok(id) => Err(field_err(
                    &path(&format!("[{k}]")),
                    ev.line,
                    format!("id {id} out of range (n = {n})"),
                )),
                Err(e) => Err(relabel(e, &path(&format!("[{k}]")))),
            };
            edges.push((end(0)?, end(1)?));
        }

        Ok(InstanceFile { items, edges })
    }
}

fn parse_item(row: Fields<'_>) -> Result<Item, FileFormatError> {
    row.only(&["id", "w", "h", "release"])?;
    let id = row.u64("id")? as usize;
    let w = row.num("w")?;
    let h = row.num("h")?;
    let release = row.num("release")?;
    // Domain checks here so the error carries the field path + line
    // instead of a bare CoreError at Instance construction.
    if !w.is_finite() || w <= 0.0 || w > 1.0 {
        return Err(row.err("w", format!("width {w} outside (0, 1]")));
    }
    if !h.is_finite() || h <= 0.0 {
        return Err(row.err("h", format!("height {h} must be positive and finite")));
    }
    if !release.is_finite() || release < 0.0 {
        return Err(row.err(
            "release",
            format!("release {release} must be non-negative and finite"),
        ));
    }
    Ok(Item::with_release(id, w, h, release))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InstanceFile {
        InstanceFile::new(
            vec![
                Item::with_release(0, 0.5, 1.0, 0.0),
                Item::with_release(1, 0.25, 2.0, 1.5),
                Item::with_release(2, 1.0, 0.125, 0.0),
            ],
            vec![(0, 1), (1, 2)],
        )
    }

    #[test]
    fn roundtrip_is_identity() {
        let f = sample();
        let text = f.to_json();
        let back = InstanceFile::parse(&text).unwrap();
        assert_eq!(f, back);
        // And serialization is canonical: serialize ∘ parse ∘ serialize = serialize.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn empty_instance_roundtrips() {
        let f = InstanceFile::new(vec![], vec![]);
        assert_eq!(InstanceFile::parse(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn items_in_any_order_are_sorted() {
        let text = r#"{"format": "spp-instance", "version": 1,
            "items": [{"id": 1, "w": 0.5, "h": 1, "release": 0},
                      {"id": 0, "w": 0.25, "h": 2, "release": 0}],
            "edges": []}"#;
        let f = InstanceFile::parse(text).unwrap();
        assert_eq!(f.items[0].id, 0);
        assert_eq!(f.items[0].w, 0.25);
        assert!(f.instance().is_ok());
    }

    #[test]
    fn errors_name_field_and_line() {
        // Non-numeric width on line 4 of the document.
        let text = "{\"format\": \"spp-instance\",\n \"version\": 1,\n \"items\": [\n  {\"id\": 0, \"w\": \"wide\", \"h\": 1, \"release\": 0}\n ],\n \"edges\": []}";
        let err = InstanceFile::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("items[0].w"), "{msg}");
        assert!(msg.contains("line 4"), "{msg}");

        // Edge referencing a nonexistent item.
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": 0}],\n \"edges\": [[0, 7]]}";
        let err = InstanceFile::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("edges[0][1]"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn unknown_fields_rejected_by_name() {
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [], \"edges\": [],\n \"edgs\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("edgs"), "{msg}");

        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": 0, \"color\": 3}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("items[0].color"), "{msg}");
    }

    #[test]
    fn wrong_format_or_version_rejected() {
        let text = "{\"format\": \"gif\", \"version\": 1, \"items\": [], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("format") && msg.contains("gif"), "{msg}");

        let text = "{\"format\": \"spp-instance\", \"version\": 99, \"items\": [], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("version") && msg.contains("99"), "{msg}");
    }

    #[test]
    fn domain_violations_name_the_field() {
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 1.5, \"h\": 1, \"release\": 0}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(
            msg.contains("items[0].w") && msg.contains("(0, 1]"),
            "{msg}"
        );

        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": -2}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("items[0].release"), "{msg}");
    }

    #[test]
    fn gapped_ids_rejected() {
        let text = "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [{\"id\": 0, \"w\": 0.5, \"h\": 1, \"release\": 0},\n {\"id\": 2, \"w\": 0.5, \"h\": 1, \"release\": 0}], \"edges\": []}";
        let msg = InstanceFile::parse(text).unwrap_err().to_string();
        assert!(msg.contains("missing id 1"), "{msg}");
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = InstanceFile::parse("{\n \"format\": \"spp-instance\",\n oops\n}").unwrap_err();
        match err {
            FileFormatError::Syntax(e) => assert_eq!(e.line, 3),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn json_parser_handles_generic_documents() {
        let v = parse(r#"{"a": [1, -2.5e3, true, null, "x\nA"], "b": {}}"#).unwrap();
        let obj = match &v.json {
            Json::Obj(f) => f,
            _ => panic!(),
        };
        let arr = match &obj[0].1.json {
            Json::Arr(a) => a,
            _ => panic!(),
        };
        assert_eq!(arr[0].json, Json::Num(1.0));
        assert_eq!(arr[1].json, Json::Num(-2500.0));
        assert_eq!(arr[2].json, Json::Bool(true));
        assert_eq!(arr[3].json, Json::Null);
        assert_eq!(arr[4].json, Json::Str("x\nA".into()));
        assert!(parse("{,}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("[1] trailing").is_err());
    }

    #[test]
    fn integers_are_exact_over_all_of_u64() {
        let v = parse("[9007199254740993, 12345678901234567891, 18446744073709551615, 42, 1.5]")
            .unwrap();
        let Json::Arr(vals) = &v.json else { panic!() };
        let ints: Vec<u64> = vals[..4].iter().map(|x| as_u64(x, "x").unwrap()).collect();
        assert_eq!(ints, [(1 << 53) + 1, 12345678901234567891, u64::MAX, 42]);
        // Every number still reads as a number.
        assert_eq!(
            as_num(&vals[1], "x").unwrap(),
            12345678901234567891u64 as f64
        );
        assert_eq!(as_num(&vals[4], "x").unwrap(), 1.5);
        assert_eq!(vals[3].json, Json::Num(42.0));
        for out_of_range in ["18446744073709551616", "1e30", "-1", "2.5"] {
            assert!(
                as_u64(&parse(out_of_range).unwrap(), "x").is_err(),
                "{out_of_range}"
            );
        }
    }

    #[test]
    fn reader_checks_the_header_and_names_row_paths() {
        let mut w = Writer::new("spp-test", 2);
        w.rows("cells");
        w.row().num("lb", 1.0).end();
        w.row().str("lb", "x").end();
        w.end().rows("none");
        let text = w.finish();
        assert!(text.contains("\n  \"none\": []\n}\n"), "{text}");

        let doc = Doc::parse(&text, "spp-test", 2).unwrap();
        let rows: Vec<_> = doc.fields().rows("cells").unwrap().collect();
        assert_eq!(rows[0].as_ref().unwrap().num("lb").unwrap(), 1.0);
        let err = rows[1].as_ref().unwrap().num("lb").unwrap_err().to_string();
        assert!(
            err.contains("cells[1].lb") && err.contains("line 6"),
            "{err}"
        );
        let missing = doc.fields().opt("absent", Fields::u64).unwrap();
        assert_eq!(missing, None);

        let err = Doc::parse(&text, "spp-other", 2).err().unwrap().to_string();
        assert!(
            err.contains("spp-other") && err.contains("spp-test"),
            "{err}"
        );
        let err = Doc::parse(&text, "spp-test", 1).err().unwrap().to_string();
        assert!(err.contains("unsupported wire version 2"), "{err}");
    }

    #[test]
    fn escape_covers_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // U+1F600 written as a JSON surrogate pair.
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.json, Json::Str("\u{1F600}".into()));
        // Literal (non-escaped) astral characters pass through too.
        let v = parse("\"\u{1F600}\"").unwrap();
        assert_eq!(v.json, Json::Str("\u{1F600}".into()));
        // Lone high surrogate, lone low surrogate, malformed pair.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }
}
