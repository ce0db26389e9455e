//! The workspace's one JSON stack, dependency-free.
//!
//! * [`JsonWriter`] emits compact JSON incrementally (telemetry reports,
//!   incident dumps, service responses, benchmark records);
//! * [`parse`] reads a document into a [`JsonValue`] tree ([`validate`]
//!   is a parse that keeps only the verdict);
//! * [`WriteJson`] / [`ReadJson`] give plain-data types — fitted GAMs,
//!   explanations and their reports — a typed wire form on
//!   top of the two, following serde's conventions so archives written
//!   by serde builds still load.

/// Escape a string for inclusion in a JSON document (without quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Format an `f64` as a JSON number.
///
/// JSON has no NaN/Infinity; those are mapped to `null` so documents stay
/// parseable by strict consumers.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` gives a round-trippable shortest representation.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Incremental writer that produces compact, syntactically valid JSON.
///
/// The writer tracks nesting and comma placement; callers just emit
/// fields/values in order:
///
/// ```
/// use gef_trace::json::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.field_str("name", "gam.fit");
/// w.field_u64("count", 3);
/// w.key("nested");
/// w.begin_array();
/// w.value_f64(1.5);
/// w.end_array();
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"gam.fit","count":3,"nested":[1.5]}"#);
/// ```
#[derive(Default)]
pub struct JsonWriter {
    buf: String,
    // true when the next emission at the current nesting level needs a comma
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        JsonWriter {
            buf: String::new(),
            need_comma: vec![false],
        }
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Open a `{`. Use [`Self::key`] first when inside an object.
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
    }

    /// Close the current `}`.
    pub fn end_object(&mut self) {
        self.need_comma.pop();
        self.buf.push('}');
    }

    /// Open a `[`.
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
    }

    /// Close the current `]`.
    pub fn end_array(&mut self) {
        self.need_comma.pop();
        self.buf.push(']');
    }

    /// Emit an object key; the next emission is its value.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        // The value that follows must not get a comma.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
    }

    /// Emit a string value.
    pub fn value_str(&mut self, v: &str) {
        self.pre_value();
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
    }

    /// Emit an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.pre_value();
        self.buf.push_str(&v.to_string());
    }

    /// Emit a float value (NaN/inf become `null`).
    pub fn value_f64(&mut self, v: f64) {
        self.pre_value();
        self.buf.push_str(&number(v));
    }

    /// Emit a raw pre-serialized JSON fragment as a value.
    ///
    /// The fragment must itself be valid JSON; it is inserted verbatim.
    pub fn value_raw(&mut self, fragment: &str) {
        self.pre_value();
        self.buf.push_str(fragment);
    }

    /// `"k": "v"` shorthand.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.value_str(v);
    }

    /// `"k": v` shorthand for integers.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.value_u64(v);
    }

    /// `"k": v` shorthand for floats.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.value_f64(v);
    }

    /// Open an externally tagged enum variant with data, `{"tag":{`;
    /// emit its fields, then [`Self::end_variant`].
    pub fn begin_variant(&mut self, tag: &str) {
        self.begin_object();
        self.key(tag);
        self.begin_object();
    }

    /// Close a [`Self::begin_variant`].
    pub fn end_variant(&mut self) {
        self.end_object();
        self.end_object();
    }

    /// `"k": v` for any [`WriteJson`] value.
    pub fn field<T: WriteJson + ?Sized>(&mut self, k: &str, v: &T) {
        self.key(k);
        v.write_json(self);
    }

    /// Consume the writer and return the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Structurally validate a JSON document: `Ok(())` when `input` is
/// exactly one well-formed JSON value, otherwise the [`parse`] error.
pub fn validate(input: &str) -> Result<(), String> {
    parse(input).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// Scan a string literal starting at its opening quote, checking its
/// escapes; leaves `pos` just past the closing quote.
fn scan_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {pos}")),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control char in string at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// A parsed JSON value (see [`parse`]).
///
/// Objects preserve key order as a `Vec` of pairs — telemetry reports
/// are emitted with deterministic ordering, and consumers like the
/// `telemetry_diff` CI tool compare them order-sensitively.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also what non-finite numbers serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits in a `u64`, held
    /// exactly (seeds and digests use all 64 bits, beyond what an `f64`
    /// represents).
    UInt(u64),
    /// Any other JSON number, held as `f64`.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, key order preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            JsonValue::UInt(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The exact value, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Read the required field `key` of an object as a `T`. Errors name
    /// the field path, e.g. `gam: beta: expected a number`.
    pub fn req<T: ReadJson>(&self, key: &str) -> Result<T, String> {
        match self.field(key)? {
            Some(v) => T::read_json(v).map_err(|e| format!("{key}: {e}")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// Read the optional field `key` of an object, `T::default()` when
    /// it is absent.
    pub fn opt<T: ReadJson + Default>(&self, key: &str) -> Result<T, String> {
        match self.field(key)? {
            Some(v) => T::read_json(v).map_err(|e| format!("{key}: {e}")),
            None => Ok(T::default()),
        }
    }

    fn field(&self, key: &str) -> Result<Option<&JsonValue>, String> {
        match self {
            JsonValue::Object(_) => Ok(self.get(key)),
            _ => Err(format!("expected an object with field `{key}`")),
        }
    }

    /// Split an externally tagged enum value: `"Tag"` is a unit variant
    /// (body `null`), `{"Tag": body}` a variant with data.
    pub fn variant(&self) -> Result<(&str, &JsonValue), String> {
        match self {
            JsonValue::String(tag) => Ok((tag, &JsonValue::Null)),
            JsonValue::Object(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, &pairs[0].1)),
            _ => Err("expected an enum variant".to_string()),
        }
    }

    /// Serialize back to compact JSON (object key order preserved;
    /// non-finite numbers become `null`, mirroring [`number`]).
    ///
    /// Together with [`parse`] this gives read-modify-write over
    /// emitted documents — e.g. the bench-regression gate appending a
    /// run to its `BENCH_trajectory.json` history.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(v) => out.push_str(&v.to_string()),
            JsonValue::Number(v) => out.push_str(&number(*v)),
            JsonValue::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

/// Parse one JSON document into a [`JsonValue`].
///
/// Strict: exactly one value, no trailing garbage, no trailing commas,
/// `\uXXXX` escapes checked, arrays and objects nested at most 128 deep. A non-negative integer literal that fits
/// in a `u64` becomes [`JsonValue::UInt`], every other number a
/// [`JsonValue::Number`] (correctly rounded, so a float written by
/// [`number`] reads back bit-identical).
///
/// ```
/// use gef_trace::json::{parse, JsonValue};
/// let v = parse(r#"{"name":"gam.fit","count":3}"#).unwrap();
/// assert_eq!(v.get("count").and_then(JsonValue::as_f64), Some(3.0));
/// ```
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Deepest array/object nesting [`parse`] accepts: far beyond any
/// document the workspace writes, and shallow enough that a hostile
/// input (say a request body of a million `[`) gets an error instead of
/// overflowing the parsing thread's stack.
const MAX_DEPTH: usize = 128;

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}"));
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                pairs.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(pairs));
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
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(JsonValue::String),
        Some(b't') => parse_lit(b, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|()| JsonValue::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            scan_number(b, pos)?;
            let text = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("invalid utf-8 in number at byte {start}"))?;
            if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| format!("unparseable number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    scan_string(b, pos)?;
    // Slice between the validated quotes, then decode escapes.
    let raw = std::str::from_utf8(&b[start + 1..*pos - 1])
        .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?;
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in string at byte {start}"))?;
                // Validated above; lone surrogates fall back to U+FFFD.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape in string at byte {start}")),
        }
    }
    Ok(out)
}

fn scan_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digits at byte {pos}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    Ok(())
}

/// A type with a JSON wire form, written through [`JsonWriter`].
///
/// Plain-data types follow serde's default conventions, so archives
/// written by a serde build of GEF stay readable: a struct is an object
/// keyed by its field names, a unit enum variant is its name as a
/// string, a variant with data is `{"Variant": {...}}`, a tuple is an
/// array, and an `Option` is `null` or its value.
pub trait WriteJson {
    /// Emit `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// The read half of [`WriteJson`]: rebuild a value from [`parse`] output.
///
/// Readers take required fields with [`JsonValue::req`], fields that
/// older archives may lack with [`JsonValue::opt`], and ignore unknown
/// fields. Numbers read exactly: a float field gets back the bits
/// [`number`] wrote (`null` reads as NaN), an integer field the exact
/// literal or a typed error when it does not fit.
pub trait ReadJson: Sized {
    /// Read `Self` from one parsed value.
    fn read_json(v: &JsonValue) -> Result<Self, String>;
}

/// Serialize a value to a compact JSON document.
pub fn to_string<T: WriteJson + ?Sized>(v: &T) -> String {
    let mut w = JsonWriter::new();
    v.write_json(&mut w);
    w.finish()
}

/// Parse a JSON document and read a `T` from it.
pub fn from_str<T: ReadJson>(s: &str) -> Result<T, String> {
    T::read_json(&parse(s)?)
}

impl WriteJson for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_f64(*self);
    }
}

impl ReadJson for f64 {
    fn read_json(v: &JsonValue) -> Result<f64, String> {
        match v {
            JsonValue::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| "expected a number".to_string()),
        }
    }
}

impl WriteJson for u64 {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_u64(*self);
    }
}

impl ReadJson for u64 {
    fn read_json(v: &JsonValue) -> Result<u64, String> {
        v.as_u64()
            .ok_or_else(|| "expected a non-negative integer".to_string())
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.value_raw(&self.to_string());
            }
        }

        impl ReadJson for $t {
            fn read_json(v: &JsonValue) -> Result<$t, String> {
                let wide = match v {
                    JsonValue::UInt(u) => i128::from(*u),
                    // Negative literals parse as f64; integral ones
                    // within ±2⁵³ are exact.
                    JsonValue::Number(x) if x.fract() == 0.0 && x.abs() <= 9.007_199_254_740_992e15 => {
                        *x as i128
                    }
                    _ => return Err("expected an integer".to_string()),
                };
                <$t>::try_from(wide).map_err(|_| format!("integer {wide} out of range"))
            }
        }
    )*};
}

json_int!(u32, usize, i32);

impl WriteJson for bool {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_raw(if *self { "true" } else { "false" });
    }
}

impl ReadJson for bool {
    fn read_json(v: &JsonValue) -> Result<bool, String> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err("expected a boolean".to_string()),
        }
    }
}

impl WriteJson for String {
    fn write_json(&self, w: &mut JsonWriter) {
        w.value_str(self);
    }
}

impl ReadJson for String {
    fn read_json(v: &JsonValue) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        for item in self {
            item.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ReadJson> ReadJson for Vec<T> {
    fn read_json(v: &JsonValue) -> Result<Vec<T>, String> {
        v.as_array()
            .ok_or_else(|| "expected an array".to_string())?
            .iter()
            .enumerate()
            .map(|(i, item)| T::read_json(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.value_raw("null"),
        }
    }
}

impl<T: ReadJson> ReadJson for Option<T> {
    fn read_json(v: &JsonValue) -> Result<Option<T>, String> {
        match v {
            JsonValue::Null => Ok(None),
            _ => T::read_json(v).map(Some),
        }
    }
}

impl<A: WriteJson, B: WriteJson> WriteJson for (A, B) {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_array();
        self.0.write_json(w);
        self.1.write_json(w);
        w.end_array();
    }
}

impl<A: ReadJson, B: ReadJson> ReadJson for (A, B) {
    fn read_json(v: &JsonValue) -> Result<(A, B), String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::read_json(a)?, B::read_json(b)?)),
            _ => Err("expected a 2-element array".to_string()),
        }
    }
}

/// Implement [`WriteJson`] and [`ReadJson`] for a plain struct as an
/// object of its fields, in the listed order. Fields after `default`
/// may be absent when reading (`T::default()` fills them, as for fields
/// added after archives were written); the rest are required. Every
/// field must be listed, or the reader's struct literal fails to
/// compile.
///
/// ```
/// #[derive(Debug, Default, PartialEq)]
/// struct Point {
///     x: f64,
///     label: String,
/// }
/// gef_trace::json_struct!(Point { x; default label });
///
/// let p: Point = gef_trace::json::from_str(r#"{"x":1.5}"#).unwrap();
/// assert_eq!(p, Point { x: 1.5, label: String::new() });
/// assert_eq!(gef_trace::json::to_string(&p), r#"{"x":1.5,"label":""}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),* $(; default $($opt:ident),*)? }) => {
        impl $crate::json::WriteJson for $ty {
            fn write_json(&self, w: &mut $crate::json::JsonWriter) {
                w.begin_object();
                $(w.field(stringify!($field), &self.$field);)*
                $($(w.field(stringify!($opt), &self.$opt);)*)?
                w.end_object();
            }
        }

        impl $crate::json::ReadJson for $ty {
            fn read_json(
                v: &$crate::json::JsonValue,
            ) -> ::std::result::Result<$ty, ::std::string::String> {
                Ok($ty {
                    $($field: v.req(stringify!($field))?,)*
                    $($($opt: v.opt(stringify!($opt))?,)*)?
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_json() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "pipeline.gam_fit");
        w.field_u64("count", 42);
        w.field_f64("mean_ns", 1234.5);
        w.field_f64("nan_becomes_null", f64::NAN);
        w.key("items");
        w.begin_array();
        for i in 0..3 {
            w.begin_object();
            w.field_u64("i", i);
            w.end_object();
        }
        w.end_array();
        w.key("empty");
        w.begin_array();
        w.end_array();
        w.end_object();
        let doc = w.finish();
        validate(&doc).unwrap_or_else(|e| panic!("invalid: {e}\n{doc}"));
        assert!(doc.contains(r#""nan_becomes_null":null"#));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let doc = format!("\"{}\"", escape("tab\tchar and \u{1} ctrl"));
        validate(&doc).unwrap();
    }

    #[test]
    fn validator_accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e-3",
            r#"{"a":[1,2,{"b":null}],"c":"xé"}"#,
            "  { \"k\" : [ ] }  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "{a:1}",
            "\"unterminated",
            "01x",
            "1 2",
            "[1] trailing",
            "{\"bad\\q\":1}",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, -1.25, 1e-9, 123456789.5, f64::MAX] {
            let s = number(v);
            let parsed: f64 = s.parse().unwrap();
            assert_eq!(parsed, v, "{s}");
        }
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn parser_builds_values() {
        let v = parse(r#"{"a":[1,2.5,-3e1],"b":{"s":"x\ny é"},"t":true,"n":null}"#).unwrap();
        let arr = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-30.0));
        let s = v
            .get("b")
            .and_then(|b| b.get("s"))
            .and_then(JsonValue::as_str);
        assert_eq!(s, Some("x\ny é"));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("label", "quote \" slash \\ tab \t");
        w.field_f64("value", -0.125);
        w.key("items");
        w.begin_array();
        w.value_u64(7);
        w.value_raw("null");
        w.end_array();
        w.end_object();
        let doc = w.finish();
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("label").and_then(JsonValue::as_str),
            Some("quote \" slash \\ tab \t")
        );
        assert_eq!(v.get("value").and_then(JsonValue::as_f64), Some(-0.125));
        let items = v.get("items").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items, &[JsonValue::UInt(7), JsonValue::Null]);
    }

    #[test]
    fn json_value_round_trips_through_to_json() {
        let doc = r#"{"a":[1,2.5,-30],"b":{"s":"x\ny \" é"},"t":true,"n":null,"e":[],"o":{}}"#;
        let v = parse(doc).unwrap();
        let re = v.to_json();
        validate(&re).unwrap_or_else(|e| panic!("invalid: {e}\n{re}"));
        assert_eq!(parse(&re).unwrap(), v, "{re}");
        // Non-finite numbers serialize as null.
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
    }

    #[test]
    fn integers_read_exactly_and_floats_by_bits() {
        for v in [0u64, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let doc = to_string(&v);
            assert_eq!(from_str::<u64>(&doc), Ok(v), "{doc}");
        }
        for v in [0.1, -0.0, 1e-300, 5e-324, f64::MAX, 1.0 / 3.0] {
            let back: f64 = from_str(&to_string(&v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        assert!(from_str::<f64>("null").unwrap().is_nan());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("1.5").is_err());
        assert!(from_str::<u32>("4294967296").is_err());
        assert_eq!(from_str::<i32>("-1"), Ok(-1));
        // Beyond u64 an integer literal is an ordinary (rounded) number.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(JsonValue::Number(2f64.powi(64)))
        );
    }

    #[test]
    fn typed_reads_follow_serde_conventions() {
        let v = parse(r#"{"a":[1,2],"pair":[3,0.5],"name":null,"extra":{}}"#).unwrap();
        assert_eq!(v.req::<Vec<usize>>("a"), Ok(vec![1, 2]));
        assert_eq!(v.req::<(usize, f64)>("pair"), Ok((3, 0.5)));
        assert_eq!(v.req::<Option<String>>("name"), Ok(None));
        assert_eq!(v.opt::<Vec<f64>>("absent"), Ok(Vec::new()));
        assert_eq!(
            v.req::<u64>("absent"),
            Err("missing field `absent`".to_string())
        );
        let e = v.req::<Vec<bool>>("a").unwrap_err();
        assert!(e.starts_with("a: [0]:"), "{e}");
        assert!(JsonValue::Null.req::<u64>("k").is_err());
        assert_eq!(
            parse(r#""Logit""#)
                .unwrap()
                .variant()
                .map(|(t, _)| t.to_string()),
            Ok("Logit".into())
        );
        let tagged = parse(r#"{"Factor":{"feature":2}}"#).unwrap();
        let (tag, body) = tagged.variant().unwrap();
        assert_eq!((tag, body.req::<usize>("feature")), ("Factor", Ok(2)));
        assert!(parse(r#"{"A":1,"B":2}"#).unwrap().variant().is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        // A megabyte of openers is an error, not a stack overflow.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn parser_rejects_what_validator_rejects() {
        for doc in ["", "{", "[1,]", "{\"a\":1,}", "1 2", "[1] trailing"] {
            assert!(parse(doc).is_err(), "should reject: {doc}");
        }
    }
}
