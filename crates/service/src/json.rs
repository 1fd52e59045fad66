//! Minimal hand-rolled JSON: a value type, a recursive-descent pull reader
//! with the tree parser built on it, and a deterministic encoder.
//!
//! The workspace builds with `CARGO_NET_OFFLINE=true` and vendors no serde,
//! so the service protocol carries its own JSON layer — the write side
//! extends the emitter style of `eval_bench.rs` into a reusable encoder,
//! and the read side is a strict parser for the protocol subset: objects,
//! arrays, strings (with `\uXXXX` escapes), finite numbers, booleans, null.
//! [`Reader`] holds that grammar once; [`parse`] builds a [`Json`] tree
//! through it, and a decoder that wants typed values (the trace reader in
//! `nws-scenario`) reads them off the text with no tree.
//!
//! Intentional deviations from full RFC 8259, documented here so nobody
//! trips on them later: no non-finite numbers on either side (encoding a
//! NaN/∞ produces `null`), object keys keep *insertion order* (encoding is
//! deterministic, which the tests and the bench reports rely on), and
//! duplicate keys are rejected at parse time instead of last-wins.
//!
//! Numbers: unsigned integer literals parse into the exact [`Json::UInt`]
//! variant (full `u64` range — counters past 2^53 survive a round trip
//! bit-exactly), everything else into `f64` [`Json::Num`]; the two compare
//! equal when numerically equal, mirroring JSON's single number type.
//!
//! Strings: `\uXXXX` escapes decode UTF-16 surrogate *pairs* into the
//! astral-plane character they encode (RFC 8259 §7); lone surrogates are
//! rejected with an explicit error rather than smuggled through. The
//! encoder emits astral characters as raw UTF-8 (never as surrogate-pair
//! escapes), which round-trips through the parser unchanged.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// A parsed JSON value. Objects preserve insertion order (`Vec` of pairs,
/// not a map) so encoding is deterministic.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A general number (an `f64`, as in JavaScript).
    Num(f64),
    /// An exact unsigned integer. JSON has a single number type, so this is
    /// a fidelity distinction, not a semantic one: `u64` counters encode
    /// and re-parse bit-exactly where a round trip through `f64` would
    /// silently round above 2^53. Compares numerically equal to [`Json::Num`].
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            // JSON has one number type; an integer that happens to have
            // parsed into the exact variant still equals its f64 spelling.
            (Json::Num(a), Json::UInt(b)) | (Json::UInt(b), Json::Num(a)) => *a == *b as f64,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a number, if it is one. Exact integers larger than 2^53
    /// round to the nearest representable `f64`; use [`Json::as_u64`] when
    /// exactness matters.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: any [`Json::UInt`], or a
    /// [`Json::Num`] that is a nonnegative integer small enough (≤ 2^53)
    /// for its `f64` representation to be exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9_007_199_254_740_992.0 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
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

    /// Encodes the value as compact single-line JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Integral values print without a trailing ".0" — the
                    // protocol's counters read naturally that way.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        let _ = write!(out, "{x}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn encode_string(s: &str, out: &mut String) {
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

/// Builds an object value from key–value pairs; the ergonomic constructor
/// for response assembly.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Parses one JSON document, requiring it to consume the whole input.
///
/// # Errors
/// A message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut reader = Reader::new(text);
    let value = reader.value()?;
    reader.end()?;
    Ok(value)
}

/// Deepest container nesting the parser accepts. The protocol itself uses
/// two or three levels; the cap exists so a hostile `[[[[…` line degrades
/// into a parse error instead of a recursion-driven stack overflow (which
/// would take the whole daemon down — exactly what the fault-isolation
/// layer must prevent).
const MAX_DEPTH: usize = 128;

/// Objects with more keys than this detect duplicates through a hash set;
/// smaller ones (every protocol message) scan the keys so far.
const KEY_SCAN_LIMIT: usize = 16;

/// A pull reader over one JSON text, and the one implementation of this
/// module's grammar: [`parse`] builds its tree through it, and a decoder
/// that wants typed values reads them straight off the text instead, with
/// no tree in between.
///
/// Every method that reads a value first skips the whitespace before it.
/// Containers are read through callbacks ([`Reader::object`],
/// [`Reader::array`]) so the separators, the depth cap and the
/// duplicate-key rule stay here. A callback must read exactly one value,
/// and a value it does not want goes through [`Reader::value`], which
/// validates it as [`parse`] would. Errors carry the byte offset of the
/// first problem, so a decoder reading the text in order reports the same
/// syntax error [`parse`] would.
pub struct Reader<'a> {
    /// The input; `bytes` is the same text, indexed bytewise.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// A number literal as the grammar reads it: plain unsigned integer
/// digits keep their exact `u64`, anything else is a finite `f64`.
#[derive(Clone, Copy)]
enum Number {
    UInt(u64),
    Float(f64),
}

impl From<Number> for Json {
    fn from(n: Number) -> Json {
        match n {
            Number::UInt(u) => Json::UInt(u),
            Number::Float(x) => Json::Num(x),
        }
    }
}

/// The keys of one object read so far, for the duplicate-key rule: a scan
/// of the first [`KEY_SCAN_LIMIT`], a hash set of the rest.
#[derive(Default)]
struct Keys<'a> {
    few: Vec<Cow<'a, str>>,
    many: Option<HashSet<Cow<'a, str>>>,
}

impl<'a> Keys<'a> {
    /// Records `key`; `false` if the object already has it.
    fn insert(&mut self, key: Cow<'a, str>) -> bool {
        if self.few.contains(&key) {
            return false;
        }
        if self.few.len() < KEY_SCAN_LIMIT {
            self.few.push(key);
            return true;
        }
        self.many.get_or_insert_with(HashSet::new).insert(key)
    }
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Requires the rest of the input to be whitespace.
    ///
    /// # Errors
    /// `trailing garbage` with the offset of the first other byte.
    pub fn end(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing garbage at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads the next value into a tree.
    ///
    /// # Errors
    /// The first syntax error in the value.
    pub fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    let value = r.value()?;
                    pairs.push((key.into_owned(), value));
                    Ok(())
                })?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r, _| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::from),
            Some(_) => self.err(format_args!("unexpected character")),
            None => self.err(format_args!("unexpected end of input")),
        }
    }

    /// Reads an object, calling `field` with each key in order; `field`
    /// must read that key's value. A value that is not an object is read
    /// through [`Reader::value`] instead, and gives `false`.
    ///
    /// # Errors
    /// The first syntax error, a repeated key, or an error from `field`.
    pub fn object<F>(&mut self, mut field: F) -> Result<bool, String>
    where
        F: FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            self.value()?;
            return Ok(false);
        }
        self.pos += 1;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(true);
        }
        let mut keys = Keys::default();
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return self.err(format_args!("duplicate key '{key}'"));
            }
            self.skip_ws();
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(true);
                }
                _ => return self.err(format_args!("expected ',' or '}}'")),
            }
        }
    }

    /// Reads an array, calling `item` with each element's index; `item`
    /// must read that element. A value that is not an array is read
    /// through [`Reader::value`] instead, and gives `false`.
    ///
    /// # Errors
    /// The first syntax error, or an error from `item`.
    pub fn array<F>(&mut self, mut item: F) -> Result<bool, String>
    where
        F: FnMut(&mut Self, usize) -> Result<(), String>,
    {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.value()?;
            return Ok(false);
        }
        self.pos += 1;
        self.enter()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(true);
        }
        let mut index = 0;
        loop {
            item(self, index)?;
            index += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(true);
                }
                _ => return self.err(format_args!("expected ',' or ']'")),
            }
        }
    }

    /// Reads the next value: a string gives `Some`, borrowed from the
    /// text unless it holds escapes; any other value is read through
    /// [`Reader::value`] and gives `None`.
    ///
    /// # Errors
    /// The first syntax error in the value.
    #[inline]
    pub fn opt_string(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.value().map(|_| None)
        }
    }

    /// Reads the next value: a number gives `Some` of its value as
    /// [`Json::as_f64`] reads it from the tree [`parse`] builds; any other
    /// value is read through [`Reader::value`] and gives `None`.
    ///
    /// # Errors
    /// The first syntax error in the value.
    #[inline]
    pub fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        Ok(self.opt_number()?.map(|n| match n {
            Number::UInt(u) => u as f64,
            Number::Float(x) => x,
        }))
    }

    /// Reads the next value: a number gives its value as [`Json::as_u64`]
    /// reads it from the tree [`parse`] builds, `None` for a number that is
    /// not an exact nonnegative integer; any other value is read through
    /// [`Reader::value`] and gives `None`.
    ///
    /// # Errors
    /// The first syntax error in the value.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        Ok(self.opt_number()?.and_then(|n| Json::from(n).as_u64()))
    }

    #[inline]
    fn opt_number(&mut self) -> Result<Option<Number>, String> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.number().map(Some)
        } else {
            self.value().map(|_| None)
        }
    }

    /// An error at the current byte. Cold and out of line, so the hot
    /// paths that can fail stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn err<T>(&self, msg: fmt::Arguments<'_>) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format_args!("expected '{}'", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format_args!("invalid literal"))
        }
    }

    #[inline]
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format_args!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    /// Moves past the run of bytes up to the next quote or backslash (or
    /// the end of input). Both ends of the run sit next to an ASCII byte
    /// (or the end), never inside a multi-byte character, so the run is a
    /// valid `&str` slice.
    #[inline]
    fn skip_run(&mut self) {
        self.pos += self.bytes[self.pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.bytes.len() - self.pos);
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.escaped_string(start).map(Cow::Owned)
    }

    /// The rest of a string that holds an escape (or is unterminated),
    /// read from its first backslash; its text began at `start`.
    fn escaped_string(&mut self, start: usize) -> Result<String, String> {
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return self.err(format_args!("unterminated string")),
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
                            let code = self.hex4(self.pos + 1)?;
                            if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: RFC 8259 encodes astral
                                // characters as a \uD8xx\uDCxx pair; decode
                                // the pair into one char.
                                if self.bytes.get(self.pos + 5) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 6) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "lone high surrogate \\u{code:04x} at byte {} \
                                         (expected a \\uDC00-\\uDFFF low surrogate escape)",
                                        self.pos
                                    ));
                                }
                                let low = self.hex4(self.pos + 7)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "high surrogate \\u{code:04x} followed by \\u{low:04x} \
                                         at byte {} (not a low surrogate)",
                                        self.pos
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                // A valid surrogate pair always combines to
                                // U+10000..=U+10FFFF, but this decoder runs on
                                // untrusted socket bytes in the daemon's reader
                                // thread (no catch_unwind above it), so a logic
                                // slip must surface as an error, not a panic.
                                let c = char::from_u32(combined).ok_or_else(|| {
                                    format!(
                                        "surrogate pair \\u{code:04x}\\u{low:04x} decodes \
                                         outside Unicode at byte {}",
                                        self.pos
                                    )
                                })?;
                                out.push(c);
                                self.pos += 10;
                            } else if (0xDC00..=0xDFFF).contains(&code) {
                                return Err(format!(
                                    "lone low surrogate \\u{code:04x} at byte {} \
                                     (low surrogates are only valid after a high surrogate)",
                                    self.pos
                                ));
                            } else {
                                // Non-surrogate BMP scalars are always valid
                                // chars; same defensive-typed-error stance as
                                // the surrogate-pair branch above.
                                let c = char::from_u32(code).ok_or_else(|| {
                                    format!("\\u{code:04x} is not a Unicode scalar")
                                })?;
                                out.push(c);
                                self.pos += 4;
                            }
                        }
                        _ => return self.err(format_args!("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go; infallible even on hostile input (see `skip_run`).
                    let start = self.pos;
                    self.skip_run();
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape starting at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let hex =
            std::str::from_utf8(hex).map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape at byte {}", self.pos))
    }

    #[inline]
    fn number(&mut self) -> Result<Number, String> {
        let start = self.pos;
        self.pos += self.bytes[start..]
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(self.bytes.len() - start);
        // Every byte consumed above is ASCII, so the slice sits on
        // character boundaries.
        let text = &self.text[start..self.pos];
        // Plain unsigned integer literals keep exact u64 fidelity (counters
        // past 2^53 would silently round through f64). Anything else —
        // signs, fractions, exponents, or beyond-u64 digits — takes the
        // f64 path.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
        }
        let x: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number '{text}' at byte {start}"));
        }
        Ok(Number::Float(x))
    }
}

/// Quadratic string or key handling takes minutes on the inputs the
/// linear-time tests feed it; a linear decoder takes milliseconds, even in
/// a debug build.
#[cfg(test)]
pub(crate) const LINEAR_LIMIT: std::time::Duration = std::time::Duration::from_secs(2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let text = r#"{"cmd":"update_demand","od":"JANET-NL","size":1.5e6,"tags":["a","b"],"deep":{"ok":true,"x":null}}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("update_demand"));
        assert_eq!(v.get("size").unwrap().as_f64(), Some(1.5e6));
        assert_eq!(v.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("deep").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        // Encoding is deterministic and reparses to the same value.
        let encoded = v.encode();
        assert_eq!(parse(&encoded).unwrap(), v);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Json::Str("line\nquote\"back\\slash\ttab\u{1}".into());
        let encoded = v.encode();
        assert_eq!(parse(&encoded).unwrap(), v);
        assert!(encoded.contains("\\u0001"));
    }

    #[test]
    fn unicode_escape_parses() {
        let v = parse(r#""café""#).unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }

    #[test]
    fn numbers_encode_compactly() {
        assert_eq!(Json::Num(42.0).encode(), "42");
        assert_eq!(Json::Num(-0.5).encode(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
    }

    #[test]
    fn surrogate_pairs_decode_and_roundtrip() {
        // U+1F600 (grinning face) escaped as its UTF-16 pair D83D/DE00.
        let v = parse("\"\\uD83D\\uDE00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // The encoder emits raw UTF-8, which reparses to the same value.
        let encoded = v.encode();
        assert_eq!(encoded, "\"\u{1F600}\"");
        assert_eq!(parse(&encoded).unwrap(), v);
        // Pairs embedded mid-string, next to other escapes; U+10000 is the
        // lowest astral codepoint (pair D800/DC00).
        let v = parse("\"x\\uD83D\\uDE00\\ty\\uD800\\uDC00\"").unwrap();
        assert_eq!(v.as_str(), Some("x\u{1F600}\ty\u{10000}"));
        assert_eq!(parse(&v.encode()).unwrap(), v);
        // Raw astral characters in the input also pass through.
        assert_eq!(parse("\"\u{1F600}\"").unwrap().as_str(), Some("\u{1F600}"));
        // Lowercase hex digits work too.
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn lone_surrogates_rejected_with_clear_error() {
        let high = parse(r#""\uD83D""#).unwrap_err();
        assert!(high.contains("lone high surrogate \\ud83d"), "{high}");
        let low = parse(r#""\uDE00""#).unwrap_err();
        assert!(low.contains("lone low surrogate \\ude00"), "{low}");
        // High surrogate followed by a \u escape that isn't a low surrogate.
        let pair = parse("\"\\uD83D\\u0041\"").unwrap_err();
        assert!(pair.contains("not a low surrogate"), "{pair}");
        // High surrogate followed by plain characters (no second escape).
        let bare = parse(r#""\uD83Dxy""#).unwrap_err();
        assert!(bare.contains("lone high surrogate"), "{bare}");
        // Truncated pair at end of string.
        assert!(parse(r#""\uD83D\u00""#).is_err());
    }

    #[test]
    fn u64_counters_roundtrip_exactly() {
        let big = (1u64 << 53) + 1; // not representable as f64
        let text = format!("{{\"requests\":{big}}}");
        let v = parse(&text).unwrap();
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(big));
        assert_eq!(v.encode(), text, "exact integer survives a round trip");
        assert_eq!(Json::UInt(u64::MAX).encode(), u64::MAX.to_string());
        assert_eq!(
            parse(&u64::MAX.to_string()).unwrap(),
            Json::UInt(u64::MAX),
            "full u64 range parses exactly"
        );
        // Non-integers and negatives still take the f64 path.
        assert_eq!(parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn num_uint_cross_equality() {
        assert_eq!(Json::Num(42.0), Json::UInt(42));
        assert_eq!(Json::UInt(42), Json::Num(42.0));
        assert_ne!(Json::Num(42.5), Json::UInt(42));
        assert_eq!(Json::UInt(42).as_f64(), Some(42.0));
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "{\"a\":1} extra",
            "{\"a\":1,\"a\":2}",
            "1e999",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_capped_without_overflowing_the_stack() {
        let nest = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        // Comfortably deep documents still parse…
        assert!(parse(&nest(100)).is_ok());
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        // …one past the cap errors, and a pathological bomb is an error
        // too, not a stack overflow.
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(parse(&"[".repeat(100_000)).is_err());
        let objs = format!("{}1{}", "{\"k\":".repeat(50_000), "}".repeat(50_000));
        assert!(parse(&objs).is_err());
    }

    #[test]
    fn megabyte_string_parses_in_linear_time() {
        let unit = "plain ascii, é, \u{1F600}, \\\"quoted\\\", \\u00e9\\n";
        let decoded_unit = "plain ascii, é, \u{1F600}, \"quoted\", é\n";
        let reps = (1 << 20) / unit.len();
        let text = format!("\"{}\"", unit.repeat(reps));
        let t0 = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.as_str(), Some(decoded_unit.repeat(reps).as_str()));
        assert!(
            took < LINEAR_LIMIT,
            "a {} byte string took {took:?}",
            text.len()
        );
    }

    #[test]
    fn forty_thousand_key_object_parses_in_linear_time() {
        let keys = 40_000;
        let body: Vec<String> = (0..keys).map(|i| format!("\"key{i}\":{i}")).collect();
        let text = format!("{{{}}}", body.join(","));
        let t0 = std::time::Instant::now();
        let v = parse(&text).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.get("key39999").and_then(Json::as_u64), Some(39_999));
        assert!(took < LINEAR_LIMIT, "a {keys}-key object took {took:?}");
        // Past the scan limit, a duplicate is still caught, early or late.
        let dup = format!("{{{},\"key7\":0}}", body.join(","));
        let err = parse(&dup).unwrap_err();
        assert!(err.contains("duplicate key 'key7'"), "{err}");
        let small_dup = format!("{{{},\"key3\":0}}", body[..KEY_SCAN_LIMIT].join(","));
        assert!(parse(&small_dup)
            .unwrap_err()
            .contains("duplicate key 'key3'"));
    }

    #[test]
    fn reader_borrows_plain_strings_and_reads_numbers_as_the_tree_does() {
        let text = r#" {"plain":"A-B", "escaped":"a\nb", "skip":{"k":[null,true,{}]}, "n":7} "#;
        let mut r = Reader::new(text);
        let mut keys = Vec::new();
        let is_object = r
            .object(|r, key| {
                match &*key {
                    "plain" => assert!(matches!(r.opt_string()?, Some(Cow::Borrowed("A-B")))),
                    "escaped" => {
                        assert!(matches!(r.opt_string()?, Some(Cow::Owned(s)) if s == "a\nb"))
                    }
                    "n" => assert_eq!(r.opt_string()?, None),
                    _ => assert_eq!(r.opt_f64()?, None),
                }
                keys.push(key.into_owned());
                Ok(())
            })
            .unwrap();
        assert!(is_object);
        r.end().unwrap();
        assert_eq!(keys, ["plain", "escaped", "skip", "n"]);

        for literal in [
            "0",
            "3",
            "3.0",
            "3e0",
            "-0",
            "-3",
            "2.5",
            "1e300",
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
            "\"3\"",
            "null",
            "[3]",
            "{}",
        ] {
            let tree = parse(literal).unwrap();
            let mut r = Reader::new(literal);
            assert_eq!(r.opt_u64().unwrap(), tree.as_u64(), "{literal}");
            let mut r = Reader::new(literal);
            let x = r.opt_f64().unwrap();
            assert_eq!(
                x.map(f64::to_bits),
                tree.as_f64().map(f64::to_bits),
                "{literal}"
            );
        }
    }

    #[test]
    fn reader_reports_the_errors_parse_reports() {
        for bad in [
            "[1,}",
            "{\"a\":1,\"a\":2}",
            "[{\"k\":{\"x\":1,\"x\":1}}]",
            "\"\\uD83D\"",
            "1e999",
            &format!(
                "{}0{}",
                "[".repeat(MAX_DEPTH + 1),
                "]".repeat(MAX_DEPTH + 1)
            ),
        ] {
            let expected = parse(bad).unwrap_err();
            assert_eq!(
                Reader::new(bad).opt_string().unwrap_err(),
                expected,
                "{bad}"
            );
            assert_eq!(Reader::new(bad).opt_f64().unwrap_err(), expected, "{bad}");
            let skipped = Reader::new(bad).object(|r, _| r.value().map(drop));
            assert_eq!(skipped.unwrap_err(), expected, "{bad}");
        }
        let mut r = Reader::new("[1] x");
        assert!(r.array(|r, _| r.value().map(drop)).unwrap());
        assert_eq!(r.end().unwrap_err(), parse("[1] x").unwrap_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse(" [ ] ").unwrap().encode(), "[]");
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert!(Json::Null.get("x").is_none());
        assert!(Json::Arr(vec![]).get("x").is_none());
        assert!(parse("{\"a\":1}").unwrap().get("b").is_none());
    }

    #[test]
    fn obj_helper_preserves_order() {
        let v = obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.encode(), "{\"z\":1,\"a\":2}");
    }
}
