//! A small self-contained JSON value type, parser and encoder, and the
//! FNV-1a hash taken over its canonical encodings.
//!
//! The workspace builds fully offline (no `serde`); this leaf crate is
//! what every crate that speaks JSON links — the admission server's
//! wire protocol, the sweep reports, `mpcp_verify`'s diagnostics. It
//! has a recursive-descent parser hardened for network input (depth
//! cap), an encoder whose output the parser round-trips bit-for-bit,
//! and [`Fnv1a`], the one hash behind report hashes and cache keys.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map), so
//! `encode(parse(s)) == encode(v)` is deterministic and suitable for
//! golden tests and canonical hashing.

#![forbid(unsafe_code)]

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]; deeper input is
/// rejected rather than risking a stack overflow on hostile requests.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; integers up to 2^53 are exact, and
    /// integral values encode without a decimal point.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order. Duplicate keys are kept as-is;
    /// [`Value::get`] returns the first.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    // The accessors below and `Fnv1a`'s methods are `#[inline]` because
    // their callers live in other crates and call them per field and per
    // encoded fragment: without the hint they are real calls across the
    // crate boundary (measured: +0.4 µs decode, +0.3 µs hash a request).

    /// First value under `key`, if this is an object that has it.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content, if this is a number.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric content as a non-negative integer, if it is one.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[inline]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line encoding (no extra whitespace), parseable by
    /// [`parse`].
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = self.write(&mut out); // writing to a String cannot fail
        out
    }

    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(true) => out.write_str("true"),
            Value::Bool(false) => out.write_str("false"),
            Value::Num(n) => write_num(*n, out),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write(out)?;
                }
                out.write_char(']')
            }
            Value::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_str(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

/// Encodes one number exactly as [`Value::encode`] does, so streaming
/// encoders (the service's canonical system encoder) hash identically
/// to materialized ones.
pub fn write_num<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null") // JSON has no NaN/Inf; degrade explicitly.
    } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        write_int(n as i64, out)
    } else {
        write!(out, "{n}")
    }
}

/// Decimal integer without going through the float `Display` path.
fn write_int<W: fmt::Write>(n: i64, out: &mut W) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let neg = n < 0;
    // Negate into u64 so i64::MIN does not overflow.
    let mut m = n.unsigned_abs();
    loop {
        pos -= 1;
        buf[pos] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if neg {
        pos -= 1;
        buf[pos] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[pos..]).expect("digits are ASCII"))
}

/// Encodes one string (quotes and escapes included) exactly as
/// [`Value::encode`] does: contiguous clean runs are appended whole,
/// only the escape bytes are handled individually.
pub fn write_str<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        // Everything needing an escape is ASCII, so slicing at `i` is
        // always a char boundary.
        let esc: &str = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        if esc.is_empty() {
            write!(out, "\\u{:04x}", u32::from(b))?;
        } else {
            out.write_str(esc)?;
        }
        start = i + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

/// 64-bit FNV-1a, streamed: feed bytes with [`Fnv1a::write`] or, as a
/// [`fmt::Write`] sink, let an encoder write straight into the hash
/// without materializing the encoding. Splitting the input differently
/// never changes [`Fnv1a::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Absorbs `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    /// A hasher over the empty input.
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// One-shot [`Fnv1a`] over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value; trailing non-whitespace input is an error.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending byte for
/// malformed input, nesting beyond [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        // Typical wire objects carry a handful of fields; reserving
        // them up front skips the 1→2→4 regrowth copies.
        let mut pairs = Vec::with_capacity(4);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::with_capacity(4);
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        // Fast path: scan straight to the closing quote. Strings with
        // no escapes — virtually all of them on this wire — copy out in
        // one shot; the first backslash falls back to the char-by-char
        // loop seeded with the clean prefix.
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is valid UTF-8")
                        .to_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => break,
                Some(&b) if b < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => self.pos += 1,
            }
        }
        let mut out = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("input is valid UTF-8")
            .to_owned();
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
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.checked_sub(0xDC00).unwrap_or(0x10000));
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // remainder is valid UTF-8; find the char boundary).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => {
                            if b < 0x20 {
                                return Err(self.err("unescaped control character"));
                            }
                            1
                        }
                        b if b >> 5 == 0b110 => 2,
                        b if b >> 4 == 0b1110 => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&rest[..len]).expect("input is valid UTF-8"));
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        // Fast path: a plain integer of at most 15 digits (exact in
        // f64) skips the float parser entirely — the wire is almost all
        // small non-negative integers (indices, periods, ticks).
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            let mut n: u64 = 0;
            let int_start = self.pos;
            while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
                if self.pos - int_start == 15 {
                    break; // longer than 15 digits: take the full path
                }
                n = n * 10 + u64::from(b - b'0');
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
                return Ok(Value::Num(n as f64));
            }
            self.pos = start;
        }
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let arr = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn encode_parse_round_trips() {
        let v = Value::obj([
            ("n", Value::Num(7.0)),
            ("f", Value::Num(0.25)),
            ("s", Value::str("a\"b\\c\nd")),
            ("l", Value::Arr(vec![Value::Null, Value::Bool(false)])),
            ("o", Value::obj([("k", Value::str("v"))])),
        ]);
        let text = v.encode();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn escapes_round_trip() {
        let cases = [r#""é""#, r#""😀""#, r#""tab\there""#];
        for c in cases {
            let v = parse(c).unwrap();
            assert_eq!(parse(&v.encode()).unwrap(), v);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1 2",
            r#""unterminated"#,
            "{]",
            "nul",
            r#"{"a":}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn error_carries_offset() {
        let err = parse(r#"{"a": nope}"#).unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(err.to_string().contains("byte 6"));
    }

    #[test]
    fn integral_floats_encode_without_point() {
        assert_eq!(Value::Num(100.0).encode(), "100");
        assert_eq!(Value::Num(-3.0).encode(), "-3");
        assert_eq!(Value::Num(0.5).encode(), "0.5");
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// However an encoder splits its output across `write_str` calls,
    /// the sink ends where the one-shot hash of the whole does.
    #[test]
    fn fnv1a_sink_equals_one_shot_on_split_input() {
        use std::fmt::Write;
        let v = Value::obj([
            ("s", Value::str("a\"b\\c\nd\u{1}é")),
            ("n", Value::Arr(vec![Value::Num(-3.0), Value::Num(0.25)])),
        ]);
        let text = v.encode();
        let mut streamed = Fnv1a::default();
        v.write(&mut streamed).unwrap();
        assert_eq!(streamed.finish(), fnv1a(text.as_bytes()));
        for cut in 0..=text.len() {
            let mut split = Fnv1a::default();
            split.write(&text.as_bytes()[..cut]);
            match text.get(cut..) {
                Some(tail) => split.write_str(tail).unwrap(),
                // Mid-character: only the byte interface can take it.
                None => split.write(&text.as_bytes()[cut..]),
            }
            assert_eq!(split.finish(), streamed.finish(), "cut at {cut}");
        }
    }
}
