//! A small self-contained JSON value type, parser and encoder, and the
//! workspace's two hashes.
//!
//! The workspace builds fully offline (no `serde`); this leaf crate is
//! what every crate that speaks JSON links — the admission server's
//! wire protocol, the sweep reports, `mpcp_verify`'s diagnostics. It
//! has one parser, hardened for network input (depth cap), that writes
//! a flat tape: [`Doc::parse`] lays a document out as one `Vec` of
//! entries whose strings borrow from the input, and its [`Node`] view
//! reads it without copying. [`parse`] is that plus
//! [`Node::to_value`], for callers that want an owned [`Value`] tree.
//! [`JsonRef`] is what `&Value` and [`Node`] share, so a decoder has one
//! body for both. Beside them: an encoder whose output the parser
//! round-trips bit-for-bit, [`fnv1a`], the one hash behind report
//! hashes and anything else pinned, and [`hash_fields`], the in-memory
//! hash behind cache keys, whose words [`field_words`] packs and
//! [`fields_match`] compares, so a cache entry confirms its key without
//! keeping the value.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map), so
//! `encode(parse(s)) == encode(v)` is deterministic and suitable for
//! golden tests and canonical hashing.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};

/// Maximum nesting depth accepted by [`Doc::parse`]; deeper input is
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

    // The accessors below are `#[inline]` because their callers live in
    // other crates and call them per field: without the hint they are
    // real calls across the crate boundary (measured: +0.4 µs decode).

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
        self.as_f64().and_then(exact_u64)
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

/// `n` as a non-negative integer, if it is one that `f64` holds exactly.
#[inline]
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 9.007_199_254_740_992e15).then_some(n as u64)
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

/// 64-bit FNV-1a over a byte string: the one hash behind report
/// hashes and anything else pinned.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A 64-bit fold of the words [`field_words`] packs, for in-memory keys: it
/// follows std's `Hash` impls, which a toolchain may change, so nothing
/// persisted or pinned may use it (that is [`fnv1a`]).
pub fn hash_fields<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut lanes = LANES;
    value.hash(&mut Words(|n| lanes = mix(lanes, n)));
    finish(lanes)
}

/// `value`'s fields as derived [`Hash`] writes them, each word packed as
/// canonical LEB128: most are small integers or short names. A counting
/// pass sizes the bytes, so they are allocated once.
pub fn field_words<T: Hash + ?Sized>(value: &T) -> Box<[u8]> {
    let mut len = 0;
    value.hash(&mut Words(|n| leb128(n, |_| len += 1)));
    let mut bytes = Vec::with_capacity(len);
    value.hash(&mut Words(|n| leb128(n, |b| bytes.push(b))));
    bytes.into_boxed_slice()
}

/// Whether `value`'s [`field_words`] are `bytes`, packed as compared:
/// `==` for one type with derived `Hash` and `PartialEq`, since derived
/// `Hash` is prefix-free, a byte string's length leads its words, and
/// canonical LEB128 gives each word one prefix-free encoding.
pub fn fields_match<T: Hash + ?Sized>(value: &T, bytes: &[u8]) -> bool {
    let (mut rest, mut same) = (bytes.iter(), true);
    value.hash(&mut Words(|n| {
        leb128(n, |b| same &= rest.next() == Some(&b));
    }));
    same && rest.next().is_none()
}

/// `n` as canonical LEB128: seven bits a byte, low bits first, the high
/// bit set on every byte but the last.
fn leb128(mut n: u64, mut byte: impl FnMut(u8)) {
    while n >= 0x80 {
        byte(n as u8 | 0x80);
        n >>= 7;
    }
    byte(n as u8);
}

/// The one word splitter: an integer is a word; a byte string is its
/// length, then its bytes eight to a little-endian word, the last one
/// zero-padded (the length makes the padding unambiguous).
struct Words<F>(F);

impl<F: FnMut(u64)> Hasher for Words<F> {
    fn write(&mut self, bytes: &[u8]) {
        (self.0)(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            (self.0)(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        (self.0)(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        (self.0)(n);
    }

    fn write_usize(&mut self, n: usize) {
        (self.0)(n as u64);
    }

    fn finish(&self) -> u64 {
        unreachable!("the closure keeps the state")
    }
}

/// [`hash_fields`]' two lanes before the first word, and its step per
/// word: multiply-rotate, the lanes taking turns (so one word's multiply
/// need not wait for the last).
const LANES: (u64, u64) = (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);

#[inline]
fn mix((a, b): (u64, u64), n: u64) -> (u64, u64) {
    let next = (a.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    (b, next)
}

/// Murmur3's 64-bit finalizer over both lanes.
fn finish((a, b): (u64, u64)) -> u64 {
    let mut h = a ^ b.rotate_left(32);
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
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

/// Parses one JSON value into a [`Value`] tree: [`Doc::parse`], then
/// [`Node::to_value`], so there is one grammar and one set of errors.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending byte for
/// malformed input, nesting beyond [`MAX_DEPTH`], or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    Doc::parse(input).map(|doc| doc.root().to_value())
}

/// Read access to a JSON value borrowed for `'v`: a `&`[`Value`] or a
/// tape [`Node`]. A decoder written against it has one body for both.
pub trait JsonRef<'v>: Copy {
    /// First value under `key`, if this is an object that has it.
    fn get(self, key: &str) -> Option<Self>;
    /// The string content, if this is a string.
    fn as_str(self) -> Option<&'v str>;
    /// The numeric content as a non-negative integer, if it is one.
    fn as_u64(self) -> Option<u64>;
    /// The elements, if this is an array, in order.
    fn items(self) -> Option<impl ExactSizeIterator<Item = Self>>;
}

impl<'v> JsonRef<'v> for &'v Value {
    #[inline]
    fn get(self, key: &str) -> Option<Self> {
        Value::get(self, key)
    }

    #[inline]
    fn as_str(self) -> Option<&'v str> {
        Value::as_str(self)
    }

    #[inline]
    fn as_u64(self) -> Option<u64> {
        Value::as_u64(self)
    }

    #[inline]
    fn items(self) -> Option<impl ExactSizeIterator<Item = Self>> {
        self.as_arr().map(<[Value]>::iter)
    }
}

/// A parsed document: one flat tape of entries in document order. A
/// container's entry precedes its subtree (key, value, … for an object)
/// and records its length and the index past it, so a reader steps over
/// a value at once. Strings without escapes borrow from the input.
#[derive(Debug)]
pub struct Doc<'a> {
    tape: Vec<Entry<'a>>,
    /// The strings with escapes, decoded, back to back.
    decoded: String,
}

#[derive(Debug, Clone, Copy)]
enum Entry<'a> {
    Null,
    Bool(bool),
    Num(f64),
    /// A string without escapes, as it stands in the input.
    Str(&'a str),
    /// A string with escapes: `decoded[start..end]`.
    Esc(usize, usize),
    /// An array: element count, index past the subtree.
    Arr(usize, usize),
    /// An object: pair count, index past the subtree.
    Obj(usize, usize),
}

impl<'a> Doc<'a> {
    /// Parses one JSON value onto a tape; trailing non-whitespace input
    /// is an error.
    ///
    /// # Errors
    ///
    /// As [`parse`].
    pub fn parse(input: &'a str) -> Result<Doc<'a>, ParseError> {
        // A request line spends at least two bytes, and usually five, on
        // each entry: one allocation, at most one regrowth.
        let (tape, decoded) = (Vec::with_capacity(input.len() / 4 + 2), String::new());
        let doc = Doc { tape, decoded };
        let mut p = Parser { input, pos: 0, doc };
        p.skip_ws();
        p.value(0)?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(p.doc)
    }

    /// The document's value.
    pub fn root(&self) -> Node<'_> {
        Node { doc: self, at: 0 }
    }
}

/// A value on a [`Doc`]'s tape, read through [`JsonRef`]: `Copy`, and
/// reading a field neither copies a string nor allocates.
#[derive(Debug, Clone, Copy)]
pub struct Node<'d> {
    doc: &'d Doc<'d>,
    at: usize,
}

impl<'d> Node<'d> {
    fn entry(self) -> Entry<'d> {
        self.doc.tape[self.at]
    }

    /// An array's elements or an object's keys and values, in order.
    fn children(self) -> impl ExactSizeIterator<Item = Node<'d>> {
        let count = match self.entry() {
            Entry::Arr(len, _) => len,
            Entry::Obj(len, _) => 2 * len,
            _ => 0,
        };
        let (doc, mut at) = (self.doc, self.at + 1);
        (0..count).map(move |_| {
            let node = Node { doc, at };
            at = match node.entry() {
                Entry::Arr(_, end) | Entry::Obj(_, end) => end,
                _ => at + 1,
            };
            node
        })
    }

    fn pairs(self) -> impl Iterator<Item = (&'d str, Node<'d>)> {
        let mut children = self.children();
        std::iter::from_fn(move || Some((children.next()?.as_str()?, children.next()?)))
    }

    /// The numeric content, if this is a number.
    #[inline]
    pub fn as_f64(self) -> Option<f64> {
        match self.entry() {
            Entry::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The boolean content, if this is a boolean.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self.entry() {
            Entry::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value as a [`Value`] tree.
    pub fn to_value(self) -> Value {
        match self.entry() {
            Entry::Null => Value::Null,
            Entry::Bool(b) => Value::Bool(b),
            Entry::Num(n) => Value::Num(n),
            Entry::Str(_) | Entry::Esc(..) => Value::str(self.as_str().unwrap_or_default()),
            Entry::Arr(..) => Value::Arr(self.children().map(Node::to_value).collect()),
            Entry::Obj(len, _) => {
                let mut pairs = Vec::with_capacity(len);
                pairs.extend(self.pairs().map(|(k, v)| (k.to_owned(), v.to_value())));
                Value::Obj(pairs)
            }
        }
    }
}

impl<'d> JsonRef<'d> for Node<'d> {
    /// Every decoder's hot path: one pass over the keys, on the tape.
    #[inline]
    fn get(self, key: &str) -> Option<Self> {
        let (tape, doc) = (&self.doc.tape[..], self.doc);
        let Entry::Obj(len, _) = tape[self.at] else {
            return None;
        };
        let mut at = self.at + 1;
        for _ in 0..len {
            let hit = match tape[at] {
                Entry::Str(k) => k == key,
                Entry::Esc(start, end) => &doc.decoded[start..end] == key,
                _ => false,
            };
            at += 1;
            if hit {
                return Some(Node { doc, at });
            }
            at = match tape[at] {
                Entry::Arr(_, end) | Entry::Obj(_, end) => end,
                _ => at + 1,
            };
        }
        None
    }

    #[inline]
    fn as_str(self) -> Option<&'d str> {
        match self.entry() {
            Entry::Str(s) => Some(s),
            Entry::Esc(start, end) => Some(&self.doc.decoded[start..end]),
            _ => None,
        }
    }

    #[inline]
    fn as_u64(self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    #[inline]
    fn items(self) -> Option<impl ExactSizeIterator<Item = Self>> {
        matches!(self.entry(), Entry::Arr(..)).then(|| self.children())
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    doc: Doc<'a>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// Steps over one byte if `pred` holds for it.
    fn eat(&mut self, pred: fn(u8) -> bool) -> bool {
        let hit = self.peek().is_some_and(pred);
        self.pos += usize::from(hit);
        hit
    }

    /// Steps over bytes while `pred` holds.
    fn skip(&mut self, pred: fn(u8) -> bool) {
        while self.eat(pred) {}
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), ParseError> {
        let digit = |b: u8| b.is_ascii_digit();
        (self.eat(digit).then(|| self.skip(digit))).ok_or_else(|| self.err("invalid number"))
    }

    fn skip_ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected {:?}", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn literal(&mut self, lit: &str, v: Entry<'a>) -> Result<Entry<'a>, ParseError> {
        if !self.input[self.pos..].starts_with(lit) {
            return Err(self.err(&format!("expected {lit:?}")));
        }
        self.pos += lit.len();
        Ok(v)
    }

    /// Parses one value onto the tape.
    fn value(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let entry = match self.peek() {
            Some(b'{') => return self.object(depth),
            Some(b'[') => return self.array(depth),
            Some(b'"') => self.string()?,
            Some(b't') => self.literal("true", Entry::Bool(true))?,
            Some(b'f') => self.literal("false", Entry::Bool(false))?,
            Some(b'n') => self.literal("null", Entry::Null)?,
            Some(b'-' | b'0'..=b'9') => Entry::Num(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.doc.tape.push(entry);
        Ok(())
    }

    /// A container: its entry, then its elements up to `close`, each
    /// parsed by `element`; `entry` makes the entry of the count and end.
    fn seq(
        &mut self,
        close: u8,
        entry: fn(usize, usize) -> Entry<'a>,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        let (at, mut len) = (self.doc.tape.len(), 0);
        self.doc.tape.push(Entry::Null);
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                element(self)?;
                len += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ if close == b'}' => return Err(self.err("expected ',' or '}' in object")),
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }
        self.pos += 1;
        self.doc.tape[at] = entry(len, self.doc.tape.len());
        Ok(())
    }

    fn object(&mut self, depth: usize) -> Result<(), ParseError> {
        self.seq(b'}', Entry::Obj, |p| {
            let key = p.string()?;
            p.doc.tape.push(key);
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            p.value(depth + 1)
        })
    }

    fn array(&mut self, depth: usize) -> Result<(), ParseError> {
        self.seq(b']', Entry::Arr, |p| p.value(depth + 1))
    }

    /// Borrows the string, or decodes it once a backslash turns up.
    fn string(&mut self) -> Result<Entry<'a>, ParseError> {
        self.expect(b'"')?;
        let (input, mut run, mut escaped) = (self.input, self.pos, None);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let clean = &input[run..self.pos];
                    self.pos += 1;
                    let Some(start) = escaped else {
                        return Ok(Entry::Str(clean));
                    };
                    self.doc.decoded.push_str(clean);
                    return Ok(Entry::Esc(start, self.doc.decoded.len()));
                }
                Some(b'\\') => {
                    escaped.get_or_insert(self.doc.decoded.len());
                    self.doc.decoded.push_str(&input[run..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    self.doc.decoded.push(c);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err("unescaped control character")),
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape stands for; `pos` is past the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let mut cp = self.hex4()?;
                // A high surrogate needs an escaped low one, and only
                // 0xDC00..=0xDFFF is low.
                if (0xD800..0xDC00).contains(&cp) && self.input[self.pos..].starts_with("\\u") {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                return char::from_u32(cp).ok_or_else(|| self.err("invalid unicode escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Four hex digits, and nothing else: no sign, no prefix.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let Some(digits) = self.input.as_bytes().get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated unicode escape"));
        };
        let cp = digits
            .iter()
            .try_fold(0, |cp, &b| Some(cp * 16 + char::from(b).to_digit(16)?))
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// RFC 8259: `[ "-" ] int [ frac ] [ exp ]`, where `int = "0" /
    /// [1-9] *DIGIT`, `frac = "." 1*DIGIT` and `exp = [eE] [+-] 1*DIGIT`.
    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let digit = |b: u8| b.is_ascii_digit();
        self.eat(|b| b == b'-');
        // `int`: a zero with no digit after it, or a nonzero digit first.
        let zero = self.eat(|b| b == b'0');
        if zero == self.peek().is_some_and(digit) {
            return Err(self.err("invalid number"));
        }
        self.skip(digit);
        let integer = self.pos;
        if self.eat(|b| b == b'.') {
            self.digits()?;
        }
        if self.eat(|b| matches!(b, b'e' | b'E')) {
            self.eat(|b| matches!(b, b'+' | b'-'));
            self.digits()?;
        }
        let text = &self.input[start..self.pos];
        // A plain integer of at most 15 digits is exact in f64 and skips
        // the float parser: the wire is almost all indices and ticks.
        if self.pos == integer && (1..=15).contains(&text.len()) && !text.starts_with('-') {
            return Ok(text.bytes().fold(0, |n, b| n * 10 + u64::from(b - b'0')) as f64);
        }
        text.parse().map_err(|_| self.err("invalid number"))
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

    /// `u32::from_str_radix` takes a leading `+`; four hex digits do not.
    #[test]
    fn a_unicode_escape_is_four_hex_digits() {
        let err = parse(r#""\u+041""#).unwrap_err();
        assert_eq!(err.to_string(), "invalid unicode escape at byte 3");
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::str("A"));
    }

    /// Only 0xDC00..=0xDFFF is a low surrogate: anything else after a
    /// high surrogate is an error, not a character.
    #[test]
    fn a_high_surrogate_pairs_only_with_a_low_one() {
        for bad in [
            r#""\uD800\uE000""#,
            r#""\uD800\u0041""#,
            r#""\uD800\uD800""#,
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(
                err.to_string(),
                "invalid unicode escape at byte 13",
                "{bad}"
            );
        }
        assert_eq!(parse(r#""\uD800\uDC00""#).unwrap(), Value::str("\u{10000}"));
        assert_eq!(
            parse(r#""\uDBFF\uDFFF""#).unwrap(),
            Value::str("\u{10FFFF}")
        );
    }

    /// The tape reads as the tree does: first of duplicate keys, exact
    /// array lengths, clean strings borrowed from the input and escaped
    /// ones decoded.
    #[test]
    fn the_tape_reads_as_the_tree() {
        let text = r#"{"a":[1,{"b":null},[2,3]],"a":0,"s":"x\ty","t":"plain","n":-2.5}"#;
        let doc = Doc::parse(text).unwrap();
        let root = doc.root();
        assert_eq!(root.to_value(), parse(text).unwrap());
        let a = root.get("a").and_then(Node::items).unwrap();
        assert_eq!(a.len(), 3);
        let a: Vec<Node<'_>> = a.collect();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].get("b").map(Node::to_value), Some(Value::Null));
        assert_eq!(a[2].items().map(|i| i.len()), Some(2));
        assert_eq!(root.get("s").and_then(Node::as_str), Some("x\ty"));
        let plain = root.get("t").and_then(Node::as_str).unwrap();
        assert!(text.as_bytes().as_ptr_range().contains(&plain.as_ptr()));
        assert_eq!(root.get("n").and_then(Node::as_f64), Some(-2.5));
        assert_eq!(root.get("n").and_then(Node::as_u64), None);
        assert_eq!(root.get("missing").map(Node::to_value), None);
        assert_eq!(a[0].get("a").map(Node::to_value), None);
    }

    /// Numbers as RFC 8259 spells them, on the tape and in the tree.
    #[test]
    fn numbers_follow_the_grammar() {
        let bad = [
            ("0123", 1),
            ("00", 1),
            ("-01", 2),
            ("01.5", 1),
            ("1.", 2),
            ("1.e5", 2),
            ("-.5", 1),
            ("-", 1),
            ("1e", 2),
            ("1e+", 3),
            ("[1.]", 3),
        ];
        for (text, offset) in bad {
            let err = ParseError {
                message: "invalid number".into(),
                offset,
            };
            assert_eq!(Doc::parse(text).unwrap_err(), err, "{text}");
            assert_eq!(parse(text).unwrap_err(), err, "{text}");
        }
        assert_eq!(parse(".5").unwrap_err().message, "unexpected character");
        let good = [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5", -0.5),
            ("1.25e2", 125.0),
            ("1E+2", 100.0),
            ("0e-1", 0.0),
            ("-10.0e0", -10.0),
        ];
        for (text, n) in good {
            assert_eq!(Doc::parse(text).unwrap().root().as_f64(), Some(n), "{text}");
            assert_eq!(parse(text).unwrap(), Value::Num(n), "{text}");
        }
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

    /// Equal values hash equally; a string's length is a word of its
    /// own, so neither zero padding nor a moved boundary between two
    /// strings is lost.
    #[test]
    fn hash_fields_sees_every_byte_and_boundary() {
        assert_eq!(hash_fields(&("ab", 1u64)), hash_fields(&("ab", 1u64)));
        assert_ne!(hash_fields("ab"), hash_fields("ab\0"));
        assert_ne!(hash_fields(&("a", "bc")), hash_fields(&("ab", "c")));
        assert_ne!(hash_fields(&[1u64, 2]), hash_fields(&[2u64, 1]));
    }

    #[derive(Debug, PartialEq, Hash)]
    enum Shape {
        Dot,
        Line(u32),
        Named(String, Vec<Option<Shape>>),
    }

    /// Strings at the padding edges (0, 7, 8, 9 and 16 bytes, and a
    /// trailing zero byte), nested `Vec`s, `Option`s and enums.
    fn shapes() -> Vec<Shape> {
        let strings = [
            "",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "abcdefghijklmnop",
            "abcdefg\0",
        ];
        let mut shapes = vec![Shape::Dot, Shape::Line(0), Shape::Line(8)];
        for s in strings {
            shapes.push(Shape::Named(s.into(), vec![]));
            shapes.push(Shape::Named(s.into(), vec![None]));
            shapes.push(Shape::Named(s.into(), vec![Some(Shape::Dot), None]));
            let inner = Shape::Named(s.into(), vec![Some(Shape::Line(7))]);
            shapes.push(Shape::Named("".into(), vec![Some(inner)]));
        }
        shapes
    }

    /// The `u64` words `value` hashes as, unpacked.
    fn words<T: Hash + ?Sized>(value: &T) -> Vec<u64> {
        let mut words = Vec::new();
        value.hash(&mut Words(|n| words.push(n)));
        words
    }

    /// Comparing packed words is comparing values, and the words are
    /// what the hash folds, so no key moved when the hash began to share
    /// them or the words were packed.
    #[test]
    fn field_words_are_the_value() {
        let shapes = shapes();
        for v in &shapes {
            let packed = field_words(v);
            assert_eq!(
                hash_fields(v),
                finish(words(v).iter().fold(LANES, |l, &n| mix(l, n)))
            );
            for w in &shapes {
                assert_eq!(fields_match(w, &packed), v == w, "{v:?} / {w:?}");
            }
            assert!(!fields_match(v, &packed[..packed.len() - 1]), "{v:?}");
            for extra in [0, 1, 0x80] {
                let longer = [&packed[..], &[extra]].concat();
                assert!(!fields_match(v, &longer), "{v:?} + {extra}");
            }
        }
        // LEB128's edges: one byte up to 127, two up to 16 383, ten for
        // `u64::MAX`; a packing cut short or run on is refused.
        let edges = [0, 1, 127, 128, 16_383, 16_384, 1 << 32, u64::MAX];
        for (&v, len) in edges.iter().zip([1, 1, 1, 2, 2, 3, 5, 10]) {
            let packed = field_words(&v);
            assert_eq!(packed.len(), len, "{v}");
            assert_eq!(hash_fields(&v), finish(mix(LANES, v)), "{v}");
            for &w in &edges {
                assert_eq!(fields_match(&w, &packed), v == w, "{v} / {w}");
                assert_eq!(fields_match(&vec![w, v], &field_words(&vec![v, w])), v == w);
            }
            assert!(!fields_match(&v, &packed[..len - 1]), "{v}");
            assert!(!fields_match(&v, &[&packed[..], &[0]].concat()), "{v}");
        }
        assert_eq!(&*field_words(&300u64), &[0xac, 0x02]);
        let nested = |parts: &[&[&str]]| -> Vec<Vec<String>> {
            parts
                .iter()
                .map(|p| p.iter().map(|&s| s.to_owned()).collect())
                .collect()
        };
        let splits = [
            nested(&[&["ab"], &["c"]]),
            nested(&[&["a", "bc"]]),
            nested(&[&["abc"]]),
            nested(&[&[], &["abc"]]),
            nested(&[]),
        ];
        for v in &splits {
            for w in &splits {
                assert_eq!(fields_match(w, &field_words(v)), v == w, "{v:?} / {w:?}");
            }
        }
    }
}
