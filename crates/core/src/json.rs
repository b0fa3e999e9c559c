//! A minimal JSON document model, writer and parser.
//!
//! Every artifact this workspace emits (`results/*.json`, telemetry
//! samples, flight-recorder dumps) is JSON, and this module is the
//! workspace's one serializer. Instead of each experiment
//! hand-assembling strings with `format!`, it gives them one tree type
//! ([`Json`]) and one writer, so escaping, float formatting and nesting
//! are correct in a single place.
//!
//! The model started write-only; the flight-recorder work added a
//! reader, because `iba trace` loads dumps back for offline queries.
//! [`Json::parse`] is a strict recursive-descent parser over the same
//! tree type, and the `as_*`/[`Json::get`] accessors walk a parsed
//! document without pattern-matching boilerplate at every call site.
//! Object members keep their insertion order — outputs are
//! deterministic and diffable, and a parse → render round trip is
//! structure-preserving.

use std::fmt;

/// A JSON value.
///
/// Numbers are split by source type so integers render exactly
/// (`u64`/`i64` never round-trip through `f64`). Non-finite floats have
/// no JSON representation and render as `null`, matching what the
/// hand-rolled writers did for NaN latencies.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float (`NaN`/`±inf` render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, ready for [`Json::push`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// An object built from `(key, value)` pairs.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array built from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Append a member to an object (panics on non-objects — a misuse of
    /// the builder, not a data condition).
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(m) => m.push((key.into(), value.into())),
            other => panic!("Json::push on non-object {other:?}"),
        }
        self
    }

    /// Render compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render with 2-space indentation and a trailing newline — the
    /// layout of the committed `results/*.json` artifacts.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let mut buf = itoa_buf();
                out.push_str(write_display(&mut buf, i));
            }
            Json::UInt(u) => {
                let mut buf = itoa_buf();
                out.push_str(write_display(&mut buf, u));
            }
            Json::Num(f) => write_f64(out, *f),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1);
            }),
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                })
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

/// Why [`Json::parse`] rejected a document, with the byte offset of the
/// first offending character.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub(crate) offset: usize,
    /// Human-readable description of the failure.
    pub(crate) msg: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Parse a complete JSON document.
    ///
    /// Strict: exactly one value, no trailing garbage, no comments, no
    /// trailing commas. Integral numbers without fraction/exponent come
    /// back as [`Json::UInt`]/[`Json::Int`] (matching how the writer
    /// emits them) so counters survive a round trip exactly; everything
    /// else becomes [`Json::Num`].
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }

    /// Look up an object member by key (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in insertion order, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            msg: msg.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require the paired
                                // \uXXXX low surrogate.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        c => return Err(self.err(format!("invalid escape '\\{}'", c as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one whole UTF-8 scalar; the input is a
                    // &str, so slicing at char boundaries is safe.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = s.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match d {
                b'0'..=b'9' => (d - b'0') as u32,
                b'a'..=b'f' => (d - b'a' + 10) as u32,
                b'A'..=b'F' => (d - b'A' + 10) as u32,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits > 1 && self.bytes[start + usize::from(negative)] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if integral {
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::Int(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            // Integer literal wider than 64 bits: fall back to f64.
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn digits(&mut self) -> Result<usize, JsonParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digit"));
        }
        Ok(self.pos - start)
    }
}

fn itoa_buf() -> String {
    String::with_capacity(20)
}

fn write_display<T: fmt::Display>(buf: &mut String, v: T) -> &str {
    use fmt::Write;
    buf.clear();
    write!(buf, "{v}").expect("writing to a String cannot fail");
    buf
}

/// Floats: `Display` prints the shortest digits that round-trip, which
/// is valid JSON (`1` is a legal number); non-finite values become
/// `null`.
fn write_f64(out: &mut String, f: f64) {
    use fmt::Write;
    if f.is_finite() {
        write!(out, "{f}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(v as i64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::arr(v)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::arr(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string_compact(), "null");
        assert_eq!(Json::from(true).to_string_compact(), "true");
        assert_eq!(Json::from(-3i64).to_string_compact(), "-3");
        assert_eq!(
            Json::from(u64::MAX).to_string_compact(),
            "18446744073709551615"
        );
        assert_eq!(Json::from(0.25).to_string_compact(), "0.25");
        assert_eq!(Json::from("hi").to_string_compact(), "\"hi\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::from(f64::INFINITY).to_string_compact(), "null");
        assert_eq!(Json::from(f64::NEG_INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn none_becomes_null() {
        assert_eq!(Json::from(None::<u64>).to_string_compact(), "null");
        assert_eq!(Json::from(Some(7u64)).to_string_compact(), "7");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(s.to_string_compact(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let mut o = Json::object();
        o.push("z", 1u64).push("a", 2u64);
        assert_eq!(o.to_string_compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn nested_compact_and_pretty() {
        let doc = Json::obj([("xs", Json::arr([1u64, 2])), ("empty", Json::Arr(vec![]))]);
        assert_eq!(doc.to_string_compact(), r#"{"xs":[1,2],"empty":[]}"#);
        let pretty = doc.to_string_pretty();
        assert!(pretty.contains("  \"xs\": [\n    1,\n    2\n  ]"));
        assert!(pretty.ends_with("}\n"));
    }

    #[test]
    fn floats_round_trip_shortest() {
        // Display prints shortest round-trip digits; whole floats print
        // without a fraction, which is still a valid JSON number.
        assert_eq!(Json::from(1.0f64).to_string_compact(), "1");
        assert_eq!(Json::from(0.1f64).to_string_compact(), "0.1");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("0.5").unwrap(), Json::Num(0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parse_nested_document() {
        let doc = Json::parse(r#"{"xs":[1,2,{"k":null}],"s":"a\nb","f":-0.25}"#).unwrap();
        assert_eq!(doc.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("xs").unwrap().as_arr().unwrap()[0].as_u64(),
            Some(1)
        );
        assert!(doc.get("xs").unwrap().as_arr().unwrap()[2]
            .get("k")
            .unwrap()
            .is_null());
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\nb"));
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(-0.25));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn parse_string_escapes() {
        let s = Json::parse(r#""a\"b\\c\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(s.as_str(), Some("a\"b\\cA\u{e9}\u{1f600}"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "[1,]",
            "{\"a\":}",
            "{a:1}",
            "1 2",
            "01",
            "\"\\x\"",
            "\"",
            "[1",
            "- 1",
            "\"\\ud800\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let doc = Json::obj([
            ("u", Json::from(u64::MAX)),
            ("i", Json::from(-5i64)),
            ("f", Json::from(0.125)),
            ("s", Json::from("line\nbreak \"q\"")),
            ("xs", Json::arr([Json::Null, Json::Bool(true)])),
            ("o", Json::obj([("nested", 1u64)])),
        ]);
        for rendered in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn integral_typing_survives_round_trip() {
        // u64 counters must not silently become floats on re-read.
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        // Wider than 64 bits: degrade to f64 rather than error.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
    }

    #[test]
    fn accessor_coercions() {
        assert_eq!(Json::Int(3).as_u64(), Some(3));
        assert_eq!(Json::Int(-3).as_u64(), None);
        assert_eq!(Json::UInt(2).as_f64(), Some(2.0));
        assert_eq!(Json::Str("2".into()).as_f64(), None);
        assert_eq!(Json::obj([("a", 1u64)]).members().map(<[_]>::len), Some(1));
    }
}
