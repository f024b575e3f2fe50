//! A JSON value type with parser and serializer.
//!
//! `serde_json` is not on the allowed dependency list, so the portal's API
//! endpoints use this hand-rolled codec. Covers RFC 8259 minus `\u` escapes
//! for non-BMP characters (the portal never emits them).
//!
//! Both directions are linear in the text: the parser copies each run of
//! a string up to the next `"` or `\` with one `push_str`, and
//! [`Json::write_into`] appends escaped text straight into the caller's
//! buffer. Request bodies come from unauthenticated clients, so a parse
//! that rescans the rest of the input per character would let one 8 MiB
//! body hold a worker for minutes.
//!
//! [`write_str`] and [`write_num`] are the encoder's two leaf formats.
//! A route that emits many rows of one fixed shape calls them directly
//! and writes each row into the body without building a tree; it must
//! write object keys in the sorted order [`Json::Obj`] uses, so its bytes
//! equal [`Json::write_into`]'s.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// null
    Null,
    /// true/false
    Bool(bool),
    /// Numbers are kept as f64 (adequate for the portal's counters).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand number.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parse JSON text, nested at most `MAX_DEPTH` arrays/objects deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = JsonParser {
            text,
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(JsonError {
                at: p.i,
                message: "trailing characters".into(),
            });
        }
        Ok(v)
    }
}

/// Serialize a histogram-quantile estimate: `None` (empty histogram) maps
/// to `null`, a rank landing in the overflow bucket (`f64::INFINITY`, see
/// `Histogram::quantile` in the obs crate) maps to the string `"+Inf"` —
/// bare `inf` is not valid JSON — and finite values stay numbers.
pub fn quantile_json(q: Option<f64>) -> Json {
    match q {
        None => Json::Null,
        Some(v) if v.is_infinite() => Json::str("+Inf"),
        Some(v) => Json::num(v),
    }
}

/// JSON parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and request bodies come from unauthenticated
/// clients: without a cap, a body of `[`s overflows the worker's stack and
/// aborts the process.
pub(crate) const MAX_DEPTH: usize = 64;

struct JsonParser<'a> {
    text: &'a str,
    /// `text` as bytes; `i` always sits on a char boundary of it.
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.i,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object, one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(self.b.len() - self.i);
            s.push_str(&self.text[self.i..self.i + run]);
            self.i += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(_) => {
                    // A backslash: decode one escape.
                    self.i += 1;
                    match self.peek() {
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.i + 4 >= self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("surrogate escapes unsupported"))?,
                            );
                            self.i += 4;
                        }
                        other => return Err(self.err(format!("bad escape {other:?}"))),
                    }
                    self.i += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError {
            at: start,
            message: format!("bad number `{text}`"),
        })
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Append `s` as a quoted JSON string, as [`Json::write_into`] writes a
/// [`Json::Str`]. Plain runs go in with one `push_str`; every byte that
/// needs an escape is ASCII, so each run ends on a char boundary.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut plain = 0;
    for (i, c) in s.bytes().enumerate() {
        if c >= 0x20 && c != b'"' && c != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match c {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(c >> 4)]));
                out.push(char::from(HEX[usize::from(c & 0xf)]));
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Append `n` as [`Json::write_into`] writes a [`Json::Num`]: integral
/// values below 9e15 without a fraction.
pub fn write_num(n: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

impl Json {
    /// Append this value's JSON text to `out`: object keys in sorted
    /// order, integral numbers below 9e15 without a fraction, control
    /// characters other than `\n`, `\t` and `\r` as lowercase `\u00xx`.
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hi\"",
            "[1,2,3]",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "roundtrip {text}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Json::str("line1\nline2\t\"quoted\" \\slash");
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse(r#""Ab""#).unwrap().as_str(), Some("Ab"));
        assert!(Json::parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(Json::parse("1e3").unwrap().as_num(), Some(1000.0));
        assert_eq!(Json::parse("-2.5E-1").unwrap().as_num(), Some(-0.25));
    }

    #[test]
    fn integer_rendering_avoids_dot_zero() {
        assert_eq!(Json::num(5).to_string(), "5");
        assert_eq!(Json::num(5.5).to_string(), "5.5");
    }

    #[test]
    fn malformed_inputs_rejected() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            assert!(Json::parse(text).is_err(), "{text} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest =
            |open: &str, close: &str, depth: usize| open.repeat(depth) + "0" + &close.repeat(depth);
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deepest = nest(open, close, MAX_DEPTH);
            assert!(Json::parse(&deepest).is_ok(), "depth {MAX_DEPTH} parses");
            let too_deep = nest(open, close, MAX_DEPTH + 1);
            let err = Json::parse(&too_deep).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
        // Far past the cap, an unclosed run fails the same way instead of
        // recursing once per byte.
        assert!(Json::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn object_keys_sorted_deterministically() {
        let v = Json::parse("{\"z\":1,\"a\":2}").unwrap();
        assert_eq!(v.to_string(), "{\"a\":2,\"z\":1}");
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![("ok", Json::Bool(true)), ("n", Json::num(3))]);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Bool(true).as_str(), None);
    }

    /// Bytes recorded from the encoder this one replaced: every escape
    /// class (`\u{7f}` and non-ASCII pass through raw), integral,
    /// fractional and negative numbers on both sides of the 9e15
    /// integer cut-off, nesting, and sorted keys — escaped keys included.
    #[test]
    fn encoder_bytes_are_pinned() {
        let v = Json::obj(vec![
            (
                "z",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            (
                "esc",
                Json::str("q\" b\\ s/ n\n t\t r\r 0\u{0} 8\u{8} c\u{c} 1f\u{1f} 7f\u{7f} é ☃ 𝄞"),
            ),
            (
                "nums",
                Json::Arr(vec![
                    Json::num(0),
                    Json::num(-0.0),
                    Json::num(42),
                    Json::num(-17),
                    Json::num(3.5),
                    Json::num(-0.25),
                    Json::num(1e-7),
                    Json::num(8_999_999_999_999_998.0),
                    Json::num(9e15),
                    Json::num(-9e15),
                    Json::num(1e21),
                ]),
            ),
            (
                "nested",
                Json::obj(vec![
                    ("b", Json::Arr(vec![Json::obj(vec![]), Json::Arr(vec![])])),
                    ("a", Json::obj(vec![("k", Json::str(""))])),
                ]),
            ),
            ("key \"q\"\n", Json::num(1)),
            ("A", Json::num(2)),
            ("", Json::Null),
        ]);
        let pinned = concat!(
            r#"{"":null,"A":2,"esc":"q\" b\\ s/ n\n t\t r\r 0\u0000 8\u0008 c\u000c 1f\u001f 7f"#,
            "\u{7f}",
            r#" é ☃ 𝄞","key \"q\"\n":1,"nested":{"a":{"k":""},"b":[{},[]]},"#,
            r#""nums":[0,0,42,-17,3.5,-0.25,0.0000001,8999999999999998,9000000000000000,"#,
            r#"-9000000000000000,1000000000000000000000],"z":[null,true,false]}"#,
        );
        assert_eq!(v.to_string(), pinned);
        let mut out = String::from("head:");
        v.write_into(&mut out);
        assert_eq!(out, format!("head:{pinned}"), "write_into appends");
        let resp = crate::http::Response::json(crate::http::Status::OK, &v);
        assert_eq!(resp.body, pinned.as_bytes());
        assert_eq!(Json::parse(pinned).unwrap(), v);
    }

    /// A string far longer than any the portal emits parses in one pass;
    /// a parser that rescans the rest of the input per character takes
    /// seconds on 512 KiB.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "é".repeat(1 << 20);
        let text = Json::str(body.clone()).to_string();
        let t0 = std::time::Instant::now();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(body.as_str()));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "{:?}",
            t0.elapsed()
        );
        let err = Json::parse(&text[..text.len() - 1]).unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (text.len() - 1, "unterminated string")
        );
    }

    #[test]
    fn non_ascii_preserved() {
        let v = Json::parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ☃"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
