//! The workspace's one JSON codec: a nested [`Value`] with a deterministic
//! writer and a depth-capped recursive-descent parser, hand-rolled to keep
//! the zero-external-crates discipline (see README.md, "Reproducible
//! builds").
//!
//! Trace events (the JSON-lines schema, DESIGN.md §11) and the wire
//! protocol (`pumpkin_wire` re-exports [`Value`]) both read and write
//! through it, so a trace line and a daemon frame agree on what valid JSON
//! is. Two properties the callers rely on:
//!
//! * **Deterministic writing.** Objects preserve insertion order (they are
//!   `Vec<(String, Value)>`, not maps), numbers are written in a canonical
//!   form, and strings have one escaping — so identical values always
//!   serialize to identical bytes, which is what keeps the golden traces,
//!   the golden wire transcript, and the concurrent-vs-sequential
//!   determinism check byte-exact.
//! * **Hardened parsing.** The daemon feeds the parser untrusted bytes, so
//!   nesting is capped at [`MAX_DEPTH`] (stack safety) and every failure is
//!   a structured [`ParseError`], never a panic.

use std::fmt;

/// Maximum nesting depth accepted by [`Value::parse`], small enough that
/// hostile input cannot overflow the stack. The workspace's other nesting
/// caps reuse it: the lang parser's, and the wire decoder's cap on term
/// depth (a wire frame itself nests a fixed three levels, since terms
/// travel as flat node tables).
pub const MAX_DEPTH: usize = 512;

/// A JSON value. Objects keep insertion order so encoding is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers — the common case (counters, sizes, ids).
    UInt(u64),
    /// Negative integers.
    Int(i64),
    /// Non-integral numbers (only ever produced by parsing; the encoders in
    /// the workspace write integers and strings).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// Why [`Value::parse`] rejected its input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed JSON; the message says what and at which byte offset.
    Syntax(String),
    /// The input ended mid-document.
    Truncated,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(m) => write!(f, "syntax error: {m}"),
            ParseError::Truncated => write!(f, "truncated frame"),
            ParseError::TooDeep => write!(f, "nesting too deep"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serializes into `out` (compact form, no whitespace).
    pub fn write_into(&self, out: &mut String) {
        use fmt::Write;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(x) => {
                debug_assert!(x.is_finite(), "non-finite numbers are not JSON");
                let _ = write!(out, "{x}");
            }
            Value::Str(s) => escape_into(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (surrounding whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(ParseError::Syntax(format!(
                "trailing bytes at offset {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_into(&mut s);
        f.write_str(&s)
    }
}

/// Writes `s` as a JSON string literal, surrounding quotes included.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, ParseError> {
        let b = self.peek().ok_or(ParseError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        let got = self.bump()?;
        if got != b {
            return Err(ParseError::Syntax(format!(
                "expected `{}` at offset {}, found `{}`",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(ParseError::Syntax(format!(
                "bad literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::TooDeep);
        }
        match self.peek().ok_or(ParseError::Truncated)? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b']' => return Ok(Value::Arr(items)),
                        c => {
                            return Err(ParseError::Syntax(format!(
                                "expected `,` or `]` at offset {}, found `{}`",
                                self.pos - 1,
                                c as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.bump()? {
                        b',' => continue,
                        b'}' => return Ok(Value::Obj(fields)),
                        c => {
                            return Err(ParseError::Syntax(format!(
                                "expected `,` or `}}` at offset {}, found `{}`",
                                self.pos - 1,
                                c as char
                            )))
                        }
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(ParseError::Syntax(format!(
                "unexpected byte `{}` at offset {}",
                c as char, self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let b = self.bump()?;
            match b {
                b'"' => {
                    return String::from_utf8(buf)
                        .map_err(|_| ParseError::Syntax("invalid UTF-8 in string".into()))
                }
                b'\\' => match self.bump()? {
                    b'"' => buf.push(b'"'),
                    b'\\' => buf.push(b'\\'),
                    b'/' => buf.push(b'/'),
                    b'b' => buf.push(0x08),
                    b'f' => buf.push(0x0c),
                    b'n' => buf.push(b'\n'),
                    b'r' => buf.push(b'\r'),
                    b't' => buf.push(b'\t'),
                    b'u' => {
                        let hi = self.hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: the low half must follow.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(ParseError::Syntax("bad surrogate pair".into()));
                            }
                            let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(cp)
                                .ok_or_else(|| ParseError::Syntax("bad surrogate pair".into()))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(ParseError::Syntax("lone low surrogate".into()));
                        } else {
                            char::from_u32(hi)
                                .ok_or_else(|| ParseError::Syntax("bad \\u escape".into()))?
                        };
                        let mut enc = [0u8; 4];
                        buf.extend_from_slice(c.encode_utf8(&mut enc).as_bytes());
                    }
                    c => {
                        return Err(ParseError::Syntax(format!(
                            "bad escape `\\{}` at offset {}",
                            c as char,
                            self.pos - 1
                        )))
                    }
                },
                0x00..=0x1f => {
                    return Err(ParseError::Syntax(format!(
                        "unescaped control byte 0x{b:02x} in string"
                    )))
                }
                _ => buf.push(b),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump()?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(ParseError::Syntax("bad hex digit in \\u escape".into())),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError::Syntax("invalid number".into()))?;
        if !float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<u64>().is_ok() {
                    if let Ok(n) = text.parse::<i64>() {
                        return Ok(Value::Int(n));
                    }
                }
            } else if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => Err(ParseError::Syntax(format!("bad number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        Value::parse(src).unwrap().to_string()
    }

    #[test]
    fn parses_and_rewrites_canonically() {
        assert_eq!(
            roundtrip("{\"a\":1,\"b\":[true,null]}"),
            r#"{"a":1,"b":[true,null]}"#
        );
        assert_eq!(roundtrip(" [ 1 , -2 , \"x\" ] "), r#"[1,-2,"x"]"#);
        assert_eq!(roundtrip("{}"), "{}");
        assert_eq!(roundtrip("[]"), "[]");
    }

    #[test]
    fn object_order_is_preserved() {
        assert_eq!(roundtrip("{\"z\":1,\"a\":2}"), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn writer_escapes_specials() {
        let s = |x: &str| Value::str(x).to_string();
        assert_eq!(s("plain"), "\"plain\"");
        assert_eq!(s("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(s("line\nbreak\t"), "\"line\\nbreak\\t\"");
        assert_eq!(s("\u{1}"), "\"\\u0001\"");
        // Non-ASCII is written raw, never \u-escaped.
        assert_eq!(s("é😀"), "\"é😀\"");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::parse(r#""a\n\t\"\\\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\n\t\"\\Aé😀");
        // Round-trip through the writer and parser again.
        let again = Value::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "tru",
            "1 2",
            // Trailing comma, missing colon, trailing garbage.
            "{\"a\": 1,}",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            // Unescaped raw control byte inside a string.
            "\"\u{1}\"",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_bad_escapes() {
        for bad in [
            // Unknown escape letter.
            "\"bad \\q escape\"",
            // \u with non-hex digits, and \u cut short by the closing quote.
            "\"\\uZZZZ\"",
            "\"\\u12\"",
            // Lone surrogates, high and low.
            "\"\\ud800\"",
            "\"\\udc00\"",
            // A high surrogate followed by something other than a low one.
            "\"\\ud83d\\u0041\"",
            // Backslash at end of input.
            "\"dangling\\",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_bare_number_soup() {
        for bad in ["--3", "1e", "+", "+5", "1e999", "-"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unterminated_multibyte_string_is_rejected() {
        // The input ends right after a multi-byte char, inside the string.
        assert!(Value::parse("\"caf\u{e9}").is_err());
        assert_eq!(
            Value::parse("\"caf\u{e9}\"").unwrap().as_str(),
            Some("café")
        );
    }

    #[test]
    fn depth_cap_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert_eq!(Value::parse(&deep), Err(ParseError::TooDeep));
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn errors_render_the_wire_texts() {
        assert_eq!(
            Value::parse("not json").unwrap_err().to_string(),
            "syntax error: bad literal at offset 0"
        );
        assert_eq!(
            Value::parse("{\"a\":").unwrap_err().to_string(),
            "truncated frame"
        );
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert_eq!(
            Value::parse(&deep).unwrap_err().to_string(),
            "nesting too deep"
        );
    }

    #[test]
    fn numbers_classify() {
        assert_eq!(Value::parse("7").unwrap(), Value::UInt(7));
        assert_eq!(Value::parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(Value::parse("1.5").unwrap(), Value::Num(1.5));
        assert_eq!(Value::parse("-1.5").unwrap().to_string(), "-1.5");
        assert_eq!(
            Value::parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
    }
}
