//! A minimal JSON parser — just enough to validate the machine-readable
//! artifacts this workspace produces (the lint JSON report and its SARIF
//! rendering).
//!
//! The build environment has no registry access, so `serde_json` is not an
//! option; the grammar here is the full RFC 8259 value grammar minus
//! `\uXXXX` surrogate-pair pedantry (lone escapes decode to the
//! replacement character rather than erroring).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keys are sorted (duplicate keys: last wins).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first offending character.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is a &str, so
                    // the boundaries are valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError {
                offset: start,
                message: format!("invalid number `{text}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -1.5e3 ").unwrap(), Value::Number(-1500.0));
        assert_eq!(
            parse(r#""a\nbAº""#).unwrap(),
            Value::String("a\nbAº".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":{"d":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\x01\""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_malformed_escapes() {
        for bad in [
            r#""\q""#,     // unknown escape
            r#""\u12""#,   // truncated \u
            r#""\u12zq""#, // non-hex \u digits
            r#""\"#,       // backslash at end of input
            r#""\u""#,     // \u with no digits at all
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parses_deeply_nested_values() {
        // 200 levels of arrays then objects — the recursive parser must
        // survive depths far beyond anything the lint report emits.
        let depth = 200;
        let arrays = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let mut v = parse(&arrays).unwrap();
        for _ in 0..depth {
            v = v.as_array().unwrap()[0].clone();
        }
        assert_eq!(v, Value::Number(1.0));

        let objects = format!("{}0{}", r#"{"k":"#.repeat(depth), "}".repeat(depth));
        let mut v = parse(&objects).unwrap();
        for _ in 0..depth {
            v = v.get("k").unwrap().clone();
        }
        assert_eq!(v, Value::Number(0.0));
    }

    #[test]
    fn duplicate_keys_last_one_wins() {
        // RFC 8259 leaves duplicate-name behavior undefined; this parser
        // keeps the last binding, matching serde_json and most consumers.
        let v = parse(r#"{"a":1,"a":2,"a":3}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::Number(3.0)));
    }

    #[test]
    fn lone_surrogates_decode_to_replacement_char() {
        // An unpaired high surrogate cannot round-trip through char; the
        // parser substitutes U+FFFD rather than rejecting the document.
        assert_eq!(
            parse(r#""\ud800x""#).unwrap(),
            Value::String("\u{FFFD}x".into())
        );
        // Same for an unpaired low surrogate.
        assert_eq!(
            parse(r#""\udc00""#).unwrap(),
            Value::String("\u{FFFD}".into())
        );
        // A well-formed pair still decodes to the supplementary char.
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".into()));
    }

    #[test]
    fn negative_zero_parses_and_is_not_u64() {
        let v = parse("-0").unwrap();
        assert_eq!(v, Value::Number(0.0)); // -0.0 == 0.0 under IEEE equality
        match v {
            Value::Number(n) => assert!(n.is_sign_negative()),
            _ => unreachable!(),
        }
        // as_u64 requires n >= 0 and integral; -0.0 satisfies both.
        assert_eq!(v.as_u64(), Some(0));
    }

    #[test]
    fn overflow_exponents_saturate_to_infinity() {
        // f64::from_str maps 1e999 to +inf rather than erroring; the parser
        // inherits that, and as_u64 correctly refuses the result.
        match parse("1e999").unwrap() {
            Value::Number(n) => assert_eq!(n, f64::INFINITY),
            v => panic!("expected number, got {v:?}"),
        }
        match parse("-1e999").unwrap() {
            Value::Number(n) => assert_eq!(n, f64::NEG_INFINITY),
            v => panic!("expected number, got {v:?}"),
        }
        assert_eq!(parse("1e999").unwrap().as_u64(), None);
    }
}
