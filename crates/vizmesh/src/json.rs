//! A small JSON value and parser for the one document that crosses a
//! file boundary (in situ action lists, read inbound only) and for
//! tests that read journal lines back.
//!
//! The parser takes input from outside the program: every malformed
//! document is a [`JsonError`] carrying the byte offset, nesting is
//! limited to [`MAX_DEPTH`], and nothing here panics. Objects keep their
//! keys in document order. The typed getters ([`Value::str`],
//! [`Value::f64`], ...) are what the hand-written decoders in `vizalgo`
//! and `insitu` read with.

use std::fmt;

/// Deepest accepted nesting of arrays and objects.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number written as plain digits that fits `u64` (seeds, counts):
    /// kept exact rather than rounded through `f64`.
    UInt(u64),
    /// Any other number.
    Number(f64),
    String(String),
    Array(Vec<Value>),
    /// Key/value pairs in document order.
    Object(Vec<(String, Value)>),
}

/// Why a document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Malformed text: the parser wanted `expected` at byte `offset`
    /// (also: nesting past [`MAX_DEPTH`], input after the document).
    Syntax {
        offset: usize,
        expected: &'static str,
    },
    /// A required object key is absent.
    Missing { field: &'static str },
    /// The value at `field` (the document root when empty) is not of the
    /// `expected` JSON type or range.
    Wrong {
        field: &'static str,
        expected: &'static str,
    },
    /// An enum tag names no variant of `of`.
    UnknownTag { of: &'static str, tag: String },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, expected } => {
                write!(f, "expected {expected} at byte {offset}")
            }
            JsonError::Missing { field } => write!(f, "missing field `{field}`"),
            JsonError::Wrong { field, expected } => {
                write!(f, "field `{field}`: expected {expected}")
            }
            JsonError::UnknownTag { of, tag } => write!(f, "unknown {of} `{tag}`"),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// The value at `field` (the document root when empty) is not
    /// `expected`.
    pub fn wrong(field: &'static str, expected: &'static str) -> JsonError {
        JsonError::Wrong { field, expected }
    }

    /// `tag` names no variant of the enum `of`.
    pub fn unknown_tag(of: &'static str, tag: &str) -> JsonError {
        let tag = tag.to_owned();
        JsonError::UnknownTag { of, tag }
    }
}

static NULL: Value = Value::Null;

impl Value {
    /// The value at `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The required value at `field` of an object.
    pub fn field(&self, field: &'static str) -> Result<&Value, JsonError> {
        match self {
            Value::Object(_) => self.get(field).ok_or(JsonError::Missing { field }),
            _ => Err(JsonError::wrong("", "an object")),
        }
    }

    /// The required string at `field`.
    pub fn str(&self, field: &'static str) -> Result<&str, JsonError> {
        (self.field(field)?.as_str()).ok_or(JsonError::wrong(field, "a string"))
    }

    /// The required number at `field`.
    pub fn f64(&self, field: &'static str) -> Result<f64, JsonError> {
        (self.field(field)?.as_f64()).ok_or(JsonError::wrong(field, "a number"))
    }

    /// The required non-negative integer at `field`.
    pub fn u64(&self, field: &'static str) -> Result<u64, JsonError> {
        (self.field(field)?.as_u64()).ok_or(JsonError::wrong(field, "a non-negative integer"))
    }

    /// The required non-negative integer at `field`, as a `usize`.
    pub fn usize(&self, field: &'static str) -> Result<usize, JsonError> {
        usize::try_from(self.u64(field)?)
            .map_err(|_| JsonError::wrong(field, "an integer that fits usize"))
    }

    /// The required array at `field`.
    pub fn array(&self, field: &'static str) -> Result<&[Value], JsonError> {
        (self.field(field)?.as_array()).ok_or(JsonError::wrong(field, "an array"))
    }

    /// The tag of an externally tagged enum `of`: a bare string is a
    /// unit variant; a one-key object is a variant whose payload the
    /// typed getters read as the field of that name.
    pub fn variant(&self, of: &'static str) -> Result<&str, JsonError> {
        match self {
            Value::String(tag) => Ok(tag),
            Value::Object(pairs) if pairs.len() == 1 => Ok(&pairs[0].0),
            _ => Err(JsonError::wrong(of, "a variant name or a one-key object")),
        }
    }
}

/// `v["key"]`: the member, or `null` for a missing key or a non-object
/// (for tests that probe journal lines).
impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

/// Parse one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => p.err("end of input"),
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn err<T>(&self, expected: &'static str) -> Result<T, JsonError> {
        let offset = self.at;
        Err(JsonError::Syntax { offset, expected })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        let keyword = |p: &mut Self, word: &str, value| {
            if p.text[p.at..].starts_with(word) {
                p.at += word.len();
                Ok(value)
            } else {
                p.err("a JSON value")
            }
        };
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => self.err("at most 128 nested levels"),
            Some(b'{') => Ok(Value::Object(self.members(b'}', "`,` or `}`", |p| {
                p.skip_ws();
                let key = p.string()?;
                p.skip_ws();
                if p.peek() != Some(b':') {
                    return p.err("`:`");
                }
                p.at += 1;
                Ok((key, p.value(depth + 1)?))
            })?)),
            Some(b'[') => Ok(Value::Array(
                self.members(b']', "`,` or `]`", |p| p.value(depth + 1))?,
            )),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => keyword(self, "true", Value::Bool(true)),
            Some(b'f') => keyword(self, "false", Value::Bool(false)),
            Some(b'n') => keyword(self, "null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("a JSON value"),
        }
    }

    /// The comma-separated members of an array or object, from its
    /// opening bracket through `close`.
    fn members<T>(
        &mut self,
        close: u8,
        expected: &'static str,
        mut member: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.at += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(out);
                }
                _ => return self.err(expected),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if self.peek() != Some(b'"') {
            return self.err("a string");
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece;
            // both are ASCII, so the cut is on a char boundary.
            let run = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                _ => return self.err("a closing `\"`"),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(c @ (b'"' | b'\\' | b'/')) => c as char,
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self.text.get(self.at + 1..self.at + 5);
                let Some(code) = hex.and_then(|h| u32::from_str_radix(h, 16).ok()) else {
                    return self.err("four hex digits after `\\u`");
                };
                self.at += 4;
                // A lone surrogate half has no char of its own.
                char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
            }
            _ => return self.err("an escape character"),
        };
        self.at += 1;
        Ok(c)
    }

    /// Scan the characters a number can contain and let `str::parse`
    /// judge them; a token of plain digits that fits `u64` stays exact.
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        let token = &self.text[start..self.at];
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Number(x)),
            _ => {
                self.at = start;
                self.err("a finite number")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use JsonError as E;

    #[test]
    fn parses_every_kind_and_keeps_key_order() {
        let v = parse(r#" {"b": [1, -2, 2.5e-1, true, null], "a": {"s": "x\n\u0041\"y"}} "#)
            .expect("valid document");
        let Value::Object(pairs) = &v else {
            panic!("not an object: {v:?}")
        };
        assert_eq!(pairs[0].0, "b");
        assert_eq!(pairs[1].0, "a");
        assert_eq!(
            v["b"],
            Value::Array(vec![
                Value::UInt(1),
                Value::Number(-2.0),
                Value::Number(0.25),
                Value::Bool(true),
                Value::Null,
            ])
        );
        assert_eq!(v["a"]["s"], "x\nA\"y");
        assert_eq!(v["missing"], Value::Null);
        assert_eq!(v["b"]["not-an-object"], Value::Null);
    }

    #[test]
    fn integers_stay_exact_and_floats_round_trip_bitwise() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::UInt(u64::MAX)));
        // One past u64::MAX is still a number, just not an exact one.
        assert!(matches!(
            parse("18446744073709551616"),
            Ok(Value::Number(_))
        ));
        // `{:?}` is the shortest text that parses back to the same bits.
        for x in [5e-4, 0.1, 1.0 / 3.0, 1e300, -2.5e-9, 123456789.125, 0.0_f64] {
            let text = format!("{x:?}");
            let back = parse(&text).expect("debug-formatted number parses");
            assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()), "{text}");
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors_with_offsets() {
        let syntax = |text: &str| match parse(text) {
            Err(JsonError::Syntax { offset, expected }) => (offset, expected),
            other => panic!("{text:?}: expected a syntax error, got {other:?}"),
        };
        assert_eq!(syntax("").0, 0);
        assert_eq!(syntax("[1,]").0, 3);
        assert_eq!(syntax(r#"{"a" 1}"#), (5, "`:`"));
        assert_eq!(syntax(r#"{"a":1"#).0, 6);
        assert_eq!(syntax("\"open").0, 5);
        assert_eq!(syntax("\"bad \\q\"").0, 6);
        assert_eq!(syntax("\"\\u12\"").0, 2);
        assert_eq!(syntax("NaN").0, 0);
        assert_eq!(syntax("nul").0, 0);
        assert_eq!(syntax("-").0, 0);
        assert_eq!(syntax("1e999"), (0, "a finite number"));
        assert_eq!(syntax("1-2").0, 0);
        assert_eq!(syntax("\"tab\there\"").0, 4);
        assert_eq!(syntax("1 2"), (2, "end of input"));
        assert_eq!(syntax("{} x"), (3, "end of input"));
    }

    #[test]
    fn nesting_is_limited_not_recursed_into() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let too_deep = |offset| {
            let expected = "at most 128 nested levels";
            Err(JsonError::Syntax { offset, expected })
        };
        assert_eq!(parse(&"[".repeat(10_000)), too_deep(MAX_DEPTH));
        assert_eq!(
            parse(&r#"{"a":"#.repeat(MAX_DEPTH + 1)),
            too_deep(5 * MAX_DEPTH)
        );
    }

    #[test]
    fn typed_getters_name_the_field_they_rejected() {
        let v = parse(r#"{"s": "x", "n": 1.5, "u": 7, "a": [], "big": 1e30}"#).expect("valid");
        assert_eq!(v.str("s"), Ok("x"));
        assert_eq!(v.f64("n"), Ok(1.5));
        assert_eq!(v.f64("u"), Ok(7.0));
        assert_eq!(v.usize("u"), Ok(7));
        assert_eq!(v.array("a"), Ok(&[][..]));
        assert_eq!(v.str("nope"), Err(JsonError::Missing { field: "nope" }));
        assert_eq!(v.u64("n"), Err(E::wrong("n", "a non-negative integer")));
        assert_eq!(v.u64("big"), Err(E::wrong("big", "a non-negative integer")));
        assert_eq!(v.f64("s"), Err(E::wrong("s", "a number")));
        assert_eq!(v["a"].field("x"), Err(E::wrong("", "an object")));
        assert_eq!(v["s"].variant("kind"), Ok("x"));
        assert_eq!(
            parse(r#"{"k": 2}"#).expect("valid").variant("kind"),
            Ok("k")
        );
        assert_eq!(
            v.variant("kind"),
            Err(E::wrong("kind", "a variant name or a one-key object"))
        );
        assert_eq!(
            JsonError::unknown_tag("filter type", "x").to_string(),
            "unknown filter type `x`"
        );
    }
}
