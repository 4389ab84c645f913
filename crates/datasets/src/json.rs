//! The workspace's JSON: one value type, a pretty writer and a strict
//! RFC 8259 parser.
//!
//! Three things cross a JSON boundary — dataset specs
//! ([`crate::registry::save_specs`] / [`crate::registry::load_specs`], the
//! only reader), `emap_core::SessionReport` and the `emap monitor --json`
//! records (written only) — and each builds or reads a [`Value`] by hand.
//! The parser takes user files, so malformed input of any shape is an
//! [`Error`], never a panic, and nesting is bounded by [`MAX_DEPTH`].

use std::fmt::{self, Write};

/// Deepest nesting [`parse`] accepts; deeper input is an error rather than
/// unbounded recursion.
pub const MAX_DEPTH: usize = 64;

/// A JSON document. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counts, indices), written without a fraction.
    UInt(u64),
    /// Any other number. Written shortest-round-trip; non-finite as `null`.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; [`parse`] rejects duplicate keys.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in the order given.
    #[must_use]
    pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of floats.
    #[must_use]
    pub fn floats(values: &[f64]) -> Value {
        Value::Array(values.iter().map(|&v| Value::Float(v)).collect())
    }

    /// The member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one (integers included).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The integer, if this is a non-negative one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        let newline = |out: &mut String, indent: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", indent));
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => write!(out, "{n}").expect("writing to a String"),
            Value::Float(v) if v.is_finite() => write!(out, "{v:?}").expect("writing to a String"),
            Value::Float(_) => out.push_str("null"),
            Value::String(s) => write_string(out, s),
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "" } else { "," });
                    newline(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// Pretty-prints with two-space indentation, one member per line.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset at which the input stopped being JSON.
    pub at: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for Error {}

/// Parses exactly one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns [`Error`] on anything RFC 8259 does not allow, on a duplicate
/// object key, on a number that overflows `f64`, and on nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value(0)?;
    p.skip_whitespace();
    if p.at < p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, message: &'static str) -> Error {
        Error {
            at: self.at,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn literal(&mut self, literal: &'static str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(value)
        } else {
            Err(self.error("expected a JSON value"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_whitespace();
        if depth >= MAX_DEPTH && matches!(self.peek(), Some(b'[' | b'{')) {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.members(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let open_at = self.at;
                let mut fields: Vec<(String, Value)> = Vec::new();
                self.members(b'}', |p| {
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a string key"));
                    }
                    let key = p.string()?;
                    p.skip_whitespace();
                    if p.peek() != Some(b':') {
                        return Err(p.error("expected `:` after an object key"));
                    }
                    p.at += 1;
                    fields.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                // Sorted, so a file of many keys costs n log n, not n².
                let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                keys.sort_unstable();
                if keys.windows(2).any(|pair| pair[0] == pair[1]) {
                    self.at = open_at;
                    return Err(self.error("duplicate key in this object"));
                }
                Ok(Value::Object(fields))
            }
            Some(_) => Err(self.error("expected a JSON value")),
        }
    }

    /// The comma-separated members between an opening bracket (at the
    /// cursor) and `close`.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.at += 1;
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_whitespace();
            member(self)?;
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                Some(_) => return Err(self.error("expected `,` or a closing bracket")),
                None => return Err(self.error("unexpected end of input")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.at;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii");
        // The RFC's grammar, which `f64::from_str` is laxer than.
        let unsigned = token.strip_prefix('-').unwrap_or(token);
        let (mantissa, exponent) = match unsigned.split_once(['e', 'E']) {
            Some((mantissa, exponent)) => (mantissa, Some(exponent)),
            None => (unsigned, None),
        };
        let (int, fraction) = match mantissa.split_once('.') {
            Some((int, fraction)) => (int, Some(fraction)),
            None => (mantissa, None),
        };
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        let well_formed = digits(int)
            && (int == "0" || !int.starts_with('0'))
            && fraction.is_none_or(digits)
            && exponent.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)));
        let value = match token.parse::<u64>() {
            Ok(n) if fraction.is_none() && exponent.is_none() => Some(Value::UInt(n)),
            _ => token.parse().ok().map(Value::Float),
        };
        match value {
            Some(Value::Float(v)) if !v.is_finite() => {
                self.at = start;
                Err(self.error("number out of range"))
            }
            Some(value) if well_formed => Ok(value),
            _ => {
                self.at = start;
                Err(self.error("malformed number"))
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.at += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let run = self.at;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.at += 1;
            }
            // The input is a `&str` and the run stops only at ASCII bytes,
            // so it is whole UTF-8 sequences.
            out.push_str(std::str::from_utf8(&self.bytes[run..self.at]).expect("utf-8 run"));
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated string"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => {
                            self.at -= 1;
                            return Err(self.error("unknown escape"));
                        }
                    });
                }
                Some(_) => return Err(self.error("raw control character in a string")),
            }
        }
    }

    /// The character of a `\uXXXX` escape (cursor just past the `u`),
    /// joining a surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let first = self.hex4()?;
        let code = match first {
            0xd800..=0xdbff => {
                if !self.bytes[self.at..].starts_with(b"\\u") {
                    return Err(self.error("lone surrogate"));
                }
                self.at += 2;
                let second = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&second) {
                    return Err(self.error("lone surrogate"));
                }
                0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
            }
            0xdc00..=0xdfff => return Err(self.error("lone surrogate")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_pretty_with_shortest_floats_and_null_for_non_finite() {
        let doc = Value::object([
            ("id", Value::String("a\"b\\c\n\u{1}é".into())),
            ("n", Value::UInt(6)),
            ("rate", Value::Float(173.61)),
            ("whole", Value::Float(256.0)),
            ("tiny", Value::Float(1e-7)),
            ("nan", Value::Float(f64::NAN)),
            ("inf", Value::Float(f64::INFINITY)),
            ("pairs", Value::Array(vec![Value::Bool(true), Value::Null])),
            ("empty", Value::Array(vec![])),
            ("none", Value::Object(vec![])),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            "{\n  \"id\": \"a\\\"b\\\\c\\n\\u0001é\",\n  \"n\": 6,\n  \"rate\": 173.61,\n  \
             \"whole\": 256.0,\n  \"tiny\": 1e-7,\n  \"nan\": null,\n  \"inf\": null,\n  \
             \"pairs\": [\n    true,\n    null\n  ],\n  \"empty\": [],\n  \"none\": {}\n}"
        );
        // What was written parses back to the same document, the non-finite
        // floats as the nulls they were written as.
        let back = parse(&text).unwrap();
        assert_eq!(back.get("id"), doc.get("id"));
        assert_eq!(back.get("rate").and_then(Value::as_f64), Some(173.61));
        assert_eq!(back.get("tiny").and_then(Value::as_f64), Some(1e-7));
        assert_eq!(back.get("n").and_then(Value::as_u64), Some(6));
        assert_eq!(back.get("nan"), Some(&Value::Null));
        assert_eq!(back.get("pairs"), doc.get("pairs"));
    }

    #[test]
    fn parses_every_value_kind_and_escape() {
        let v = parse(" { \"a\" : [1, -2, 3.5e2, 0, -0.0], \"s\": \"\\u00e9\\ud83d\\ude00\\/\\b\\f\\r\\t\" } ")
            .unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array).unwrap(),
            [
                Value::UInt(1),
                Value::Float(-2.0),
                Value::Float(350.0),
                Value::UInt(0),
                Value::Float(-0.0)
            ]
        );
        assert_eq!(
            v.get("s").and_then(Value::as_str),
            Some("é😀/\u{8}\u{c}\r\t")
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None); // past u64: a float
    }

    #[test]
    fn hostile_input_is_an_error_never_a_panic() {
        let deep = "[".repeat(100_000);
        let nested_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&nested_ok).is_ok());
        let nested_over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        for bad in [
            "",
            "{",
            "{\"a\": [1, 2",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "\"\\udc00\"",
            "\"raw\ncontrol\"",
            "{} x",
            "1 2",
            "{\"a\": 1, \"a\": 2}",
            "1e999",
            "-1e999",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{a: 1}",
            "{\"a\": 1,}",
            "nul",
            "tru",
            "NaN",
            "'a'",
            "\"\\",
            "\"\\u",
            &deep,
            &nested_over,
        ] {
            assert!(
                parse(bad).is_err(),
                "accepted {:?}",
                &bad[..bad.len().min(40)]
            );
        }
        let err = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert_eq!((err.at, err.message), (0, "duplicate key in this object"));
        assert!(err.to_string().contains("byte 0"));
    }
}
