//! Offline shim for `serde_json`: compact JSON text over the serde shim's
//! value tree.
//!
//! Integers print exactly from `i128`/`u128` (token deltas survive), floats
//! as `{:?}` prints them (shortest round-trip, whole floats keep a `.0`),
//! object keys keep insertion order so output bytes are deterministic — the
//! API contract tests assert exact bodies like `{"ok":true}`. Numbers are
//! written straight into the output, through `i64`/`u64` when they fit.

use std::fmt::{self, Write as _};
use std::io;

pub use serde::__private::Value;

/// A JSON serialization or parse error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl From<Error> for io::Error {
    fn from(e: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Serialize to a JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &serde::__private::to_value(value));
    Ok(out)
}

/// Serialize to JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Serialize into a writer.
pub fn to_writer<W: io::Write, T: serde::Serialize + ?Sized>(
    mut writer: W,
    value: &T,
) -> Result<(), Error> {
    let bytes = to_vec(value)?;
    writer
        .write_all(&bytes)
        .map_err(|e| Error::new(format!("write failed: {e}")))
}

/// Deserialize from a JSON string.
pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T, Error> {
    let value = Parser::new(s.as_bytes()).parse()?;
    serde::__private::from_value(value)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T, Error> {
    let value = Parser::new(bytes).parse()?;
    serde::__private::from_value(value)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => match i64::try_from(*n) {
            Ok(n) => push_display(out, n),
            Err(_) => push_display(out, n),
        },
        Value::UInt(n) => match u64::try_from(*n) {
            Ok(n) => push_display(out, n),
            Err(_) => push_display(out, n),
        },
        // serde_json's lossy behaviour for non-finite floats in Value position.
        Value::Float(f) if !f.is_finite() => out.push_str("null"),
        // `{:?}` of an exact whole float under 1e16 is its integer and `.0`.
        Value::Float(f) if *f != 0.0 && f.abs() < 1e15 && f.trunc() == *f => {
            push_display(out, *f as i64);
            out.push_str(".0");
        }
        Value::Float(f) => push_display(out, format_args!("{f:?}")),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// Append `value`'s `Display` bytes without a `String` of its own.
fn push_display(out: &mut String, value: impl fmt::Display) {
    write!(out, "{value}").expect("writing to a String cannot fail");
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Parser { bytes, pos: 0 }
    }

    fn parse(mut self) -> Result<Value, Error> {
        let v = self.value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::new("recursion limit exceeded"));
        }
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut entries = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                loop {
                    let key = self.string_after_ws()?;
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Obj(entries));
                        }
                        _ => {
                            return Err(Error::new(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected byte `{}` at {}",
                other as char, self.pos
            ))),
        }
    }

    fn string_after_ws(&mut self) -> Result<String, Error> {
        if self.peek()? != b'"' {
            return Err(Error::new(format!(
                "expected string key at byte {}",
                self.pos
            )));
        }
        self.string()
    }

    fn string(&mut self) -> Result<String, Error> {
        // Caller has peeked the opening quote.
        self.skip_ws();
        self.pos += 1;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00));
                                    out.push(
                                        char::from_u32(combined)
                                            .ok_or_else(|| Error::new("invalid surrogate pair"))?,
                                    );
                                } else {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| Error::new("invalid \\u escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 character (input is required valid).
                    let start = self.pos;
                    let len = utf8_len(b);
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| Error::new("truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i128>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u128>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[test]
    fn exact_bytes() {
        #[derive(Serialize)]
        struct Ok2 {
            ok: bool,
        }
        assert_eq!(to_vec(&Ok2 { ok: true }).unwrap(), b"{\"ok\":true}");
    }

    #[test]
    fn i128_round_trip() {
        #[derive(Serialize, Deserialize, Debug, PartialEq)]
        struct Delta {
            delta: i128,
        }
        let d = Delta {
            delta: -170_141_183_460_469_231_731_687_303_715_884_105_727,
        };
        let s = to_string(&d).unwrap();
        assert!(s.contains("-170141183460469231731687303715884105727"));
        let back: Delta = from_str(&s).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn parse_nested_and_escapes() {
        let v: Vec<Vec<String>> = from_str(r#"[["a\n\"b"],[]]"#).unwrap();
        assert_eq!(v, vec![vec!["a\n\"b".to_string()], vec![]]);
        let f: f64 = from_str("2.5e2").unwrap();
        assert!((f - 250.0).abs() < 1e-9);
        let u: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(u, "é😀");
    }

    #[test]
    fn floats_keep_decimal_point() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&0.25f64).unwrap(), "0.25");
    }

    /// Every number prints the bytes `n.to_string()` and `{:?}` print
    /// (and `null` for a float that is not finite), on both sides of the
    /// 64-bit paths and of the whole-float fast path.
    #[test]
    fn numbers_print_as_std_formats_them() {
        let printed = |v: Value| {
            let mut out = String::new();
            write_value(&mut out, &v);
            out
        };
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };

        let mut floats = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e15,
            -1e15,
            1e15 - 1.0,
            1e15 + 1.0,
            -(1e15 - 1.0),
            1e16,
            1e16 - 2.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_993.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        for _ in 0..20_000 {
            let bits = next();
            floats.push(f64::from_bits(bits));
            // Whole floats, the fast path's share of a report.
            floats.push((bits >> (bits % 64)) as i64 as f64);
            floats.push(((bits % 2_000_000_000_000_000) as f64 - 1e15).trunc());
        }
        floats.extend([f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        for f in floats {
            let expect = if f.is_finite() {
                format!("{f:?}")
            } else {
                "null".into()
            };
            assert_eq!(printed(Value::Float(f)), expect, "bits {:#x}", f.to_bits());
        }

        let wide = |hi: u64, lo: u64| (u128::from(hi) << 64) | u128::from(lo);
        let mut ints: Vec<i128> = vec![0, -1, 1, i128::MIN, i128::MAX];
        let mut uints: Vec<u128> = vec![0, 1, u128::MAX];
        for edge in [
            i128::from(i64::MIN),
            i128::from(i64::MAX),
            i128::from(u64::MAX),
        ] {
            ints.extend([edge - 1, edge, edge + 1]);
            uints.extend([edge - 1, edge, edge + 1].map(|n| n as u128));
        }
        for _ in 0..20_000 {
            let (bits, low) = (next(), next());
            let wide = wide(bits, low);
            ints.extend([
                bits as i64 as i128,
                wide as i128,
                (bits >> (bits % 64)) as i128,
            ]);
            uints.extend([u128::from(bits), wide, wide >> (bits % 128)]);
        }
        for n in ints {
            assert_eq!(printed(Value::Int(n)), n.to_string());
        }
        for n in uints {
            assert_eq!(printed(Value::UInt(n)), n.to_string());
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<u64>("{]").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<u64>("-1").is_err());
    }
}
