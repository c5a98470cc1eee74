//! Minimal JSON support: a string/number writer for the exporters and a
//! validating parser for the tests.
//!
//! The workspace is dependency-free, so instead of serde this module
//! provides exactly what the exporters need: correct string escaping,
//! finite-number formatting, and a recursive-descent parser that checks
//! well-formedness (and lets tests walk the parsed structure).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// Appends the body of a JSON string literal (no quotes), so a caller
/// can assemble one literal from several pieces. Escape-free runs are
/// copied whole; only `"`, `\` and the C0 controls take the slow path.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `run..i` ends on a character boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[run..]);
}

/// Appends `v` to `out` as a JSON number.  Non-finite values (which JSON
/// cannot represent) are written as `null`.
pub fn write_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        write_i64(out, v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Appends `v` in decimal without going through `fmt`.
pub(crate) fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends `v` in decimal without going through `fmt`.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// A parsed JSON value, used by validation tests to inspect exporter output.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
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
            _ => None,
        }
    }

    /// Convenience: `obj["key"]` lookup that works through the enum.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.get(key)
    }
}

/// Parses `input` as one JSON document, rejecting trailing garbage.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("expected digits at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    // The scanned range is ASCII digits/signs by construction.
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad utf8 in number")?;
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed by our exporters;
                        // replace lone surrogates rather than erroring out.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("raw control char in string".into()),
            Some(_) => {
                // Consume the run of plain characters up to the next
                // quote, escape or control byte. Those are ASCII, so the
                // run is whole characters of the `&str` we were given.
                let tail = &b[*pos..];
                let run = tail
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                    .unwrap_or(tail.len());
                out.push_str(std::str::from_utf8(&tail[..run]).map_err(|_| "bad utf8")?);
                *pos += run;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t unicode é control \u{0001}";
        let mut out = String::new();
        write_string(&mut out, nasty);
        let parsed = parse(&out).unwrap();
        assert_eq!(parsed, Value::String(nasty.to_string()));
    }

    #[test]
    fn number_formatting_round_trips() {
        for v in [0.0, 1.0, -3.5, 1e-9, 123456.789, 2.5e12] {
            let mut out = String::new();
            write_number(&mut out, v);
            let parsed = parse(&out).unwrap();
            assert_eq!(parsed.as_f64(), Some(v), "value {v}");
        }
        let mut out = String::new();
        write_number(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }

    /// The escaper this module shipped before it copied escape-free runs
    /// whole: one `char` at a time, `fmt` for the `\u` escapes.
    fn charwise_write_string(out: &mut String, s: &str) {
        out.push('"');
        for ch in s.chars() {
            match ch {
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

    #[test]
    fn write_string_matches_the_charwise_escaper() {
        let mut cases: Vec<String> = Vec::new();
        let specials: Vec<char> = (0u8..0x20).map(char::from).chain(['"', '\\']).collect();
        for &c in &specials {
            // Alone, first, last, in the middle, doubled.
            cases.push(c.to_string());
            cases.push(format!("{c}tail"));
            cases.push(format!("head{c}"));
            cases.push(format!("he{c}ad"));
            cases.push(format!("{c}{c}"));
            // Next to multi-byte characters on both sides.
            cases.push(format!("é{c}€{c}😀"));
        }
        cases.extend(["", "plain", "é", "€", "😀", "aé€😀z", "\u{7f}", "\u{80}"].map(String::from));
        // The consolidated-kernel names the bursty fleet workload emits.
        let long = vec!["substring_search"; 32].join("+");
        assert_eq!(long.len(), 543);
        cases.push(format!("{long}\""));
        cases.push(long);
        for case in &cases {
            let (mut got, mut want) = (String::new(), String::new());
            write_string(&mut got, case);
            charwise_write_string(&mut want, case);
            assert_eq!(got, want, "escaping {case:?}");
            assert_eq!(parse(&got), Ok(Value::String(case.clone())));
        }
    }

    #[test]
    fn write_number_matches_fmt() {
        let reference = |v: f64| {
            if !v.is_finite() {
                "null".to_string()
            } else if v == v.trunc() && v.abs() < 1e15 {
                format!("{}", v as i64)
            } else {
                format!("{v}")
            }
        };
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            -10.0,
            0.1,
            -2.5,
            1e-7,
            123_456.789,
            999_999_999_999_999.0,
            1e15,
            1e15 + 2.0,
            1e15 - 0.5,
            two53,
            two53 - 1.0,
            two53 + 2.0,
            u64::MAX as f64,
            i64::MAX as f64,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
        ];
        values.extend((0..19).map(|p| 10f64.powi(p)));
        for v in values.iter().flat_map(|&v| [v, -v]) {
            let mut got = String::new();
            write_number(&mut got, v);
            assert_eq!(got, reference(v), "formatting {v:e}");
            match parse(&got) {
                Ok(Value::Number(back)) => assert_eq!(back, v),
                Ok(Value::Null) => assert!(!v.is_finite()),
                other => panic!("{got:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2,{"b":null,"c":true}],"d":"x"}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
        assert_eq!(v.get("d").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01x",
            "[1] trailing",
            "{'single':1}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
