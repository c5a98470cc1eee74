//! Minimal JSON support: a string/number writer for the exporters and a
//! validating parser for the tests.
//!
//! The workspace is dependency-free, so instead of serde this module
//! provides exactly what the exporters need: correct string escaping,
//! finite-number formatting, and a recursive-descent parser that checks
//! well-formedness (and lets tests walk the parsed structure).
//!
//! Numbers never go through `fmt`: integers are written eight digits at a
//! time, and other floats through [`write_f64`], an in-crate Ryu that
//! produces the bytes `Display for f64` produces.

use std::collections::BTreeMap;

/// Where the writers append. The public functions write into a `String`;
/// the exporters write into a [`Text`].
pub(crate) trait Out {
    fn push_str(&mut self, s: &str);
    /// Appends ASCII the writers produced themselves: digits, signs,
    /// points, escapes.
    fn push_ascii(&mut self, ascii: &[u8]);

    /// Appends the first `len` bytes of `chunk`, ASCII.
    fn push_ascii_head<const N: usize>(&mut self, chunk: &[u8; N], len: usize) {
        self.push_ascii(&chunk[..len]);
    }
}

impl Out for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }

    fn push_ascii(&mut self, ascii: &[u8]) {
        // ASCII is UTF-8, so this never falls back.
        String::push_str(self, std::str::from_utf8(ascii).unwrap_or_default());
    }
}

/// An export being rendered. A `String` checks every piece of ASCII it
/// is handed for UTF-8 — about as long as writing a number takes — so
/// the text is collected as bytes and checked once, in
/// [`Text::into_string`].
pub(crate) struct Text(Vec<u8>);

impl Text {
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        Text(Vec::with_capacity(bytes))
    }

    pub(crate) fn push(&mut self, c: char) {
        match u8::try_from(c) {
            Ok(ascii) if ascii.is_ascii() => self.0.push(ascii),
            _ => self.push_str(c.encode_utf8(&mut [0; 4])),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The bytes from `start` on.
    pub(crate) fn tail(&self, start: usize) -> &[u8] {
        &self.0[start..]
    }

    pub(crate) fn into_string(self) -> String {
        // Only `&str`s and ASCII went in, so this never falls back.
        String::from_utf8(self.0)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

impl Out for Text {
    fn push_str(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    fn push_ascii(&mut self, ascii: &[u8]) {
        debug_assert!(ascii.is_ascii());
        self.0.extend_from_slice(ascii);
    }

    /// Copies all of `chunk` and drops its tail: a copy of a known size
    /// is a few moves, one of a variable size a call to `memcpy`.
    fn push_ascii_head<const N: usize>(&mut self, chunk: &[u8; N], len: usize) {
        debug_assert!(len <= N && chunk[..len].is_ascii());
        let end = self.0.len() + len;
        self.0.extend_from_slice(chunk);
        self.0.truncate(end);
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_string(out: &mut String, s: &str) {
    write_literal(out, s);
}

/// [`write_string`] for any [`Out`].
pub(crate) fn write_literal(out: &mut impl Out, s: &str) {
    out.push_ascii(b"\"");
    write_escaped(out, s);
    out.push_ascii(b"\"");
}

/// Appends the body of a JSON string literal (no quotes), so a caller
/// can assemble one literal from several pieces. Escape-free runs are
/// copied whole; only `"`, `\` and the C0 controls take the slow path.
pub(crate) fn write_escaped(out: &mut impl Out, s: &str) {
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
            b'"' => out.push_ascii(b"\\\""),
            b'\\' => out.push_ascii(b"\\\\"),
            b'\n' => out.push_ascii(b"\\n"),
            b'\r' => out.push_ascii(b"\\r"),
            b'\t' => out.push_ascii(b"\\t"),
            _ => out.push_ascii(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
    }
    out.push_str(&s[run..]);
}

/// Appends `v` to `out` as a JSON number.  Non-finite values (which JSON
/// cannot represent) are written as `null`.
pub fn write_number(out: &mut String, v: f64) {
    write_json_number(out, v);
}

/// [`write_number`] for any [`Out`].
pub(crate) fn write_json_number(out: &mut impl Out, v: f64) {
    if !v.is_finite() {
        out.push_ascii(b"null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        write_i64(out, v as i64);
    } else {
        write_f64(out, v);
    }
}

/// Appends `v` in decimal.
pub(crate) fn write_i64(out: &mut impl Out, v: i64) {
    if v < 0 {
        out.push_ascii(b"-");
    }
    write_u64(out, v.unsigned_abs());
}

/// Appends `v` in decimal.
pub(crate) fn write_u64(out: &mut impl Out, v: u64) {
    let mut buf = Digits::default();
    let n = buf.write(v);
    out.push_ascii_head(buf.head(), n);
}

/// `"00"`, `"01"`, ..., `"99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The decimal digits of a `u64`, from `Digits::START` on.
struct Digits([u8; Digits::START + 24]);

impl Default for Digits {
    fn default() -> Self {
        Digits([0; Digits::START + 24])
    }
}

impl Digits {
    /// Room for the zeros that lead the first group of eight.
    const START: usize = 8;

    /// Writes `v` and returns how many digits it has: eight at a time,
    /// from the right, as four pairs that do not wait on each other.
    fn write(&mut self, mut v: u64) -> usize {
        let n = v.checked_ilog10().unwrap_or(0) as usize + 1;
        let mut at = Self::START + n;
        loop {
            let eight = (v % 100_000_000) as u32;
            v /= 100_000_000;
            at -= 8;
            for (k, pair) in [eight / 1_000_000, eight / 10_000, eight / 100, eight]
                .into_iter()
                .enumerate()
            {
                let pair = (pair % 100) as usize * 2;
                self.0[at + 2 * k..at + 2 * k + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            }
            if v == 0 {
                break;
            }
        }
        n
    }

    /// The digits and what follows them.
    fn head(&self) -> &[u8; 24] {
        self.0.last_chunk().unwrap_or(&[0; 24])
    }
}

/// Appends `v` exactly as `Display for f64` writes it: the shortest
/// digits that read back as `v` (the nearer of two candidates, the
/// larger on an exact tie), as a plain decimal — never an exponent, so
/// `1e300` is 301 characters — and `NaN`, `inf`, `-inf`, `-0`.
pub(crate) fn write_f64(out: &mut impl Out, v: f64) {
    // The longest print: `5e-324` is `0.` and 324 places. No float has
    // more places (its rounding interval, at least 2^-1074 wide, holds a
    // multiple of 10^-324) and none more digits before the point
    // (`f64::MAX` has 309).
    const LONGEST: usize = 326;
    if v.is_nan() {
        return out.push_ascii(b"NaN");
    }
    if v.is_sign_negative() {
        out.push_ascii(b"-");
    }
    if v.is_infinite() {
        return out.push_ascii(b"inf");
    }
    if v == 0.0 {
        return out.push_ascii(b"0");
    }
    let (mantissa, exponent) = shortest(v.abs());
    let mut buf = Digits::default();
    let n = buf.write(mantissa);
    let digits = &buf.head()[..n];
    // The print is laid out in one buffer of zeros and pushed at once.
    let mut text = [b'0'; LONGEST];
    // Digits before the decimal point; ≤ 0 puts zeros after it first.
    let point = exponent + n as i32;
    let len = if point <= 0 {
        let len = 2 + point.unsigned_abs() as usize + n;
        text[1] = b'.';
        text[len - n..len].copy_from_slice(digits);
        len
    } else if (point as usize) < n {
        let (int, frac) = digits.split_at(point as usize);
        text[..int.len()].copy_from_slice(int);
        text[int.len()] = b'.';
        text[int.len() + 1..=n].copy_from_slice(frac);
        n + 1
    } else {
        text[..n].copy_from_slice(digits);
        point as usize
    };
    match text.first_chunk::<32>() {
        Some(head) if len <= head.len() => out.push_ascii_head(head, len),
        _ => out.push_ascii(&text[..len]),
    }
}

// Shortest round-trip digits: Ryu (Ulf Adams, PLDI 2018) with 128-bit
// multiplies and its full tables, computed at compile time from their
// definitions below rather than typed in. One change from the paper:
// an exact tie between two shortest candidates rounds up, as `fmt`'s
// Grisu/Dragon4 does, where Ryu rounds to even.

/// Bits of `5^i` kept in [`POW5`], and bits past `2^(bits(5^i) - 1)`
/// kept in [`POW5_INV`].
const POW5_BITS: i32 = 125;

/// `5^i` cut to its top [`POW5_BITS`] bits, for binary exponents below 0.
static POW5: [u128; 326] = pow5_table();

/// `⌊2^(bits(5^i) - 1 + POW5_BITS) / 5^i⌋ + 1`, for binary exponents ≥ 0.
static POW5_INV: [u128; 342] = pow5_inv_table();

/// Length in bits of `5^e`, for `e ≤ 3528`.
const fn pow5_bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10(2^e)⌋`, for `e ≤ 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, for `e ≤ 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Bits `shift..shift + 128` of the little-endian number `limbs`.
const fn bits_at(limbs: &[u64], shift: u32) -> u128 {
    let (at, offset) = ((shift / 64) as usize, shift % 64);
    let mut window = 0u128;
    const fn limb(limbs: &[u64], i: usize) -> u64 {
        if i < limbs.len() {
            limbs[i]
        } else {
            0
        }
    }
    let mut k = 0;
    while k < 2 {
        let mut word = limb(limbs, at + k) >> offset;
        if offset > 0 {
            word |= limb(limbs, at + k + 1) << (64 - offset);
        }
        window |= (word as u128) << (64 * k);
        k += 1;
    }
    window
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    // 5^i, little-endian; 5^325 < 2^768.
    let mut pow = [0u64; 12];
    pow[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let bits = pow5_bits(i as u32) as i32;
        table[i] = if bits <= POW5_BITS {
            bits_at(&pow, 0) << (POW5_BITS - bits)
        } else {
            bits_at(&pow, (bits - POW5_BITS) as u32)
        };
        let mut carry = 0u128;
        let mut l = 0;
        while l < pow.len() {
            let product = pow[l] as u128 * 5 + carry;
            pow[l] = product as u64;
            carry = product >> 64;
            l += 1;
        }
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    const SCALE: u32 = 1024;
    let mut table = [0; 342];
    // ⌊2^SCALE / 5^i⌋, little-endian: dividing the floor by 5 again is
    // the floor of the next quotient, so no step loses anything.
    let mut inv = [0u64; 17];
    inv[16] = 1;
    let mut i = 0;
    while i < table.len() {
        let shift = pow5_bits(i as u32) as i32 - 1 + POW5_BITS;
        table[i] = bits_at(&inv, SCALE - shift as u32) + 1;
        let mut rest = 0u128;
        let mut l = inv.len();
        while l > 0 {
            l -= 1;
            let part = rest << 64 | inv[l] as u128;
            inv[l] = (part / 5) as u64;
            rest = part % 5;
        }
        i += 1;
    }
    table
}

/// `⌊m · mul / 2^shift⌋` for a 55-bit `m`, a 126-bit `mul` and
/// `64 ≤ shift < 192`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// How many times 5 divides `v` (which is not 0).
fn pow5_factor(mut v: u64) -> u32 {
    let mut n = 0;
    loop {
        let q = v / 5;
        if q * 5 != v {
            return n;
        }
        v = q;
        n += 1;
    }
}

/// Finite `v > 0` as `(digits, exponent)`, `v ≈ digits · 10^exponent`:
/// the fewest digits that read back as `v`, the nearer of two
/// candidates, the larger on an exact tie.
fn shortest(v: f64) -> (u64, i32) {
    const MANTISSA_BITS: u32 = 52;
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32;
    // `v = m2 · 2^e2 / 4`: two spare bits for the interval's ends.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent - 1023 - MANTISSA_BITS as i32 - 2,
            ieee_mantissa | 1 << MANTISSA_BITS,
        )
    };
    // An even mantissa wins its ties, so its interval includes the ends.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // Below a power of two the next float down is half as far away.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // The interval's ends and `v`, scaled by `10^-e10`.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = POW5_BITS + pow5_bits(q) as i32 - 1 - e2 + q as i32;
        let mul = POW5_INV[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        // Whether a scaled end is exact; at most one of the three is a
        // multiple of 5.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = pow5_factor(mm) >= q;
            } else {
                vp -= u64::from(pow5_factor(mp) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let shift = q as i32 - (pow5_bits(i as u32) as i32 - POW5_BITS);
        let mul = POW5[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let digits = if vm_is_trailing_zeros {
        // The lower end is itself a candidate (rare).
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let outside = vr == vm && !vm_is_trailing_zeros;
        vr + u64::from(outside || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
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

/// How deep [`parse`] nests arrays and objects. The exporters nest at
/// most 4 deep; the bound keeps hostile input from overflowing the stack
/// of the recursive descent.
const MAX_DEPTH: usize = 128;

/// Parses `input` as one JSON document, rejecting trailing garbage and
/// nesting deeper than 128 arrays and objects.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
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

/// One value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
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
    let int_start = *pos;
    if !digits(b, pos) {
        return Err(format!("expected digits at byte {start}"));
    }
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err(format!("leading zero at byte {int_start}"));
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
                        // `from_str_radix` alone would also take a sign.
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err("bad \\u escape".into());
                        }
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

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
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

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
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
        let value = parse_value(b, pos, depth)?;
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
    use std::fmt::Write as _;

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

    /// The writer `write_number` shipped with before `write_f64`.
    fn reference(v: f64) -> String {
        if !v.is_finite() {
            "null".to_string()
        } else if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    }

    /// `write_f64` against `Display`, `write_number` against
    /// [`reference`], byte for byte, and `write_number` read back.
    fn assert_prints_as_fmt(v: f64) {
        let mut got = String::new();
        write_f64(&mut got, v);
        assert_eq!(got, format!("{v}"), "Display of {v:e} ({:#x})", v.to_bits());
        got.clear();
        write_number(&mut got, v);
        assert_eq!(got, reference(v), "write_number({v:e})");
        match parse(&got) {
            Ok(Value::Number(back)) => assert_eq!(back, v),
            Ok(Value::Null) => assert!(!v.is_finite()),
            other => panic!("{got:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn write_number_matches_fmt() {
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
            // Display ends in many zeros.
            1e22,
            1e23,
            4.5e15,
            123e45,
            1.5e300,
        ];
        let ulps = |v: f64, n: u64| (v.to_bits() - n..=v.to_bits() + n).map(f64::from_bits);
        let pow2 = |e: i32| match e {
            -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
            _ => f64::from_bits(((e + 1023) as u64) << 52),
        };
        // Every power of two and of ten, ±1 ulp.
        values.extend((-1074..=1023).flat_map(|e| ulps(pow2(e), 1)));
        values.extend((-323..=308).flat_map(|p| ulps(format!("1e{p}").parse().unwrap(), 1)));
        // Subnormals, both ends of the normals, and the boundaries where
        // `write_number` switches writers and where floats stop being
        // integers: wider windows, which is where exact ties between two
        // shortest candidates live (2^50 + 1/4 lies halfway between
        // ...624.2 and ...624.3).
        values.extend((1..=64).map(f64::from_bits));
        values.extend(ulps(f64::MIN_POSITIVE, 64));
        values.extend(ulps(f64::MAX, 64).filter(|v| v.is_finite()));
        values.extend(ulps(1e15, 256));
        values.extend((45..=60).flat_map(|e| ulps(pow2(e), 256)));

        // Seeded random finite bit patterns: half over the whole range,
        // half with |v| in 2^±70, where all three layouts occur.
        let random = if cfg!(debug_assertions) {
            100_000
        } else {
            1_000_000
        };
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut random_values = Vec::with_capacity(random);
        while random_values.len() < random {
            let bits = next();
            let bits = if random_values.len() % 2 == 0 {
                bits
            } else {
                let exponent = 1023 - 70 + (bits >> 52) % 141;
                (bits & ((1 << 63) | ((1 << 52) - 1))) | (exponent << 52)
            };
            let v = f64::from_bits(bits);
            if v.is_finite() {
                random_values.push(v);
            }
        }

        for v in values
            .into_iter()
            .flat_map(|v| [v, -v])
            .chain(random_values)
        {
            assert_prints_as_fmt(v);
        }
    }

    #[test]
    fn integers_match_to_string() {
        let mut values = vec![0, u64::MAX, i64::MAX as u64];
        for p in 0..20 {
            let pow = 10u64.pow(p);
            values.extend([pow - 1, pow, pow + 1, pow.saturating_mul(7)]);
        }
        for v in values {
            let mut got = String::new();
            write_u64(&mut got, v);
            assert_eq!(got, v.to_string());
            for v in [v as i64, (v as i64).wrapping_neg()] {
                got.clear();
                write_i64(&mut got, v);
                assert_eq!(got, v.to_string());
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
    fn nesting_is_capped_at_128() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(128)).is_ok());
        assert!(parse(&format!(r#"{{"a":{}}}"#, nested(127))).is_ok());
        assert_eq!(
            parse(&nested(129)),
            Err("nesting deeper than 128 at byte 128".into())
        );
        assert!(parse(&format!(r#"{{"a":{}}}"#, nested(128))).is_err());
        assert!(parse(&nested(100_000)).is_err());
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
            // Leading zeros.
            "01",
            "-01",
            "[00]",
            // A sign inside a \u escape.
            "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
