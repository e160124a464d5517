//! Minimal JSON value model, serializer and parser.
//!
//! The workspace is offline, so the wire codec is written in-repo. This is a
//! deliberately small JSON subset sufficient for the `s2g-server` protocol:
//!
//! * values: `null`, booleans, finite `f64` numbers, strings, arrays,
//!   objects;
//! * objects preserve **insertion order** (they are a `Vec` of pairs, not a
//!   map), so serialized output is deterministic;
//! * numbers are emitted by [`write_f64`], byte for byte what Rust's
//!   `Display` (`format!("{v}")`) prints: the shortest digits that parse
//!   back to the same bits, no exponent, `-0` kept. They are parsed with
//!   `f64::from_str`, which makes a serialize → parse round trip
//!   **bit-exact** for every finite `f64` — the property the protocol's
//!   bit-for-bit scoring guarantee rests on;
//! * parsing enforces a nesting-depth limit and rejects trailing garbage.
//!
//! Non-finite numbers (`NaN`, `±inf`) have no JSON representation and
//! serialize as `null`, mirroring what mainstream encoders do.
//!
//! # The number writer
//!
//! `{}` on an `f64` costs about 100 ns, and a score response holds one
//! number per window, so [`write_f64`] computes the same digits with
//! integer arithmetic, after Ryu (Adams, PLDI 2018). A normal
//! `v = m·2^e` is scaled by `10^q`, `q = 17 − ⌊(e+52)·log₁₀2⌋`, so that
//! `v·10^q` has 18 or 19 integer digits. For `q` in `0..=21` the scaled
//! value and the two ends of its rounding interval fit in a `u128`
//! exactly, so Ryu's 128-bit power-of-five tables are not needed (the 22
//! powers `5^q` fit in a `u64`). The bounds
//! `(4m−gap, 4m, 4m+2)·10^q·2^(e−2)` (`gap` is 1 at a power of two, 2
//! elsewhere) are computed with their exact remainders. Digits are then
//! removed while a shorter number still lies inside the interval (its
//! ends included when `m` is even, as `std` does), and the last one is
//! rounded to the nearest, exact ties **up**: `std`'s rule, not Ryu's
//! round-half-even. The digits go out two at a time from a 200-byte pair
//! table. Everything else (subnormals, `|v| ≲ 1e-4`, `|v| ≳ 1e18`,
//! non-finite values) is handed to `write!(out, "{v}")`, so it matches
//! `std` by construction.
//!
//! # Example
//!
//! ```
//! use s2g_server::json::Json;
//!
//! let value = Json::obj([
//!     ("name", Json::from("turbine")),
//!     ("scores", Json::arr([0.125, 0.25])),
//! ]);
//! let line = value.encode();
//! assert_eq!(line, r#"{"name":"turbine","scores":[0.125,0.25]}"#);
//! let back = Json::parse(&line).unwrap();
//! assert_eq!(back.get("scores").unwrap().as_f64_array().unwrap(), vec![0.125, 0.25]);
//! ```

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A JSON value (see the [module docs](self) for the supported subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite IEEE-754 double.
    Num(f64),
    /// A UTF-8 string.
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object: key/value pairs in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Num(f64::from(v))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// Error produced by [`Json::parse`]: a byte offset and a description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from key/value pairs, preserving their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from anything convertible to [`Json`].
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one exactly.
    /// Accepts the full range a JSON number can carry exactly (up to 2⁵³).
    pub fn as_usize(&self) -> Option<usize> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= MAX_EXACT => Some(*v as usize),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The array payload as `f64`s, if this is an array of numbers.
    pub fn as_f64_array(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(Json::as_f64).collect()
    }

    /// Serializes the value onto one line (no added whitespace).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, rejecting trailing non-whitespace.
    ///
    /// # Errors
    /// [`JsonError`] with the byte offset of the first offending character.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Appends `v` exactly as `format!("{v}")` would: the shortest decimal
/// that parses back to the same bits, in `Display` layout (no exponent,
/// `-0` for negative zero). See the [module docs](self) for the method.
///
/// ```
/// let mut out = String::new();
/// for v in [0.1, -0.0, 1e21, 0.30000000000000004] {
///     s2g_server::json::write_f64(v, &mut out);
///     out.push(' ');
/// }
/// assert_eq!(out, "0.1 -0 1000000000000000000000 0.30000000000000004 ");
/// ```
pub fn write_f64(v: f64, out: &mut String) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 && fraction == 0 {
        out.push_str(if negative { "-0" } else { "0" });
        return;
    }
    // v = m·2^e; v·10^q lands in [10^17, 2.1·10^18). The shift floors,
    // and 78913/2^18 is log₁₀2 closely enough for |e + 52| < 1650.
    let e = biased - 1075;
    let q = 17 - (((e + 52) * 78913) >> 18);
    if biased == 0 || biased == 0x7ff || !(0..=21).contains(&q) {
        let _ = write!(out, "{v}");
        return;
    }
    let m = fraction | (1 << 52);
    // The rounding interval's ends are half-way to the neighbours; below a
    // power of two the neighbour is twice as close. `std` keeps the ends
    // when the mantissa is even (round-half-even parsing maps them back).
    let inclusive = m & 1 == 0;
    let lower_gap: u128 = if fraction == 0 { 1 } else { 2 };
    // (4m, 4m+2, 4m−gap)·10^q·2^(e−2) = (…)·5^q·2^(q+e−2) as floors, with
    // exactness flags. Products stay below 2^55·5^21 < 2^104, floors below
    // 2^64.
    let pow5 = u128::from(POW5[q as usize]);
    let nr = u128::from(4 * m) * pow5;
    let (np, nm) = (nr + 2 * pow5, nr - lower_gap * pow5);
    let shift = q + e - 2;
    let (mut vr, mut vp, mut vm, vp_exact, vm_exact) = if shift >= 0 {
        let s = shift;
        (
            (nr << s) as u64,
            (np << s) as u64,
            (nm << s) as u64,
            true,
            true,
        )
    } else {
        let s = -shift;
        let mask = (1 << s) - 1;
        let (r, p, m) = ((nr >> s) as u64, (np >> s) as u64, (nm >> s) as u64);
        (r, p, m, np & mask == 0, nm & mask == 0)
    };
    // An excluded upper end is not a candidate; an included, exact lower
    // end is, as long as every digit removed from it was a zero.
    vp -= u64::from(vp_exact && !inclusive);
    let mut vm_is_candidate = vm_exact && inclusive;
    let mut removed = 0i32;
    let mut last = 0;
    // The interval is at least 16 units wide, so at least one digit goes
    // and `last` is a rounding digit: the fraction of v·10^q below it can
    // never turn a 4 into a 5, so `last >= 5` means exactly "≥ half".
    if !vm_is_candidate {
        // Two digits a step while a number two digits shorter still fits.
        while vp / 100 > vm / 100 {
            last = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
    }
    while vp / 10 > vm / 10 {
        vm_is_candidate &= vm % 10 == 0;
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_is_candidate {
        while vm % 10 == 0 {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    let mut digits = vr + u64::from((vr == vm && !vm_is_candidate) || last >= 5);
    while digits % 10 == 0 {
        digits /= 10;
        removed += 1;
    }

    // The digits, right-aligned: 8-digit chunks in u32, two digits a step.
    let mut text = [0u8; 20];
    let mut start = text.len();
    let mut put_pairs = |mut chunk: u32, steps: usize| {
        for _ in 0..steps {
            let pair = 2 * (chunk % 100) as usize;
            chunk /= 100;
            start -= 2;
            text[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        chunk
    };
    while digits >= 100_000_000 {
        put_pairs((digits % 100_000_000) as u32, 4);
        digits /= 100_000_000;
    }
    let mut rest = digits as u32;
    while rest >= 10 {
        rest = put_pairs(rest, 1);
    }
    if rest > 0 {
        start -= 1;
        text[start] = b'0' + rest as u8;
    }
    let text = &text[start..];

    // digits·10^(removed − q), laid out as `Display` does.
    let point = text.len() as i32 + removed - q;
    let mut buf = [0u8; 32];
    let mut len = 0;
    let mut put = |bytes: &[u8]| {
        buf[len..len + bytes.len()].copy_from_slice(bytes);
        len += bytes.len();
    };
    if negative {
        put(b"-");
    }
    if point <= 0 {
        put(b"0.");
        for _ in point..0 {
            put(b"0");
        }
        put(text);
    } else if (point as usize) < text.len() {
        let (whole, decimals) = text.split_at(point as usize);
        put(whole);
        put(b".");
        put(decimals);
    } else {
        put(text);
        for _ in text.len()..point as usize {
            put(b"0");
        }
    }
    out.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII digits"));
}

/// `5^0 … 5^21`, the fast path's scale factors.
const POW5: [u64; 22] = {
    let mut pow = [1u64; 22];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1] * 5;
        i += 1;
    }
    pow
};

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends a JSON number: [`write_f64`] for finite values, `null` otherwise.
fn write_number(v: f64, out: &mut String) {
    if v.is_finite() {
        write_f64(v, out);
    } else {
        out.push_str("null");
    }
}

/// Appends `values` as a JSON array, exactly as
/// `Json::arr(values.iter().copied()).encode()` would, without building
/// the [`Json`] tree.
pub(crate) fn write_f64_array(values: &[f64], out: &mut String) {
    out.push('[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(v, out);
    }
    out.push(']');
}

fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-UTF-8 number"))?;
        let value: f64 = text
            .parse()
            .map_err(|_| self.error(format!("invalid number {text:?}")))?;
        if !value.is_finite() {
            return Err(self.error(format!("non-finite number {text:?}")));
        }
        Ok(Json::Num(value))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-UTF-8 \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are rejected (the protocol never
                            // emits them); BMP scalars only.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("invalid \\u scalar"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, however many bytes it spans.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("non-UTF-8 string content"))?;
                    let c = rest.chars().next().ok_or_else(|| self.error("empty"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        let values = [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            1e-300,
            0.1 + 0.2,
            std::f64::consts::PI,
        ];
        for v in values {
            let encoded = Json::Num(v).encode();
            let parsed = Json::parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "round-trip of {v}");
        }
    }

    fn sign(rng: &mut StdRng) -> f64 {
        if rng.gen::<bool>() {
            -1.0
        } else {
            1.0
        }
    }

    /// Values per sampled class: 10⁶, and 2·10⁶ in release builds (where
    /// the five classes pass 10⁷ values).
    const PER_CLASS: usize = if cfg!(debug_assertions) {
        1_000_000
    } else {
        2_000_000
    };

    /// `write_f64(v)` must be `format!("{v}")` byte for byte, and parse
    /// back to `v`'s bits.
    fn check_display(v: f64, out: &mut String) {
        out.clear();
        write_f64(v, out);
        let want = format!("{v}");
        assert_eq!(*out, want, "bits {:#018x}", v.to_bits());
        if v.is_finite() {
            let back: f64 = out.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{out} does not round-trip");
        }
    }

    #[test]
    fn write_f64_matches_display_on_edges_and_ties() {
        let mut out = String::new();
        let pinned = [
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            f64::EPSILON,
            1.0,
            0.1,
            1e-4,
            1.2e-4,
            1e17,
            1e18,
            1.2e18,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in pinned {
            check_display(v, &mut out);
            check_display(-v, &mut out);
        }
        // Exact ties between two shortest candidates: `std` rounds them
        // up, where Ryu's reference code would round to even.
        for bits in [
            0x430f_4004_a194_67ca,
            0x42a6_c198_b02a_0820,
            0x420a_70ef_1f0d_9000,
        ] {
            check_display(f64::from_bits(bits), &mut out);
        }
        assert_eq!(
            {
                out.clear();
                write_f64(f64::from_bits(0x430f_4004_a194_67ca), &mut out);
                out.as_str()
            },
            "1099514114116857.3"
        );
        // Every power of two, ±1 ulp, both signs: the asymmetric interval
        // below a power of two and every exponent's side of the fast-path
        // range edges.
        for biased in 1..=0x7fe_u64 {
            let bits = biased << 52;
            for b in [bits - 1, bits, bits + 1] {
                check_display(f64::from_bits(b), &mut out);
                check_display(-f64::from_bits(b), &mut out);
            }
        }
        // Random mantissas at every exponent, subnormals included.
        let mut rng = StdRng::seed_from_u64(7);
        for biased in 0..=0x7fe_u64 {
            for _ in 0..64 {
                let bits = (biased << 52) | (rng.gen::<u64>() & ((1 << 52) - 1));
                check_display(f64::from_bits(bits), &mut out);
            }
        }
    }

    #[test]
    fn write_f64_matches_display_on_seeded_classes() {
        let mut out = String::new();
        let mut rng = StdRng::seed_from_u64(0x05ee_df64);
        let mut checked = 0;
        while checked < PER_CLASS {
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                check_display(v, &mut out);
                checked += 1;
            }
        }
        for _ in 0..PER_CLASS {
            // Uniform [0, 1): the range every anomaly score lies in.
            let v = (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
            check_display(v, &mut out);
        }
        for _ in 0..PER_CLASS {
            // Short decimals: up to 6 significant digits, scaled by
            // 10^-12..10^5, either sign.
            let digits = rng.gen::<u64>() % 1_000_000;
            let exponent = (rng.gen::<u64>() % 18) as i32 - 12;
            let v: f64 = format!("{digits}e{exponent}").parse().unwrap();
            check_display(sign(&mut rng) * v, &mut out);
        }
        for _ in 0..PER_CLASS {
            // Integers of every magnitude up to 2^64.
            let v = (rng.gen::<u64>() >> (rng.gen::<u64>() % 64)) as f64;
            check_display(sign(&mut rng) * v, &mut out);
        }
        for i in 0..PER_CLASS {
            check_display(i as f64 / 1000.0, &mut out);
        }
    }

    #[test]
    fn arrays_write_like_the_tree_encoder() {
        let values = [0.5, -0.0, f64::NAN, 1e-300, 3.0, f64::INFINITY];
        let mut out = String::new();
        write_f64_array(&values, &mut out);
        assert_eq!(out, Json::arr(values).encode());
        assert!(out.starts_with("[0.5,-0,null,0.000") && out.ends_with("1,3,null]"));
        out.clear();
        write_f64_array(&[], &mut out);
        assert_eq!(out, "[]");
    }

    #[test]
    fn objects_preserve_order_and_nest() {
        let value = Json::obj([
            ("b", Json::from(2.0)),
            ("a", Json::arr([Json::Null, Json::Bool(true)])),
            ("s", Json::from("x\"y\\z\n")),
        ]);
        let line = value.encode();
        assert!(line.starts_with(r#"{"b":2,"#));
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\"}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite must be rejected");
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err(), "depth limit");
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"xs":[1,2.5],"name":"m","neg":-1}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_usize(), None);
        assert_eq!(v.get("xs").unwrap().as_f64_array(), Some(vec![1.0, 2.5]));
        assert_eq!(v.get("name").unwrap().as_str(), Some("m"));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("n").is_none());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\t newline\n quote\" back\\ unicode\u{1F600} ctrl\u{1}";
        let encoded = Json::from(s).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(s));
    }
}
