//! The score request body: one comma-separated series per line.
//!
//! Lines are split on `\n` and tokens on `,` by scanning the bytes, and
//! every token is a slice of the body text, so the only allocation per
//! series is its value vector, sized up front from the line's comma
//! count. Values are read with `f64::from_str`, the parser
//! `s2g_timeseries::io` uses for fit and stream bodies, so a value parses
//! to the same bits on every route.

use s2g_timeseries::TimeSeries;

use crate::error::ApiError;

/// Parses a `POST /models/{name}/score` body into one series per line.
///
/// Blank lines and lines starting with `#` are skipped. So is a first line
/// holding a token that is not a number: a header row, which the fit
/// parser tolerates too. Tokens are trimmed, and empty tokens (`1,,2`, a
/// trailing comma) are skipped.
///
/// # Errors
/// `400 invalid_csv` naming the line and the token: an unparseable token
/// past the first line, or a non-finite value (`NaN`, `inf`, an overflowing
/// `1e999`) on any line.
pub(crate) fn parse_score_body(text: &str) -> Result<Vec<TimeSeries>, ApiError> {
    let mut series = Vec::new();
    for (lineno, line) in text.split('\n').enumerate() {
        let line = trim(line);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line(line) {
            Ok(values) => series.push(TimeSeries::from(values)),
            Err(BadToken::Unparseable(_)) if lineno == 0 => continue,
            Err(BadToken::Unparseable(token)) => {
                return Err(invalid_csv(lineno, "unparseable", token));
            }
            Err(BadToken::NonFinite(token)) => {
                return Err(invalid_csv(lineno, "non-finite", token));
            }
        }
    }
    Ok(series)
}

enum BadToken<'a> {
    Unparseable(&'a str),
    NonFinite(&'a str),
}

fn invalid_csv(lineno: usize, what: &str, token: &str) -> ApiError {
    ApiError::new(
        400,
        "invalid_csv",
        format!("line {}: {what} value {token:?}", lineno + 1),
    )
}

/// The values of one non-blank line, stopping at its first bad token.
fn parse_line(line: &str) -> Result<Vec<f64>, BadToken<'_>> {
    let bytes = line.as_bytes();
    let mut values = Vec::with_capacity(commas(bytes) + 1);
    let mut start = 0;
    while start <= bytes.len() {
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b',')
            .map_or(bytes.len(), |i| start + i);
        // Both ends sit on a comma or an end of the line: char boundaries.
        let token = trim(&line[start..end]);
        start = end + 1;
        if token.is_empty() {
            continue;
        }
        match token.parse::<f64>() {
            Ok(value) if value.is_finite() => values.push(value),
            Ok(_) => return Err(BadToken::NonFinite(token)),
            Err(_) => return Err(BadToken::Unparseable(token)),
        }
    }
    Ok(values)
}

/// Commas in `bytes`, summed per 64-byte block so the loop vectorises.
fn commas(bytes: &[u8]) -> usize {
    bytes
        .chunks(64)
        .map(|block| block.iter().map(|&b| u32::from(b == b',')).sum::<u32>() as usize)
        .sum()
}

/// `str::trim`, stripping ASCII whitespace byte by byte and handing only
/// a non-ASCII edge to the Unicode-aware `trim`.
fn trim(s: &str) -> &str {
    let space = |b: &u8| matches!(b, b' ' | b'\t'..=b'\r');
    let bytes = s.as_bytes();
    let start = bytes.iter().position(|b| !space(b)).unwrap_or(bytes.len());
    let end = bytes
        .iter()
        .rposition(|b| !space(b))
        .map_or(start, |i| i + 1);
    let s = &s[start..end];
    match (s.as_bytes().first(), s.as_bytes().last()) {
        (Some(&first), Some(&last)) if first >= 0x80 || last >= 0x80 => s.trim(),
        _ => s,
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// The score-body loop this module replaced, kept as the reference.
    fn reference(text: &str) -> Result<Vec<TimeSeries>, ApiError> {
        fn parse_series_line(line: &str) -> Result<Vec<f64>, String> {
            let mut values = Vec::new();
            for token in line.split(',') {
                let token = token.trim();
                if token.is_empty() {
                    continue;
                }
                match token.parse::<f64>() {
                    Ok(value) => values.push(value),
                    Err(_) => return Err(token.to_string()),
                }
            }
            Ok(values)
        }
        let mut series = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_series_line(line) {
                Ok(values) => series.push(TimeSeries::from(values)),
                Err(_) if lineno == 0 => continue,
                Err(token) => {
                    return Err(ApiError::new(
                        400,
                        "invalid_csv",
                        format!("line {}: unparseable value {token:?}", lineno + 1),
                    ));
                }
            }
        }
        Ok(series)
    }

    fn same(text: &str) {
        let got = parse_score_body(text);
        let want = reference(text);
        match (&got, &want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.len(), want.len(), "series count for {text:?}");
                for (g, w) in got.iter().zip(want) {
                    let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect();
                    let (g, w): (Vec<u64>, Vec<u64>) = (bits(g), bits(w));
                    assert_eq!(g, w, "values for {text:?}");
                }
            }
            (Err(g), Err(w)) => assert_eq!(
                (g.status, g.code, &g.message),
                (w.status, w.code, &w.message),
                "error for {text:?}"
            ),
            _ => panic!("{text:?}: got {got:?}, reference {want:?}"),
        }
    }

    fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
        items[rng.gen_range(0..items.len())]
    }

    #[test]
    fn matches_the_reference_on_hand_picked_bodies() {
        for text in [
            "",
            "\n\n",
            "1,2,3",
            "1,2,3\n4,5\n",
            "value,label\n1,2\n",
            "# comment\n1\n  # indented comment\n2",
            "1,,2\n,3,\n",
            ",\n1\n",
            " 1 , 2 \r\n\t3\t,4\r\n",
            "1\n2,oops\n",
            "oops\n",
            "1,oops\n",
            "\u{a0}1,\u{2003}2\u{a0}\n\u{3000}# wide comment\n",
            "1\u{a0}\u{a0},x\u{a0}\n",
            "-0,+1.5,1e-300,.5,5.,1E3\n",
            "1\r2\n",
            "\u{b}1\u{c},2\n",
        ] {
            same(text);
        }
    }

    #[test]
    fn matches_the_reference_on_a_seeded_corpus() {
        let finite = [
            "0",
            "-0",
            "1",
            "0.5",
            "-2.25",
            "1e-7",
            "3.0E+2",
            "0.30000000000000004",
            "123456789012345678",
            ".5",
            "5.",
            "+4",
        ];
        let bad = ["oops", "1.2.3", "--1", "0x10", "1e", "e5", "é"];
        let spaces = ["", "", " ", "\t", "  ", "\u{a0}", "\u{2003}", "\u{b}"];
        let mut rng = StdRng::seed_from_u64(0xc5f);
        for _ in 0..20_000 {
            let mut text = String::new();
            let lines = rng.gen_range(0..6usize);
            for line in 0..lines {
                match rng.gen_range(0..12u32) {
                    0 => text.push_str("value,label"),
                    1 => text.push_str("# a comment, with commas"),
                    2 => text.push_str(pick(&mut rng, &spaces)),
                    _ => {
                        for t in 0..rng.gen_range(0..8usize) {
                            if t > 0 {
                                text.push(',');
                            }
                            text.push_str(pick(&mut rng, &spaces));
                            // A bad token on a later line is an error, on
                            // the first a header; empty tokens are skipped.
                            match rng.gen_range(0..40u32) {
                                0 => text.push_str(pick(&mut rng, &bad)),
                                1 => {}
                                _ => {
                                    let v = f64::from_bits(rng.gen::<u64>() >> 2);
                                    if rng.gen::<bool>() && v.is_finite() {
                                        text.push_str(&v.to_string());
                                    } else {
                                        text.push_str(pick(&mut rng, &finite));
                                    }
                                }
                            }
                            text.push_str(pick(&mut rng, &spaces));
                        }
                    }
                }
                if line + 1 < lines || rng.gen::<bool>() {
                    text.push_str(if rng.gen_range(0..3u32) == 0 {
                        "\r\n"
                    } else {
                        "\n"
                    });
                }
            }
            same(&text);
        }
    }

    #[test]
    fn non_finite_values_are_rejected_on_every_line() {
        for (text, message) in [
            ("NaN\n", "line 1: non-finite value \"NaN\""),
            ("1,2\n3, inf\n", "line 2: non-finite value \"inf\""),
            (
                "value\n1\n-infinity\n",
                "line 3: non-finite value \"-infinity\"",
            ),
            ("1,1e999\n", "line 1: non-finite value \"1e999\""),
        ] {
            let err = parse_score_body(text).unwrap_err();
            assert_eq!((err.status, err.code), (400, "invalid_csv"));
            assert_eq!(err.message, message);
        }
        // A header token before the non-finite one still marks a header.
        assert_eq!(parse_score_body("value,NaN\n1\n").unwrap().len(), 1);
    }
}
