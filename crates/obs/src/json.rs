//! The workspace's one JSON value tree: rendering and parsing.
//!
//! The workspace's serde dependency is a vendored marker-trait stub (the
//! container builds offline), so every JSON document — `muzzle` reports,
//! the `BENCH.json` snapshot, the Chrome-trace exports of this crate — is
//! rendered by hand through this module: RFC 8259 output, stable key
//! order, two-space indent, integral numbers printed without a fraction.
//! [`parse`] reads any RFC 8259 document back into the same value model
//! (Rust's shortest-roundtrip float formatting makes render-then-parse
//! bit-exact), which is what `muzzle diff` and the `muzzle
//! snapshot` gate walk.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Integer value (exact for |n| ≤ 2⁵³).
    pub fn int(n: usize) -> Json {
        Json::Num(n as f64)
    }

    /// This object extended with one more `(key, value)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with_field(self, key: &str, value: Json) -> Json {
        match self {
            Json::Obj(mut pairs) => {
                pairs.push((key.to_owned(), value));
                Json::Obj(pairs)
            }
            _ => panic!("with_field requires an object"),
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub(crate) fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let inner_pad = "  ".repeat(indent + 1);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::Str(s) => escape(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&inner_pad);
                render(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                out.push_str(&inner_pad);
                escape(k, out);
                out.push_str(": ");
                render(v, indent + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        render(self, 0, &mut out);
        f.write_str(&out)
    }
}

/// Parses an RFC 8259 document into a [`Json`] value.
///
/// Hand-written recursive descent (no serde in this workspace): objects
/// keep key order, numbers parse through `f64::from_str` (so values this
/// module rendered round-trip bit-for-bit), strings handle the standard
/// escapes including `\uXXXX` surrogate pairs.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error,
/// including trailing garbage after the document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

/// `value` with every object entry whose key satisfies `drop` removed,
/// recursively — how the `muzzle snapshot` gate strips wall-clock
/// fields before asserting two snapshots bit-for-bit equal.
pub fn strip_keys(value: &Json, drop: &dyn Fn(&str) -> bool) -> Json {
    match value {
        Json::Arr(items) => Json::Arr(items.iter().map(|v| strip_keys(v, drop)).collect()),
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !drop(k))
                .map(|(k, v)| (k.clone(), strip_keys(v, drop)))
                .collect(),
        ),
        other => other.clone(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(format!("lone surrogate at byte {}", self.pos));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad escape at byte {}", self.pos))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a valid &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let c = rest.chars().next().expect("non-empty remainder");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads the 4 hex digits after `\u`; leaves `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            self.pos += 1;
            let d = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(format!("bad \\u escape at byte {}", self.pos)),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_integers_without_fraction_and_floats_verbatim() {
        let v = Json::obj(vec![
            ("shuttles", Json::int(42)),
            ("makespan_us", Json::Num(220800.0)),
            ("ratio", Json::Num(0.5)),
            ("ok", Json::Bool(true)),
        ]);
        let text = v.to_string();
        assert!(text.contains("\"shuttles\": 42"));
        assert!(text.contains("\"makespan_us\": 220800"));
        assert!(text.contains("\"ratio\": 0.5"));
        assert!(text.contains("\"ok\": true"));
    }

    #[test]
    fn escapes_strings_and_nulls_non_finite() {
        assert_eq!(Json::str("a\"b\\c").to_string(), r#""a\"b\\c""#);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parse_round_trips_rendered_snapshots_bit_for_bit() {
        let v = Json::obj(vec![
            ("name", Json::str("QAOA")),
            ("makespan_us", Json::Num(220800.0)),
            ("fidelity", Json::Num(2.538297576903837e-13)),
            ("delta_percent", Json::Num(28.405017921146955)),
            ("improved", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![Json::int(1), Json::Num(-0.5), Json::Num(1e-300)]),
            ),
            ("empty_obj", Json::obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        assert_eq!(
            parse(r#""a\"b\\c\ndA😀""#).unwrap(),
            Json::str("a\"b\\c\ndA\u{1F600}")
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00A\"").unwrap(),
            Json::str("\u{1F600}A"),
            "surrogate pair"
        );
        assert!(parse(r#""\ud83d alone""#).is_err(), "lone surrogate");
        assert_eq!(parse(" 42 ").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e-3").unwrap(), Json::Num(-0.0015));
        assert!(parse("").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("12 34").is_err(), "trailing garbage");
        assert!(parse("\"open").is_err(), "unterminated string");
        assert!(parse("nul").is_err());
    }

    #[test]
    fn strip_keys_removes_matching_entries_recursively() {
        let v = Json::obj(vec![
            ("keep", Json::int(1)),
            ("profile", Json::obj(vec![("x", Json::int(2))])),
            (
                "nested",
                Json::Arr(vec![Json::obj(vec![
                    ("compile_seconds_full", Json::Num(0.5)),
                    ("shuttles", Json::int(3)),
                ])]),
            ),
        ]);
        let stripped = strip_keys(&v, &|k| k == "profile" || k.starts_with("compile_seconds"));
        assert_eq!(
            stripped,
            Json::obj(vec![
                ("keep", Json::int(1)),
                (
                    "nested",
                    Json::Arr(vec![Json::obj(vec![("shuttles", Json::int(3))])]),
                ),
            ])
        );
    }
}
