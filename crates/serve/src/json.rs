//! Minimal, dependency-free JSON value type with a strict parser and a
//! deterministic renderer.
//!
//! The workspace has no serde; this module is the service layer's wire
//! format. Design points:
//!
//! * Objects preserve insertion order (`Vec<(String, Json)>`), so rendering
//!   is deterministic — a requirement for the golden request corpus.
//! * Numbers render via Rust's shortest-round-trip `f64` formatting, so a
//!   dataset column survives a JSON round trip bit for bit.
//! * The parser is recursion-depth-limited and returns positioned errors;
//!   arbitrary junk input can never panic it (property-tested from the
//!   service integration suite).

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (arrays/objects combined).
const MAX_DEPTH: usize = 64;

/// A JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object (`None` for other variants or a missing
    /// key; first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as a non-negative integer (rejects fractions,
    /// negatives and values beyond exact `f64` integer range).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if v.fract() == 0.0 && (0.0..9.0e15).contains(&v) {
            Some(v as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders the value as compact JSON (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// JSON has no NaN/Infinity; non-finite values render as `null` (they only
/// appear in health telemetry, never in dataset columns).
pub(crate) fn write_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // Integral values in exact-i64 range print without a fraction (counters
    // read as integers); everything else uses Rust's shortest
    // round-trip formatting, so `parse(render(v))` reproduces the exact
    // f64 — cached-result responses stay bit-identical to cold ones.
    // `-0.0` keeps its sign via the `{:?}` path.
    if v.fract() == 0.0 && v.abs() < 9.0e15 && !(v == 0.0 && v.is_sign_negative()) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// Appends `s` as a quoted JSON string.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
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

/// Parses one JSON document. Trailing non-whitespace is an error.
///
/// # Errors
/// Returns a human-readable message with the byte offset of the problem.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
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

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let v: f64 = text
            .parse()
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
        if !v.is_finite() {
            return Err(format!("number out of range at byte {start}"));
        }
        Ok(Json::Num(v))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape `{hex}`"))?;
                            // Lone surrogates map to the replacement char
                            // (never panic on junk input).
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next quote,
                    // backslash or control byte in one step. Those stop bytes
                    // are ASCII, so the run ends on a character boundary of
                    // the (already valid UTF-8) input.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let src =
            r#"{"cmd":"submit","deck":"V1 in 0 DC 1\n","n":3,"ok":true,"xs":[1.5,-2e-3,null]}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("submit"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 6.02214076e23, -1e-300, f64::MIN_POSITIVE] {
            let rendered = Json::Num(v).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{rendered}");
        }
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for junk in [
            "",
            "{",
            "}",
            "nul",
            "\"",
            "{\"a\"}",
            "[1,]",
            "[1 2]",
            "1e999",
            "{\"a\":}",
            "\u{7f}zz",
            "\"\\u12\"",
            "--3",
        ] {
            assert!(parse(junk).is_err(), "should reject {junk:?}");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn long_strings_with_multibyte_text_and_every_escape_parse_exactly() {
        // Build the expected value and its JSON spelling side by side:
        // plain ASCII, 2/3/4-byte UTF-8, every short escape and `\u`
        // escapes (BMP, control, lone surrogate -> U+FFFD).
        let pieces: [(&str, &str); 14] = [
            ("plain ascii text ", "plain ascii text "),
            ("é", "é"),
            ("€", "€"),
            ("😀", "😀"),
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("/", "\\/"),
            ("\u{8}", "\\b"),
            ("\u{c}", "\\f"),
            ("\n", "\\n"),
            ("\r", "\\r"),
            ("\t", "\\t"),
            ("é\u{1}", "\\u00e9\\u0001"),
            ("\u{fffd}", "\\ud800"),
        ];
        let (mut want, mut text) = (String::new(), String::from("\""));
        let mut k = 0;
        while text.len() < 70_000 {
            let (value, spelled) = pieces[k % pieces.len()];
            want.push_str(value);
            text.push_str(spelled);
            k += 1;
        }
        text.push('"');
        assert_eq!(parse(&text).unwrap(), Json::Str(want.clone()));
        // Rendering and parsing again reproduces the value.
        let v = Json::Obj(vec![("deck".to_string(), Json::Str(want))]);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn string_errors_keep_their_messages_and_byte_offsets() {
        let cases: [(&str, &str); 10] = [
            ("\"ab\u{1}\"", "raw control character at byte 3"),
            ("\"ééé\n\"", "raw control character at byte 7"),
            ("[\"a\", \"€\u{1f}\"]", "raw control character at byte 10"),
            ("\"a\\x\"", "invalid escape at byte 3"),
            ("\"é\\\"", "unterminated string"),
            ("\"abc", "unterminated string"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"\\uzzzz\"", "invalid \\u escape `zzzz`"),
            ("\"\\u00é\"", "invalid \\u escape `00é`"),
            ("\"\\u00😀\"", "non-ascii \\u escape"),
        ];
        for (text, message) in cases {
            assert_eq!(parse(text), Err(message.to_string()), "{text:?}");
        }
        // A `\u` escape with a sign is accepted, as before.
        assert_eq!(parse("\"\\u+041\"").unwrap(), Json::str("A"));
    }

    #[test]
    fn escapes_render_safely() {
        let v = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }
}
