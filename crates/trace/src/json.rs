//! The workspace's one JSON codec: the [`Json`] value type, one strict
//! parser ([`parse`]), and the string escaper every report writer uses
//! ([`escape`]). The build is fully offline, so this stands in for an
//! external JSON crate.
//!
//! The parser follows RFC 8259 strictly: numbers must match its grammar
//! (no leading zeros, no bare `.5`), strings may not hold raw control
//! bytes, `\uXXXX` escapes decode (a surrogate pair to one character, a
//! lone surrogate is an error), and nothing may follow the document.
//! Nesting deeper than 256 values is an error rather than a deeper
//! recursion. It never panics: every failure is an `Err` naming the byte
//! offset it was found at.

use std::fmt;

/// Values nested deeper than this are rejected, which bounds the
/// parser's stack on hostile input.
const MAX_DEPTH: usize = 256;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, kept as its literal text: rendering gives the same
    /// bytes back, and [`Json::as_int`] reads integer-ness off the text.
    Num(String),
    /// A string, fully unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's members in document order; a repeated key is kept.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object; the last one if `key` repeats.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer a number spells, if its text has no `.`, `e` or `E`
    /// and fits an `i64`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Num(text) if !text.contains(['.', 'e', 'E']) => text.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v.to_string())
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v.to_string())
    }
}

/// Four decimals, the precision the workspace's reports print ratios
/// with. JSON has no NaN or infinity, so those become `null`.
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v:.4}"))
        } else {
            Json::Null
        }
    }
}

/// One line, with `", "` and `": "` separators: the layout of every row
/// in the `BENCH_*.json` reports.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(text) => f.write_str(text),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "\"{}\": {value}", escape(key))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (without the
/// surrounding double quotes): `"`, `\`, `\n`, `\r` and `\t` get their
/// short escapes, other control characters `\u00XX`.
#[inline]
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
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
    out
}

/// `s` as a JSON string literal, double quotes included.
pub(crate) fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Parses one JSON document.
///
/// # Errors
///
/// Describes the first violation and the byte offset it was found at.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(1)?;
    p.end()?;
    Ok(value)
}

/// Validates that `text` is a well-formed Chrome trace-event JSON
/// document: a JSON object whose `traceEvents` member is an array of
/// objects, each carrying a `"ph"` (phase) member. Returns the number of
/// trace events.
///
/// Each event is parsed as its own small value and dropped, so memory
/// stays at one event however long the trace is.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax or structure
/// violation.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let mut p = Parser { text, pos: 0 };
    p.ws();
    if p.peek() != Some(b'{') {
        return Err(p.err("top level is not a JSON object"));
    }
    let mut events = None;
    p.members(|p, key| {
        if key != "traceEvents" {
            return p.value(2).map(drop);
        }
        let mut n = 0;
        p.elements(|p| {
            p.ws();
            let at = p.pos;
            match p.value(3)? {
                Json::Object(m) if m.iter().any(|(k, _)| k == "ph") => {
                    n += 1;
                    Ok(())
                }
                Json::Object(_) => Err(format!("trace event at byte {at} lacks \"ph\"")),
                _ => Err(format!("trace event at byte {at} is not an object")),
            }
        })?;
        events = Some(n);
        Ok(())
    })?;
    p.end()?;
    events.ok_or_else(|| "top-level object lacks \"traceEvents\"".to_string())
}

struct Parser<'a> {
    text: &'a str,
    /// Always on a char boundary: it only steps over ASCII bytes and
    /// whole runs of string content.
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: impl fmt::Display) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing data"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(|p, key| {
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(|p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err(match self.text[self.pos..].chars().next() {
                Some(c) => format!("unexpected {c:?}"),
                None => "unexpected end of input".to_string(),
            })),
        }
    }

    /// Walks an object, handing each key to `member`, which must consume
    /// the member's value.
    fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.eat(b':')?;
            member(self, key)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Walks an array, calling `element` to consume each element.
    fn elements(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// Skips ASCII digits; whether there was at least one.
    fn digits(&mut self) -> bool {
        let from = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > from
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a non-zero leading digit.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return Err(self.err("leading zero"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("bad number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.err("bad fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("bad exponent"));
            }
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the run ends on a char
            // boundary.
            let Some(run) = self
                .rest()
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escaped()?);
                }
                _ => return Err(self.err("raw control byte in string")),
            }
        }
    }

    /// The character an escape sequence stands for, the backslash
    /// already consumed.
    fn escaped(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let unit = self.hex4()?;
                let code = match unit {
                    0xD800..=0xDBFF if self.rest().starts_with(b"\\u") => {
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..=0xDFFF).contains(&low) {
                            return Err(self.err("lone surrogate"));
                        }
                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    _ => unit,
                };
                char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))?
            }
            other => return Err(self.err(format!("bad escape {:?}", other as char))),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut unit = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            unit = unit * 16 + digit;
            self.pos += 1;
        }
        Ok(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn escape_covers_every_special_and_passes_the_rest() {
        assert_eq!(
            escape("line1\nline2\t\"quoted\" \\ end\r\u{1}"),
            "line1\\nline2\\t\\\"quoted\\\" \\\\ end\\r\\u0001"
        );
        assert_eq!(escape("jé héllo ☃"), "jé héllo ☃");
        let doc = format!(
            "{{\"traceEvents\": [], \"s\": \"{}\"}}",
            escape("\u{0}\u{1f}\"\\/")
        );
        validate_chrome_trace(&doc).unwrap();
    }

    #[test]
    fn accepts_minimal_trace() {
        let n = validate_chrome_trace(
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 0, "dur": 2, "pid": 1, "tid": 1, "args": {}}]}"#,
        )
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn accepts_empty_trace() {
        assert_eq!(validate_chrome_trace(r#"{"traceEvents": []}"#), Ok(0));
    }

    #[test]
    fn rejects_missing_trace_events() {
        assert!(validate_chrome_trace(r#"{"other": []}"#).is_err());
    }

    #[test]
    fn rejects_event_without_phase() {
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"name": "a"}]}"#).is_err());
    }

    #[test]
    fn rejects_non_object_event() {
        assert!(validate_chrome_trace(r#"{"traceEvents": [1]}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": {"ph": "X"}}"#).is_err());
    }

    #[test]
    fn rejects_syntax_errors() {
        for bad in [
            "",
            "[",
            "{",
            r#"{"traceEvents": [}"#,
            r#"{"traceEvents": []"#,
            r#"{"traceEvents": []} trailing"#,
            r#"{"traceEvents": [],}"#,
            r#"{"a": 01}"#,
            r#"{"a": "unterminated}"#,
        ] {
            assert!(validate_chrome_trace(bad).is_err(), "accepted: {bad}");
            assert!(parse(bad).is_err(), "parsed: {bad}");
        }
    }

    #[test]
    fn accepts_numbers_and_literals() {
        let doc = r#"{"traceEvents": [], "x": [-1.5e-3, true, false, null, "s"]}"#;
        validate_chrome_trace(doc).unwrap();
        assert_eq!(
            parse(doc).unwrap().get("x"),
            Some(&Json::Array(vec![
                Json::Num("-1.5e-3".into()),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
                Json::Str("s".into()),
            ]))
        );
    }

    #[test]
    fn numbers_keep_their_text_and_only_plain_i64s_are_ints() {
        for (text, int) in [
            ("0", Some(0)),
            ("-0", Some(0)),
            ("-7", Some(-7)),
            ("9223372036854775807", Some(i64::MAX)),
            ("9223372036854775808", None),
            ("2.5", None),
            ("1e3", None),
            ("1E3", None),
            ("0.1000", None),
        ] {
            let v = parse(text).unwrap();
            assert_eq!(v, Json::Num(text.into()));
            assert_eq!(v.as_int(), int, "{text}");
            assert_eq!(v.to_string(), text);
        }
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "0x10", "1.e3", "--1"] {
            assert!(parse(bad).is_err(), "parsed: {bad}");
        }
    }

    #[test]
    fn strings_decode_utf8_escapes_and_surrogate_pairs() {
        let v = parse(r#""jé \u00e9 \ud83d\ude00 \/ \b\f\n\r\t \" \\""#).unwrap();
        assert_eq!(v.as_str(), Some("jé é 😀 / \u{8}\u{c}\n\r\t \" \\"));
        for bad in [
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\u0041""#,
            r#""\udc00""#,
            r#""\u12""#,
            r#""\x""#,
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"unterminated\\",
        ] {
            assert!(parse(bad).is_err(), "parsed: {bad}");
        }
    }

    #[test]
    fn objects_keep_order_and_the_last_duplicate_wins() {
        let v = parse(r#"{"b": 1, "a": [true, {}], "b": "two"}"#).unwrap();
        let Json::Object(members) = &v else {
            panic!("not an object: {v:?}")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "b"]);
        assert_eq!(v.get("b").and_then(Json::as_str), Some("two"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.to_string(), r#"{"b": 1, "a": [true, {}], "b": "two"}"#);
    }

    #[test]
    fn depth_is_capped() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn errors_name_the_byte_offset() {
        assert_eq!(parse("[1, 2,]").unwrap_err(), "unexpected ']' at byte 6");
        assert_eq!(parse("{} x").unwrap_err(), "trailing data at byte 3");
        assert_eq!(parse(r#"{"a" 1}"#).unwrap_err(), "expected `:` at byte 5");
    }

    #[test]
    fn conversions_render_like_the_reports() {
        assert_eq!(Json::from(1.5).to_string(), "1.5000");
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(7usize).to_string(), "7");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from("a\"b").to_string(), r#""a\"b""#);
    }
}
