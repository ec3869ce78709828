//! Minimal JSON support: the workspace's one string escaper, and a
//! strict syntax validator so tests can assert emitted traces are
//! well-formed without an external JSON dependency (the build is fully
//! offline).

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

/// Validates that `text` is a well-formed Chrome trace-event JSON
/// document: a JSON object whose `traceEvents` member is an array of
/// objects, each carrying a `"ph"` (phase) member. Returns the number of
/// trace events.
///
/// This is a strict, dependency-free recursive-descent check meant for
/// tests and tooling, not a general-purpose JSON parser.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax or structure
/// violation.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        events: 0,
        depth: 0,
    };
    p.skip_ws();
    let top = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    match top {
        Value::Object(members) => {
            if !members.iter().any(|m| m == "traceEvents") {
                return Err("top-level object lacks \"traceEvents\"".to_string());
            }
            Ok(p.events)
        }
        _ => Err("top level is not a JSON object".to_string()),
    }
}

/// Parsed shape, only as much as validation needs.
enum Value {
    Object(Vec<String>),
    Array,
    Scalar,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects seen inside the `traceEvents` array.
    events: usize,
    /// Nesting depth, to bound recursion on hostile inputs.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.depth += 1;
        if self.depth > 256 {
            return Err("nesting too deep".to_string());
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| Value::Scalar),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        };
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(Value::Scalar)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.pos += 1;
            }
            p.pos > from
        };
        // Integer part: `0` alone or a non-zero leading digit.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return Err(format!("leading zero at byte {start}"));
                }
            }
            Some(b) if b.is_ascii_digit() => {
                digits(self);
            }
            _ => return Err(format!("bad number at byte {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        Ok(Value::Scalar)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                                    return Err(format!("bad \\u escape at byte {}", self.pos));
                                }
                                self.pos += 1;
                            }
                        }
                        other => {
                            return Err(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchecked;
                    // the input is a Rust &str so it is valid UTF-8.
                    out.push(self.bytes[self.pos] as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let inside_events = key == "traceEvents";
            if inside_events && self.peek() == Some(b'[') {
                self.trace_events_array()?;
            } else {
                self.value()?;
            }
            members.push(key);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array);
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array);
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    /// The `traceEvents` array: every element must be an object with a
    /// `"ph"` member (the Chrome trace-event phase).
    fn trace_events_array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            match self.value()? {
                Value::Object(members) => {
                    if !members.iter().any(|m| m == "ph") {
                        return Err(format!("trace event at byte {at} lacks \"ph\""));
                    }
                    self.events += 1;
                }
                _ => return Err(format!("trace event at byte {at} is not an object")),
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
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
        }
    }

    #[test]
    fn accepts_numbers_and_literals() {
        let doc = r#"{"traceEvents": [], "x": [-1.5e-3, true, false, null, "s"]}"#;
        validate_chrome_trace(doc).unwrap();
    }
}
