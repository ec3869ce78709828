//! The line-oriented JSON job protocol.
//!
//! Every request is **one line**: a flat JSON object with scalar values
//! only. Two fields are mandatory — `id` (any string, echoed on every
//! reply) and `kind` (which job to run) — and three are interpreted by
//! the server itself: `priority` (`"high"`/`"normal"`/`"low"`, default
//! normal), `deadline_ms` (wall-clock queue-wait budget), and `chaos`
//! (fault-injection directive for chaos testing). Everything else is
//! passed through to the [`JobRunner`](crate::server::JobRunner)
//! untouched.
//!
//! Every reply is also one line, and **every accepted job gets exactly
//! one terminal reply**:
//!
//! ```text
//! {"id":"j1","status":"ok","attempts":1,"result":"<escaped JSON report>"}
//! {"id":"j2","status":"error","code":"watchdog","message":"..."}
//! {"id":"j3","status":"shed","code":"overloaded","message":"..."}
//! {"id":"j4","status":"draining","code":"draining","message":"..."}
//! ```
//!
//! The `result` field is the *exact* byte string the equivalent CLI
//! invocation would print, JSON-escaped — which is what makes
//! served-vs-direct byte-identity checkable at all.
//!
//! Malformed input never panics and never kills the connection: each
//! bad line yields one `status:"error"` reply with a stable
//! machine-readable code from [`RequestError::code`], and the reader
//! moves on to the next line.

use std::collections::BTreeMap;
use std::fmt;

use codesign_trace::json::escape;

/// A scalar JSON value — the only value shape requests may carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A (fully unescaped) string.
    Str(String),
    /// An integer (no decimal point or exponent in the source).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Job priority: three classes, strict precedence at dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else.
    High = 0,
    /// The default class.
    Normal = 1,
    /// Served only when nothing else waits.
    Low = 2,
}

impl Priority {
    /// All classes, highest first (dequeue order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// The wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// One parsed job request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed verbatim on the reply.
    pub id: String,
    /// Which job to run (`"cosim"`, `"explore"`, ... — the runner's
    /// registry decides what exists).
    pub kind: String,
    /// Queue class.
    pub priority: Priority,
    /// Wall-clock budget for *queue wait*, in milliseconds. A job still
    /// queued past its deadline is failed with code `deadline`, never
    /// run. `None` = wait forever.
    pub deadline_ms: Option<u64>,
    /// Chaos directive (`"panic"`, `"stall"`, `"transient:K"`) — honored
    /// by runners built for chaos testing, rejected by none.
    pub chaos: Option<String>,
    /// Every remaining field, passed through to the runner.
    pub params: BTreeMap<String, Value>,
}

/// Why a request line was rejected. [`RequestError::code`] is the
/// stable wire identity of each case; tests pin the codes.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not syntactically valid JSON.
    BadJson {
        /// What the parser choked on.
        detail: String,
    },
    /// The line parsed but is not a JSON object.
    NotObject,
    /// A value was an array or nested object (the protocol is flat).
    UnsupportedValue {
        /// The offending key.
        key: String,
    },
    /// A mandatory field (`id`, `kind`) is absent.
    MissingField {
        /// The absent field.
        field: &'static str,
    },
    /// A server-interpreted field has the wrong type or range.
    BadField {
        /// The offending field.
        field: String,
        /// What was wrong with it.
        detail: String,
    },
    /// `priority` is not `high`/`normal`/`low`.
    BadPriority {
        /// The value that was sent.
        got: String,
    },
}

impl RequestError {
    /// The stable machine-readable code sent in the error reply.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::BadJson { .. } => "bad_json",
            RequestError::NotObject => "not_object",
            RequestError::UnsupportedValue { .. } => "unsupported_value",
            RequestError::MissingField { .. } => "missing_field",
            RequestError::BadField { .. } => "bad_field",
            RequestError::BadPriority { .. } => "bad_priority",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::BadJson { detail } => write!(f, "malformed JSON: {detail}"),
            RequestError::NotObject => write!(f, "request must be a JSON object"),
            RequestError::UnsupportedValue { key } => {
                write!(f, "field `{key}` is an array or object; requests are flat")
            }
            RequestError::MissingField { field } => {
                write!(f, "missing required field `{field}`")
            }
            RequestError::BadField { field, detail } => {
                write!(f, "bad field `{field}`: {detail}")
            }
            RequestError::BadPriority { got } => {
                write!(f, "bad priority `{got}` (high|normal|low)")
            }
        }
    }
}

impl std::error::Error for RequestError {}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: impl Into<String>) -> RequestError {
        RequestError::BadJson {
            detail: format!("{} at byte {}", what.into(), self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), RequestError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, RequestError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected, not paired: the
                            // protocol's payloads are reports this
                            // workspace rendered, all BMP-or-escaped.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole character.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_scalar(&mut self, key: &str) -> Result<Value, RequestError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'{' | b'[') => Err(RequestError::UnsupportedValue {
                key: key.to_string(),
            }),
            Some(b't') => self.parse_word("true", Value::Bool(true)),
            Some(b'f') => self.parse_word("false", Value::Bool(false)),
            Some(b'n') => self.parse_word("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.err(format!("unexpected `{}`", other as char))),
            None => Err(self.err("unexpected end of line")),
        }
    }

    fn parse_word(&mut self, word: &str, value: Value) -> Result<Value, RequestError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, RequestError> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        }
    }

    /// Parses the whole line as a flat object.
    fn parse_object(&mut self) -> Result<BTreeMap<String, Value>, RequestError> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            // Distinguish "valid JSON, wrong shape" (array/scalar →
            // `not_object`) from line noise (→ `bad_json`).
            return match self.peek() {
                Some(b'[') => Err(RequestError::NotObject),
                Some(_) => match self.parse_scalar("") {
                    Ok(_) if self.pos == self.bytes.len() => Err(RequestError::NotObject),
                    Ok(_) => Err(self.err("trailing characters")),
                    Err(RequestError::BadJson { detail }) => Err(RequestError::BadJson { detail }),
                    Err(_) => Err(RequestError::NotObject),
                },
                None => Err(self.err("empty line")),
            };
        }
        self.pos += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.parse_scalar(&key)?;
                map.insert(key, value);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.err("expected `,` or `}`")),
                }
            }
        }
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after object"));
        }
        Ok(map)
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses one request line. Never panics, whatever the input.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let mut map = Parser::new(line).parse_object()?;
    let take_str = |map: &mut BTreeMap<String, Value>,
                    field: &'static str|
     -> Result<Option<String>, RequestError> {
        match map.remove(field) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(other) => Err(RequestError::BadField {
                field: field.to_string(),
                detail: format!("expected a string, got {other:?}"),
            }),
        }
    };
    let id = take_str(&mut map, "id")?.ok_or(RequestError::MissingField { field: "id" })?;
    let kind = take_str(&mut map, "kind")?.ok_or(RequestError::MissingField { field: "kind" })?;
    let priority = match take_str(&mut map, "priority")? {
        None => Priority::Normal,
        Some(p) => Priority::parse(&p).ok_or(RequestError::BadPriority { got: p })?,
    };
    let deadline_ms = match map.remove("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(Value::Int(n)) if n >= 0 => Some(n as u64),
        Some(other) => {
            return Err(RequestError::BadField {
                field: "deadline_ms".to_string(),
                detail: format!("expected a non-negative integer, got {other:?}"),
            })
        }
    };
    let chaos = take_str(&mut map, "chaos")?;
    Ok(Request {
        id,
        kind,
        priority,
        deadline_ms,
        chaos,
        params: map,
    })
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// Renders the terminal `ok` reply. `result` is embedded as an escaped
/// JSON string so multi-line reports survive the line protocol, and
/// `attempts` says how many runs (1 = no retries) it took.
#[must_use]
pub fn reply_ok(id: &str, attempts: u32, result: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"ok\",\"attempts\":{attempts},\"result\":\"{}\"}}",
        escape(id),
        escape(result)
    )
}

/// Renders a terminal `error` reply with a stable machine code.
#[must_use]
pub fn reply_error(id: Option<&str>, code: &str, message: &str) -> String {
    let id = match id {
        Some(id) => format!("\"{}\"", escape(id)),
        None => "null".to_string(),
    };
    format!(
        "{{\"id\":{id},\"status\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
        escape(code),
        escape(message)
    )
}

/// Renders the load-shed reply: the queue was full and the job was
/// **not** accepted. Explicit, never silent.
#[must_use]
pub fn reply_shed(id: &str, queued: usize, cap: usize) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"shed\",\"code\":\"overloaded\",\
         \"message\":\"queue full ({queued}/{cap}); resubmit later\"}}",
        escape(id)
    )
}

/// Renders the drain rejection: the server is shutting down. Sent both
/// for new submissions during drain and for queued-but-unstarted jobs
/// flushed by the drain itself.
#[must_use]
pub fn reply_draining(id: &str) -> String {
    format!(
        "{{\"id\":\"{}\",\"status\":\"draining\",\"code\":\"draining\",\
         \"message\":\"server is draining; job not run\"}}",
        escape(id)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id":"j1","kind":"cosim","priority":"high","deadline_ms":500,"chaos":"panic","spec":"sys demo\n","budget":3,"sharing":true}"#,
        )
        .unwrap();
        assert_eq!(r.id, "j1");
        assert_eq!(r.kind, "cosim");
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.chaos.as_deref(), Some("panic"));
        assert_eq!(r.params["spec"].as_str(), Some("sys demo\n"));
        assert_eq!(r.params["budget"].as_int(), Some(3));
        assert_eq!(r.params["sharing"].as_bool(), Some(true));
    }

    #[test]
    fn defaults_are_normal_priority_no_deadline() {
        let r = parse_request(r#"{"id":"a","kind":"faults"}"#).unwrap();
        assert_eq!(r.priority, Priority::Normal);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.chaos, None);
        assert!(r.params.is_empty());
    }

    #[test]
    fn every_malformed_shape_gets_its_own_code() {
        let cases: [(&str, &str); 8] = [
            ("not json at all", "bad_json"),
            ("{\"id\":\"x\",", "bad_json"),
            ("[1,2,3]", "not_object"),
            (
                r#"{"id":"x","kind":"k","nested":{"a":1}}"#,
                "unsupported_value",
            ),
            (r#"{"kind":"k"}"#, "missing_field"),
            (r#"{"id":"x"}"#, "missing_field"),
            (
                r#"{"id":"x","kind":"k","priority":"urgent"}"#,
                "bad_priority",
            ),
            (r#"{"id":"x","kind":"k","deadline_ms":-4}"#, "bad_field"),
        ];
        for (line, code) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code(), code, "line: {line}, err: {err}");
        }
    }

    /// The parser decodes everything the shared escaper encodes.
    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ end\u{1}";
        let wire = format!(r#"{{"id":"{}","kind":"k"}}"#, escape(original));
        let r = parse_request(&wire).unwrap();
        assert_eq!(r.id, original);
    }

    #[test]
    fn unicode_payloads_survive() {
        let r = parse_request(r#"{"id":"jé","kind":"k","note":"héllo ☃"}"#).unwrap();
        assert_eq!(r.id, "jé");
        assert_eq!(r.params["note"].as_str(), Some("héllo ☃"));
    }

    #[test]
    fn replies_are_single_lines() {
        let replies = [
            reply_ok("a", 2, "{\n  \"x\": 1\n}\n"),
            reply_error(Some("b"), "watchdog", "stalled\nbadly"),
            reply_error(None, "bad_json", "oops"),
            reply_shed("c", 64, 64),
            reply_draining("d"),
        ];
        for r in &replies {
            assert!(!r.contains('\n'), "{r}");
        }
        assert!(replies[0].contains("\\n"));
        assert!(replies[2].contains("\"id\":null"));
    }

    #[test]
    fn numbers_parse_to_the_right_shapes() {
        let r = parse_request(r#"{"id":"x","kind":"k","a":-7,"b":2.5,"c":null}"#).unwrap();
        assert_eq!(r.params["a"].as_int(), Some(-7));
        assert_eq!(r.params["b"], Value::Float(2.5));
        assert_eq!(r.params["c"], Value::Null);
    }
}
