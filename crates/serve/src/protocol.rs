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
//! moves on to the next line. Lines are parsed by the workspace's one
//! JSON codec, [`codesign_trace::json`].

use std::collections::BTreeMap;
use std::fmt;

use codesign_trace::json::{self, escape, Json};

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
    pub params: BTreeMap<String, Json>,
}

/// Why a request line was rejected. [`RequestError::code`] is the
/// stable wire identity of each case; tests pin the codes.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not syntactically valid JSON (or not UTF-8).
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
    /// The line is longer than the transport accepts; the rest of it
    /// was discarded up to its newline.
    LineTooLong {
        /// The limit, in bytes.
        limit: usize,
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
            RequestError::LineTooLong { .. } => "line_too_long",
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
            RequestError::LineTooLong { limit } => {
                write!(f, "request line longer than {limit} bytes")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Parses one request line. Never panics, whatever the input.
///
/// When several codes apply, the first check that fails names the
/// error: `bad_json` (not JSON), `not_object`, `unsupported_value`
/// (first nested member), then the fields `id`, `kind`, `priority`,
/// `deadline_ms` and `chaos`, in that order. A repeated key keeps its
/// last value.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let members = match json::parse(line) {
        Err(detail) => return Err(RequestError::BadJson { detail }),
        Ok(Json::Object(members)) => members,
        Ok(_) => return Err(RequestError::NotObject),
    };
    if let Some((key, _)) = members
        .iter()
        .find(|(_, v)| matches!(v, Json::Array(_) | Json::Object(_)))
    {
        return Err(RequestError::UnsupportedValue { key: key.clone() });
    }
    let mut map: BTreeMap<String, Json> = members.into_iter().collect();
    let take_str = |map: &mut BTreeMap<String, Json>,
                    field: &'static str|
     -> Result<Option<String>, RequestError> {
        match map.remove(field) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s)),
            Some(other) => Err(RequestError::BadField {
                field: field.to_string(),
                detail: format!("expected a string, got {other}"),
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
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| RequestError::BadField {
                    field: "deadline_ms".to_string(),
                    detail: format!("expected a non-negative integer, got {v}"),
                })?,
        ),
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
    use codesign_trace::hash::splitmix64;
    use codesign_trace::{validate_chrome_trace, Arg, Tracer};

    const FULL_REQUEST: &str = r#"{"id":"j1","kind":"cosim","priority":"high","deadline_ms":500,"chaos":"panic","spec":"sys demo\n","budget":3,"sharing":true}"#;
    const DEFAULT_REQUEST: &str = r#"{"id":"a","kind":"faults"}"#;
    const UNICODE_REQUEST: &str = r#"{"id":"jé","kind":"k","note":"héllo ☃"}"#;
    const NUMBERS_REQUEST: &str = r#"{"id":"x","kind":"k","a":-7,"b":2.5,"c":null}"#;

    /// Every malformed shape and the code it must get.
    const MALFORMED: [(&str, &str); 14] = [
        ("not json at all", "bad_json"),
        ("{\"id\":\"x\",", "bad_json"),
        ("01", "bad_json"),
        ("{\"id\":\"a\u{1}b\",\"kind\":\"k\"}", "bad_json"),
        (r#"{"id":"\ud800","kind":"k"}"#, "bad_json"),
        ("[1,2,", "bad_json"),
        (r#"{"id":"x","kind":"k","n":{"#, "bad_json"),
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
        (
            r#"{"id":"x","kind":"k","deadline_ms":9223372036854775808}"#,
            "bad_field",
        ),
    ];

    fn replies() -> [String; 5] {
        [
            reply_ok("a", 2, "{\n  \"x\": 1\n}\n"),
            reply_error(Some("b"), "watchdog", "stalled\nbadly"),
            reply_error(None, "bad_json", "oops"),
            reply_shed("c", 64, 64),
            reply_draining("d"),
        ]
    }

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(FULL_REQUEST).unwrap();
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
        let r = parse_request(DEFAULT_REQUEST).unwrap();
        assert_eq!(r.priority, Priority::Normal);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.chaos, None);
        assert!(r.params.is_empty());
    }

    #[test]
    fn every_malformed_shape_gets_its_own_code() {
        for (line, code) in MALFORMED {
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
        let r = parse_request(UNICODE_REQUEST).unwrap();
        assert_eq!(r.id, "jé");
        assert_eq!(r.params["note"].as_str(), Some("héllo ☃"));
    }

    #[test]
    fn replies_are_single_lines() {
        let replies = replies();
        for r in &replies {
            assert!(!r.contains('\n'), "{r}");
        }
        assert!(replies[0].contains("\\n"));
        assert!(replies[2].contains("\"id\":null"));
    }

    #[test]
    fn numbers_parse_to_the_right_shapes() {
        let r = parse_request(NUMBERS_REQUEST).unwrap();
        assert_eq!(r.params["a"].as_int(), Some(-7));
        assert_eq!(r.params["b"], Json::Num("2.5".into()));
        assert_eq!(r.params["c"], Json::Null);
    }

    /// Seeded mutations of the documents these tests build (request
    /// lines, every reply shape, a Chrome trace): truncated, bit-flipped,
    /// with bytes inserted and slices of other documents spliced in. No
    /// parser panics, a line is `bad_json` exactly when it is not JSON,
    /// and whatever parses renders back to the same tree.
    #[test]
    fn mutated_documents_never_panic_the_parsers() {
        const ITERATIONS: usize = 20_000;
        const INSERTS: &[u8] = b"{}[]\",:\\u0123456789.-eEtrufalsn \t\n\x01\x7f\xc3\xa9\xff";

        let tracer = Tracer::on();
        let track = tracer.track("cpu \"0\"");
        tracer.span(
            track,
            "run",
            0,
            10,
            &[("n", Arg::U64(3)), ("f", Arg::F64(0.5))],
        );
        tracer.instant(track, "irq\n", 4, &[("s", Arg::Str("a\\b\u{1}".into()))]);
        tracer.counter(track, "depth", 6, 2);
        let trace = tracer.to_chrome_json();
        validate_chrome_trace(&trace).unwrap();

        let mut corpus: Vec<String> = [
            FULL_REQUEST,
            DEFAULT_REQUEST,
            UNICODE_REQUEST,
            NUMBERS_REQUEST,
        ]
        .map(String::from)
        .into_iter()
        .chain(replies())
        .chain([trace])
        .collect();
        for doc in &corpus {
            json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        }
        corpus.extend(MALFORMED.map(|(line, _)| line.to_string()));

        // The splitmix64 stream from a fixed seed, so a failure
        // reproduces: draw n is `splitmix64(seed + n * gamma)`.
        let mut state = 0x5EED_u64;
        let mut below = |bound: usize| -> usize {
            let z = splitmix64(state);
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            (z % bound as u64) as usize
        };
        for _ in 0..ITERATIONS {
            let mut doc = corpus[below(corpus.len())].as_bytes().to_vec();
            for _ in 0..=below(3) {
                match below(4) {
                    0 => doc.truncate(below(doc.len() + 1)),
                    1 if !doc.is_empty() => {
                        let at = below(doc.len());
                        doc[at] ^= 1 << below(8);
                    }
                    2 => {
                        let byte = INSERTS[below(INSERTS.len())];
                        doc.insert(below(doc.len() + 1), byte);
                    }
                    _ => {
                        let other = corpus[below(corpus.len())].as_bytes();
                        let from = below(other.len() + 1);
                        let to = from + below(other.len() - from + 1);
                        let at = below(doc.len() + 1);
                        doc.splice(at..at, other[from..to].iter().copied());
                    }
                }
            }
            let text = String::from_utf8_lossy(&doc);
            let parsed = json::parse(&text);
            let request = parse_request(&text);
            let _ = validate_chrome_trace(&text);
            assert_eq!(
                parsed.is_err(),
                matches!(request, Err(RequestError::BadJson { .. })),
                "{text}"
            );
            if let Ok(tree) = parsed {
                assert_eq!(json::parse(&tree.to_string()), Ok(tree), "{text}");
            }
        }
    }
}
