//! # codesign-trace
//!
//! The unified tracing/metrics layer for the co-design simulation stack.
//!
//! The paper's central co-simulation claim (Section 3.1, Figure 3) is a
//! speed/accuracy trade across interface abstraction levels; validating a
//! reproduction of it requires seeing *where* cycles and kernel events
//! go, not just end totals. A [`Tracer`] records span, instant, and
//! counter events from any simulator in the stack — coordinator rounds,
//! message transfers, bus transactions, ISS progress — and writes them as
//! Chrome trace-event JSON loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! Two properties the simulation stack depends on:
//!
//! * **Zero-cost when disabled.** [`Tracer::off`] carries no sink; every
//!   recording method is an early-returning no-op, so instrumented hot
//!   loops pay one branch. Simulation results must be bit-identical with
//!   tracing on or off (the `codesign` integration tests enforce this) —
//!   a tracer observes, never steers.
//! * **Thread-safe and cheaply cloneable.** The sink is behind an
//!   `Arc<Mutex<…>>`, so one tracer can be handed to engines running on
//!   worker threads and to the bus/CPU models they own.
//!
//! Timestamps are plain `u64`s in whatever unit the emitting component
//! counts (simulated cycles for the simulators, microseconds for
//! wall-clock harnesses); each [`TrackId`] is one timeline, so units only
//! need to be consistent *within* a track.
//!
//! Two helpers every layer shares live here too, so each exists once:
//! the FNV-1a content hash ([`hash`]) and the JSON codec ([`json`]: one
//! value type, one strict parser, one string escaper).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub mod hash;
pub mod json;

pub use json::validate_chrome_trace;

/// One timeline in the trace (rendered as a named thread row in
/// `chrome://tracing` / Perfetto). Obtained from [`Tracer::track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(u32);

/// A value attached to an event's `args` map.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Arg {
    fn from(v: u64) -> Self {
        Arg::U64(v)
    }
}

impl From<i64> for Arg {
    fn from(v: i64) -> Self {
        Arg::I64(v)
    }
}

impl From<f64> for Arg {
    fn from(v: f64) -> Self {
        Arg::F64(v)
    }
}

impl From<bool> for Arg {
    fn from(v: bool) -> Self {
        Arg::Bool(v)
    }
}

impl From<&str> for Arg {
    fn from(v: &str) -> Self {
        Arg::Str(v.to_string())
    }
}

impl From<String> for Arg {
    fn from(v: String) -> Self {
        Arg::Str(v)
    }
}

#[derive(Debug, Clone)]
enum Phase {
    /// Complete event (`ph: "X"`): a span with a start and a duration.
    Span { dur: u64 },
    /// Instant event (`ph: "i"`).
    Instant,
    /// Counter sample (`ph: "C"`).
    Counter { value: u64 },
}

#[derive(Debug, Clone)]
struct Event {
    track: TrackId,
    name: String,
    ts: u64,
    phase: Phase,
    args: Vec<(String, Arg)>,
}

#[derive(Debug, Default)]
struct Sink {
    /// Track name → tid, interned in first-use order.
    tracks: BTreeMap<String, u32>,
    events: Vec<Event>,
}

impl Sink {
    fn track(&mut self, name: &str) -> TrackId {
        let next = self.tracks.len() as u32 + 1;
        TrackId(*self.tracks.entry(name.to_string()).or_insert(next))
    }
}

/// A handle onto a shared trace sink — or a no-op when built with
/// [`Tracer::off`].
///
/// # Example
///
/// ```
/// use codesign_trace::Tracer;
///
/// let tracer = Tracer::on();
/// let track = tracer.track("coordinator");
/// tracer.span(track, "round", 0, 100, &[("engines", 2u64.into())]);
/// tracer.counter(track, "skew", 100, 3);
/// let json = tracer.to_chrome_json();
/// assert!(codesign_trace::validate_chrome_trace(&json).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<Sink>>>,
}

impl Tracer {
    /// A disabled tracer: every recording call is a no-op and no memory
    /// is allocated. This is the [`Default`].
    #[must_use]
    pub fn off() -> Self {
        Tracer { sink: None }
    }

    /// An enabled tracer with a fresh, empty sink.
    #[must_use]
    pub fn on() -> Self {
        Tracer {
            sink: Some(Arc::new(Mutex::new(Sink::default()))),
        }
    }

    /// Whether this tracer records events. Instrumentation that must
    /// allocate to build an event should check this first.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Sink>> {
        // A poisoned mutex means a panic mid-record on another thread;
        // the data is still structurally sound, so keep tracing.
        self.sink
            .as_ref()
            .map(|s| s.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Interns a named timeline and returns its id. Repeated calls with
    /// the same name return the same track. On a disabled tracer this
    /// returns a dummy id.
    #[must_use]
    pub fn track(&self, name: &str) -> TrackId {
        match self.lock() {
            Some(mut sink) => sink.track(name),
            None => TrackId(0),
        }
    }

    fn push(&self, track: TrackId, name: &str, ts: u64, phase: Phase, args: &[(&str, Arg)]) {
        if let Some(mut sink) = self.lock() {
            sink.events.push(Event {
                track,
                name: name.to_string(),
                ts,
                phase,
                args: args
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Records a completed span `[ts, ts + dur)` on a track.
    pub fn span(&self, track: TrackId, name: &str, ts: u64, dur: u64, args: &[(&str, Arg)]) {
        self.push(track, name, ts, Phase::Span { dur }, args);
    }

    /// Records an instantaneous event.
    pub fn instant(&self, track: TrackId, name: &str, ts: u64, args: &[(&str, Arg)]) {
        self.push(track, name, ts, Phase::Instant, args);
    }

    /// Records a counter sample: the value of the named series at `ts`.
    pub fn counter(&self, track: TrackId, name: &str, ts: u64, value: u64) {
        self.push(track, name, ts, Phase::Counter { value }, &[]);
    }

    /// Number of events recorded so far (0 when disabled).
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.lock().map_or(0, |s| s.events.len())
    }

    /// Writes the trace as Chrome trace-event JSON (object form, with a
    /// `traceEvents` array and thread-name metadata per track).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from `w`.
    pub fn write_chrome_json<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let (tracks, events) = match self.lock() {
            Some(sink) => (sink.tracks.clone(), sink.events.clone()),
            None => (BTreeMap::new(), Vec::new()),
        };
        writeln!(w, "{{")?;
        writeln!(w, "  \"displayTimeUnit\": \"ns\",")?;
        writeln!(w, "  \"traceEvents\": [")?;
        let mut first = true;
        // Thread-name metadata first, so viewers label every track.
        for (name, tid) in &tracks {
            sep(w, &mut first)?;
            write!(
                w,
                "    {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}",
                json::quote(name)
            )?;
        }
        for e in &events {
            sep(w, &mut first)?;
            write!(
                w,
                "    {{\"name\": {}, \"cat\": \"codesign\", \"ph\": \"{}\", \"ts\": {}, ",
                json::quote(&e.name),
                match e.phase {
                    Phase::Span { .. } => "X",
                    Phase::Instant => "i",
                    Phase::Counter { .. } => "C",
                },
                e.ts
            )?;
            if let Phase::Span { dur } = e.phase {
                write!(w, "\"dur\": {dur}, ")?;
            }
            if let Phase::Instant = e.phase {
                write!(w, "\"s\": \"t\", ")?;
            }
            write!(w, "\"pid\": 1, \"tid\": {}, \"args\": {{", e.track.0)?;
            match &e.phase {
                Phase::Counter { value } => {
                    write!(w, "{}: {value}", json::quote(&e.name))?;
                }
                _ => {
                    for (i, (k, v)) in e.args.iter().enumerate() {
                        if i > 0 {
                            write!(w, ", ")?;
                        }
                        write!(w, "{}: ", json::quote(k))?;
                        match v {
                            Arg::U64(x) => write!(w, "{x}")?,
                            Arg::I64(x) => write!(w, "{x}")?,
                            Arg::F64(x) if x.is_finite() => write!(w, "{x}")?,
                            // JSON has no NaN/Inf literal; stringify.
                            Arg::F64(x) => write!(w, "{}", json::quote(&x.to_string()))?,
                            Arg::Bool(x) => write!(w, "{x}")?,
                            Arg::Str(s) => write!(w, "{}", json::quote(s))?,
                        }
                    }
                }
            }
            write!(w, "}}}}")?;
        }
        if !first {
            writeln!(w)?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")
    }

    /// The trace as a Chrome trace-event JSON string.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_chrome_json(&mut buf)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(buf).expect("writer emits UTF-8")
    }

    /// Writes the trace to a file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome_json(&mut f)
    }
}

fn sep<W: Write>(w: &mut W, first: &mut bool) -> std::io::Result<()> {
    if *first {
        *first = false;
    } else {
        writeln!(w, ",")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        let track = t.track("x");
        t.span(track, "a", 0, 10, &[]);
        t.instant(track, "b", 5, &[]);
        t.counter(track, "c", 7, 1);
        assert!(!t.is_on());
        assert_eq!(t.event_count(), 0);
        // Still writes a valid (empty) trace.
        validate_chrome_trace(&t.to_chrome_json()).unwrap();
    }

    #[test]
    fn default_is_off() {
        assert!(!Tracer::default().is_on());
    }

    #[test]
    fn events_accumulate_and_serialize() {
        let t = Tracer::on();
        let coord = t.track("coordinator");
        let bus = t.track("bus");
        t.span(coord, "round", 0, 100, &[("engines", 2u64.into())]);
        t.span(
            bus,
            "write",
            3,
            4,
            &[("addr", 0x8000u64.into()), ("ok", true.into())],
        );
        t.instant(coord, "irq", 42, &[("source", "timer".into())]);
        t.counter(bus, "fifo", 50, 7);
        assert_eq!(t.event_count(), 4);
        let json = t.to_chrome_json();
        let n = validate_chrome_trace(&json).unwrap();
        // 4 events + 2 thread_name metadata records.
        assert_eq!(n, 6);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"coordinator\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"C\""));
    }

    #[test]
    fn tracks_are_interned_by_name() {
        let t = Tracer::on();
        let a = t.track("same");
        let b = t.track("same");
        let c = t.track("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::on();
        let u = t.clone();
        let track = u.track("shared");
        u.span(track, "from-clone", 0, 1, &[]);
        assert_eq!(t.event_count(), 1);
    }

    #[test]
    fn clone_is_usable_across_threads() {
        let t = Tracer::on();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let track = t.track(&format!("worker{i}"));
                    for j in 0..100 {
                        t.counter(track, "n", j, j);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.event_count(), 400);
        validate_chrome_trace(&t.to_chrome_json()).unwrap();
    }

    #[test]
    fn names_are_json_escaped() {
        let t = Tracer::on();
        let track = t.track("quo\"ted\\track");
        t.span(track, "new\nline", 0, 1, &[("k\"ey", "va\\lue".into())]);
        validate_chrome_trace(&t.to_chrome_json()).unwrap();
    }

    #[test]
    fn non_finite_floats_serialize_as_strings() {
        let t = Tracer::on();
        let track = t.track("t");
        t.span(track, "e", 0, 1, &[("nan", f64::NAN.into())]);
        t.span(track, "e", 1, 1, &[("inf", f64::INFINITY.into())]);
        validate_chrome_trace(&t.to_chrome_json()).unwrap();
    }
}
