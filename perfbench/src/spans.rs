//! Spans the benchmark records around its own calls into each layer.
//!
//! A span carries a name, the layer (crate) it times, the lane (thread
//! role) it ran on, a start and an end on one monotonic clock, the span
//! that caused it, and the op or request id it belongs to. Spans stay in
//! memory and are converted once, at exit, into a
//! [`codesign::trace::Tracer`] for Chrome JSON. A disabled recorder
//! records nothing and costs one branch per call, which is what the
//! untraced run measures with.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use codesign::trace::{Arg, Tracer};

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, never 0.
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    /// What was called, e.g. `conform.run_system`.
    pub name: &'static str,
    /// The layer (crate) the time is charged to.
    pub layer: &'static str,
    /// The timeline the span ran on.
    pub lane: &'static str,
    /// The op or request id the span belongs to.
    pub run: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Inner {
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A shared span recorder, on or off.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    inner: Option<Arc<Inner>>,
}

impl Spans {
    /// A recorder that keeps spans.
    #[must_use]
    pub fn on() -> Self {
        let epoch = Instant::now();
        Spans {
            epoch,
            inner: Some(Arc::new(Inner {
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A recorder that drops everything.
    #[must_use]
    pub fn off() -> Self {
        Spans {
            epoch: Instant::now(),
            inner: None,
        }
    }

    /// Whether spans are kept.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the recorder's epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `t`.
    #[must_use]
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id (0 when off).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Keeps a span measured by the caller.
    pub fn record(&self, span: Span) {
        if let Some(inner) = &self.inner {
            inner
                .spans
                .lock()
                .expect("a span recorder user panicked")
                .push(span);
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent the spans it opens.
    pub fn time<T>(
        &self,
        lane: &'static str,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        run: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.is_on() {
            return f(0);
        }
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name,
            layer,
            lane,
            run,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span kept so far, in the order they closed.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.spans
                .lock()
                .expect("a span recorder user panicked")
                .clone()
        })
    }
}

/// Each span's self time: its length minus the time its children
/// cover. Children of one parent run one after another in this
/// benchmark, except a served request's worker run, which lies inside
/// the request's interval; either way the covered time is the sum of
/// the children's lengths, capped at the parent's.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            let c = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(c))
        })
        .collect()
}

/// The root of each span's parent chain.
fn roots(spans: &[Span]) -> HashMap<u64, u64> {
    let parent: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    spans
        .iter()
        .map(|s| {
            let mut id = s.id;
            while let Some(&p) = parent.get(&id) {
                if p == 0 || !parent.contains_key(&p) {
                    break;
                }
                id = p;
            }
            (s.id, id)
        })
        .collect()
}

/// Self time per layer, over the subtrees of the spans `is_root`
/// selects, as shares (%) of those roots' total length. The shares sum
/// to 100 when children never overlap.
#[must_use]
pub fn layer_shares(
    spans: &[Span],
    is_root: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, f64> {
    let selves = self_times(spans);
    let root_of = roots(spans);
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let total: u64 = spans.iter().filter(|s| is_root(s)).map(Span::dur_ns).sum();
    let mut out = BTreeMap::new();
    if total == 0 {
        return out;
    }
    for s in spans {
        if by_id.get(&root_of[&s.id]).is_some_and(|r| is_root(r)) {
            *out.entry(s.layer).or_insert(0.0) += selves[&s.id] as f64;
        }
    }
    for v in out.values_mut() {
        *v = *v * 100.0 / total as f64;
    }
    out
}

/// Share (%) of the `is_phase` spans' length that their direct children
/// cover: how much of each phase the benchmark's spans account for.
#[must_use]
pub fn coverage(spans: &[Span], is_phase: impl Fn(&Span) -> bool) -> f64 {
    let phases: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| is_phase(s))
        .map(|s| (s.id, s.dur_ns()))
        .collect();
    let wall: u64 = phases.values().sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| phases.contains_key(&s.parent))
        .map(Span::dur_ns)
        .sum();
    if wall == 0 {
        0.0
    } else {
        covered as f64 * 100.0 / wall as f64
    }
}

/// The spans as a Chrome trace: one track per lane, microsecond
/// timestamps, and the id, parent, layer and run in each span's args.
#[must_use]
pub fn to_tracer(spans: &[Span]) -> Tracer {
    let tracer = Tracer::on();
    for s in spans {
        let track = tracer.track(s.lane);
        tracer.span(
            track,
            s.name,
            s.start_ns / 1_000,
            s.dur_ns() / 1_000,
            &[
                ("id", Arg::U64(s.id)),
                ("parent", Arg::U64(s.parent)),
                ("layer", Arg::from(s.layer)),
                ("run", Arg::U64(s.run)),
            ],
        );
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer,
            lane: "main",
            run: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // phase [0,100) > op [10,90) > {a [20,40), b [50,80) > c [60,70)}
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "bench", 10, 90),
            span(3, 2, "sim", 20, 40),
            span(4, 2, "conform", 50, 80),
            span(5, 4, "ir", 60, 70),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves[&1], 20);
        assert_eq!(selves[&2], 30);
        assert_eq!(selves[&3], 20);
        assert_eq!(selves[&4], 20);
        assert_eq!(selves[&5], 10);
        // Self times of a tree add up to the root's length.
        assert_eq!(selves.values().sum::<u64>(), 100);

        let shares = layer_shares(&spans, |s| s.parent == 0);
        assert_eq!(shares["bench"], 50.0);
        assert_eq!(shares["sim"], 20.0);
        assert_eq!(shares["conform"], 20.0);
        assert_eq!(shares["ir"], 10.0);
        assert_eq!(coverage(&spans, |s| s.parent == 0), 80.0);
    }

    #[test]
    fn self_time_never_goes_negative() {
        // A child recorded longer than its parent (clock granularity).
        let spans = vec![span(1, 0, "bench", 0, 10), span(2, 1, "sim", 0, 12)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn recorder_nests_and_converts_to_a_valid_trace() {
        let spans = Spans::on();
        let out = spans.time("main", "bench", "outer", 0, 7, |outer| {
            spans.time("main", "sim", "inner", outer, 7, |_| 41) + 1
        });
        assert_eq!(out, 42);
        let got = spans.snapshot();
        assert_eq!(got.len(), 2);
        let inner = got.iter().find(|s| s.name == "inner").unwrap();
        let outer = got.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let json = to_tracer(&got).to_chrome_json();
        codesign::trace::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn an_off_recorder_keeps_nothing() {
        let spans = Spans::off();
        assert_eq!(spans.time("main", "sim", "x", 0, 0, |id| id), 0);
        assert!(spans.snapshot().is_empty());
    }
}
