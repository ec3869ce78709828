//! `serve_mix`: the job server over TCP, driven in an open loop and then
//! a closed loop.
//!
//! An in-process `Server` (2 workers, queue 256) serves `serve_tcp` on
//! loopback. One client connection drives it, from two threads: this
//! one sends, a reader collects replies. The job mix is 35% `partition`
//! and 25% `explore` (budget 128, seed 0..8), both on audio_codec or
//! radio_link; 25% `cosim` on camera_node or radio_link; 10% `conform`
//! (8 systems, seed 0..4); 5% `faults` (2 seeds, base 0..4). The run is
//! split into phases, as shares of `--seconds`:
//!
//! * warm-up, 10%, at the low rate (fills the tenant explore store);
//! * low rate, 30%: seeded Poisson arrivals at `LOW_RATE`;
//! * high rate, 20%: Poisson arrivals at `HIGH_RATE`;
//! * closed loop, 40%: `IN_FLIGHT` jobs kept outstanding.
//!
//! Templates are drawn in shuffled blocks that hold the mix exactly, so
//! seeds differ in order and arrival times, not in how much work they
//! ask for.
//!
//! The op latency is the low-rate reply latency counted from the time
//! each job was *due*, not from when it was sent, so a stall anywhere
//! (server, transport, or this client) inflates every job that waited
//! behind it. Work unit: jobs completed in the closed loop.
//!
//! Every `ok` reply must carry exactly the bytes the job runner
//! produces when called directly, every job must get one reply, and
//! after shutdown the server's counters must satisfy
//! `accepted == ok + failed + drained`.
//!
//! The client sets `TCP_NODELAY` and sends each request line with one
//! `write_all`. Without both, Nagle's algorithm holds a short line back
//! until the previous segment is acknowledged, and the delayed-ACK timer
//! on the server side then adds up to tens of milliseconds per request:
//! the latencies would measure the TCP stack, not the client's requests.
//!
//! The server's own sockets do not set `TCP_NODELAY`, so a reply written
//! while an earlier one is unacknowledged waits for the client's next
//! request to carry the ACK. That wait is part of what this workload
//! measures: on a 2-core host the low-rate median is ~2.2 ms against
//! ~0.3 ms of median run time, and a closed loop with only 8 jobs in
//! flight completes ~400 jobs/s against ~1,700 with 32, which is why
//! the closed loop keeps 32 in flight. With `TCP_NODELAY` set on the
//! server's sockets the same host measured a ~0.6 ms median and
//! ~2,800 jobs/s. The rates above are 30% and 65% of the ~1,700 jobs/s
//! the closed loop reaches today.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codesign::conform::sweep::splitmix64;
use codesign::explore::EvalCache;
use codesign::serve::{
    parse_request, serve_tcp, Handle, JobError, JobRunner, Request, RunOutcome, Server,
    ServerConfig, StatsSnapshot,
};
use codesign::servejobs::CodesignRunner;
use codesign::trace::Tracer;

use crate::json::{self, Json};
use crate::spans::{Span, Spans};
use crate::{digest_str, stats, Ctx, Measured};

/// Server worker threads.
const WORKERS: usize = 2;
/// Server queue bound.
const QUEUE: usize = 256;
/// Open-loop arrival rate of the warm-up and low-rate phases, jobs/s.
const LOW_RATE: f64 = 500.0;
/// Open-loop arrival rate of the high-rate phase, jobs/s.
const HIGH_RATE: f64 = 1_100.0;
/// A closed-loop rate the server cannot reach, jobs/s: sizes the
/// closed loop's script.
const CLOSED_MAX_RATE: f64 = 6_000.0;
/// Jobs in flight during the closed loop.
const IN_FLIGHT: usize = 32;
/// Phase lengths as shares of `--seconds`: warm-up, low, high, closed.
const PHASES: [f64; 4] = [0.1, 0.3, 0.2, 0.4];
/// Span ids of requests: this offset plus the job id, so a worker can
/// parent its run span to the request it serves.
const REQUEST_SPAN_BASE: u64 = 1 << 48;
/// Queue depth is sampled at most this often, in traced runs.
const DEPTH_SAMPLE: Duration = Duration::from_millis(10);

/// Spec files, relative to the repository root the benchmark runs from.
const AUDIO: &str = "examples/specs/audio_codec.cds";
const RADIO: &str = "examples/specs/radio_link.cds";
const CAMERA: &str = "examples/specs/camera_node.cds";

/// Every distinct job body of the mix, with its weight (of 1,600).
fn templates() -> Vec<(u32, String)> {
    let mut t = Vec::new();
    for spec in [AUDIO, RADIO] {
        t.push((280, format!("\"kind\":\"partition\",\"spec\":\"{spec}\"")));
        for seed in 0..8 {
            t.push((
                25,
                format!("\"kind\":\"explore\",\"spec\":\"{spec}\",\"budget\":128,\"seed\":{seed}"),
            ));
        }
    }
    for spec in [CAMERA, RADIO] {
        t.push((200, format!("\"kind\":\"cosim\",\"spec\":\"{spec}\"")));
    }
    for seed in 0..4 {
        t.push((
            40,
            format!("\"kind\":\"conform\",\"systems\":8,\"seed\":{seed}"),
        ));
    }
    for base in 0..4 {
        t.push((
            20,
            format!("\"kind\":\"faults\",\"seeds\":2,\"seed_base\":{base}"),
        ));
    }
    t
}

fn line(id: usize, body: &str) -> String {
    format!("{{\"id\":\"{id}\",{body}}}\n")
}

/// A uniform draw in (0, 1] from a splitmix64 stream.
fn unit(state: &mut u64) -> f64 {
    *state = splitmix64(*state);
    ((*state >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Seeded Poisson arrivals at `rate` per second over `[from, to)`
/// seconds: exponential gaps drawn from the stream `state`.
fn poisson(state: &mut u64, rate: f64, from: f64, to: f64) -> Vec<f64> {
    let mut t = from;
    let mut out = Vec::new();
    loop {
        t += -unit(state).ln() / rate;
        if t >= to {
            return out;
        }
        out.push(t);
    }
}

/// One scripted open-loop job.
#[derive(Debug, Clone, PartialEq)]
struct Job {
    /// Seconds after the open loop starts.
    due: f64,
    /// Index into the templates.
    template: usize,
    /// 0 warm-up, 1 low rate, 2 high rate.
    phase: usize,
}

/// Phase end times in seconds after the open loop starts.
fn phase_ends(seconds: f64) -> [f64; 4] {
    let mut t = 0.0;
    PHASES.map(|share| {
        t += share * seconds;
        t
    })
}

/// Draws templates in shuffled blocks that hold each template exactly
/// in proportion to its weight, so every seed runs the same mix and
/// only its order varies.
struct Mixer {
    block: Vec<usize>,
    next: usize,
}

impl Mixer {
    fn new(weights: &[u32]) -> Self {
        let g = weights.iter().fold(0, |a, &b| gcd(a, b));
        let block = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, (w / g) as usize))
            .collect::<Vec<_>>();
        let next = block.len();
        Mixer { block, next }
    }

    fn pick(&mut self, state: &mut u64) -> usize {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                *state = splitmix64(*state);
                self.block.swap(i, (*state % (i as u64 + 1)) as usize);
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The open-loop script and the closed loop's template draws, from the
/// seed alone.
fn script(seed: u64, seconds: f64, weights: &[u32]) -> (Vec<Job>, Vec<usize>) {
    let mut state = seed;
    let mut mix = Mixer::new(weights);
    let ends = phase_ends(seconds);
    let mut jobs = Vec::new();
    let phases = [
        (LOW_RATE, 0.0, ends[0]),
        (LOW_RATE, ends[0], ends[1]),
        (HIGH_RATE, ends[1], ends[2]),
    ];
    for (phase, (rate, from, to)) in phases.into_iter().enumerate() {
        for due in poisson(&mut state, rate, from, to) {
            let template = mix.pick(&mut state);
            jobs.push(Job {
                due,
                template,
                phase,
            });
        }
    }
    // Far more draws than the closed loop can complete.
    let mut mix = Mixer::new(weights);
    let closed = (0..(CLOSED_MAX_RATE * PHASES[3] * seconds) as usize + IN_FLIGHT)
        .map(|_| mix.pick(&mut state))
        .collect();
    (jobs, closed)
}

/// The job runner the server uses, timing each run as a span parented
/// to the request it serves.
struct TimedRunner {
    inner: CodesignRunner,
    spans: Spans,
}

impl TimedRunner {
    fn timed<T>(&self, request: &Request, f: impl FnOnce() -> T) -> T {
        if !self.spans.is_on() {
            return f();
        }
        let (name, layer) = match request.kind.as_str() {
            "partition" => ("serve.run.partition", "partition"),
            "explore" => ("serve.run.explore", "explore"),
            "cosim" => ("serve.run.cosim", "sim"),
            "conform" => ("serve.run.conform", "conform"),
            "faults" => ("serve.run.faults", "fault"),
            _ => ("serve.run.other", "serve"),
        };
        let run: u64 = request.id.parse().unwrap_or(0);
        self.spans
            .time("worker", layer, name, REQUEST_SPAN_BASE + run, run, |_| f())
    }
}

impl JobRunner for TimedRunner {
    fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError> {
        self.timed(request, || self.inner.run(request, attempt))
    }

    fn run_slice(
        &self,
        request: &Request,
        attempt: u32,
        resume: Option<&[u8]>,
    ) -> Result<RunOutcome, JobError> {
        self.timed(request, || self.inner.run_slice(request, attempt, resume))
    }
}

/// The bytes an `ok` reply to a job id must carry.
type Expected<'a> = dyn Fn(usize) -> &'a str + Sync + 'a;

/// A reply, as the client saw it. The result itself is checked as it
/// arrives and dropped, so memory does not grow with the job count.
#[derive(Debug)]
struct Reply {
    id: usize,
    at: Instant,
    ok: bool,
    /// An `ok` reply carried the expected bytes.
    matches: bool,
}

fn parse_reply(text: &str, at: Instant, expected: &Expected<'_>) -> Result<Reply, String> {
    let v = json::parse(text.trim()).map_err(|e| format!("bad reply `{}`: {e}", text.trim()))?;
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("reply without a job id: {}", text.trim()))?;
    let ok = v.get("status").and_then(Json::as_str) == Some("ok");
    Ok(Reply {
        id,
        at,
        ok,
        matches: ok && v.get("result").and_then(Json::as_str) == Some(expected(id)),
    })
}

/// Reads exactly `n` replies, timestamping each as it arrives.
fn read_replies(
    reader: &mut impl BufRead,
    n: usize,
    expected: &Expected<'_>,
) -> Result<Vec<Reply>, String> {
    let mut out = Vec::with_capacity(n);
    let mut buf = String::new();
    while out.len() < n {
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => {
                return Err(format!(
                    "connection closed after {} of {n} replies",
                    out.len()
                ))
            }
            Ok(_) => out.push(parse_reply(&buf, Instant::now(), expected)?),
            Err(e) => return Err(format!("reading replies: {e}")),
        }
    }
    Ok(out)
}

/// What an open loop saw.
struct OpenLoop {
    replies: Vec<Reply>,
    /// How late each send was, in milliseconds.
    late_ms: Vec<f64>,
}

/// Sends each `(due, line, phase span)` at `start + due` from this
/// thread while a reader thread collects the replies. In a traced run
/// the waits and sends are spans under the given phase span. `between`
/// runs after every send.
fn open_loop(
    stream: &TcpStream,
    sends: &[(f64, String, u64)],
    start: Instant,
    sp: &Spans,
    expected: &Expected<'_>,
    between: impl FnMut(Instant),
) -> Result<OpenLoop, String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    std::thread::scope(|scope| {
        let reading = scope.spawn(move || read_replies(&mut reader, sends.len(), expected));
        let sent = send_on_schedule(stream, sends, start, sp, between);
        if sent.is_err() {
            // Unblock the reader before joining it.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let replies = reading
            .join()
            .map_err(|_| "the reply reader panicked".to_string())?;
        Ok(OpenLoop {
            late_ms: sent?,
            replies: replies?,
        })
    })
}

/// The sending half of [`open_loop`]; returns how late each send was.
fn send_on_schedule(
    stream: &TcpStream,
    sends: &[(f64, String, u64)],
    start: Instant,
    sp: &Spans,
    mut between: impl FnMut(Instant),
) -> Result<Vec<f64>, String> {
    let n = sends.len();
    let mut writer = stream;
    let mut late_ms = Vec::with_capacity(n);
    for (i, (due, text, phase)) in sends.iter().enumerate() {
        let due_at = start + Duration::from_secs_f64(*due);
        sp.time("client", "bench", "bench.wait", *phase, 0, |_| {
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
        });
        let send_at = Instant::now();
        late_ms.push(send_at.saturating_duration_since(due_at).as_secs_f64() * 1e3);
        let wrote = sp.time(
            "client",
            "bench",
            "bench.send",
            *phase,
            i as u64 + 1,
            |_| writer.write_all(text.as_bytes()),
        );
        wrote.map_err(|e| format!("sending job {}: {e}", i + 1))?;
        between(send_at);
    }
    Ok(late_ms)
}

/// A booted server with a connected client.
struct Rig {
    stream: TcpStream,
    acceptor: Option<JoinHandle<std::io::Result<StatsSnapshot>>>,
    handle: Handle<TimedRunner>,
    store: Arc<EvalCache>,
    /// The direct runner's result for each template.
    expected: Vec<String>,
}

impl Rig {
    /// Sends `shutdown` and returns the server's final counters.
    fn shutdown(&mut self) -> Result<StatsSnapshot, String> {
        let acceptor = self.acceptor.take().ok_or("already shut down")?;
        self.stream
            .write_all(b"{\"id\":\"0\",\"kind\":\"shutdown\"}\n")
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(&self.stream)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        acceptor
            .join()
            .map_err(|_| "the acceptor panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

impl Drop for Rig {
    /// The rigs of timed set-ups, and of a run that failed, shut down
    /// here.
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Computes the expected result of every template by calling the job
/// runner directly, then boots the server and connects to it.
fn boot(ctx: &Ctx, bodies: &[String]) -> Result<Rig, String> {
    let direct = CodesignRunner::new(Arc::new(EvalCache::new()), Tracer::off());
    let expected = bodies
        .iter()
        .map(|body| {
            let req = parse_request(line(0, body).trim()).map_err(|e| e.to_string())?;
            direct.run(&req, 1).map_err(|e| {
                format!(
                    "`{body}` fails when run directly (run from the repository root): {}",
                    e.message
                )
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let store = Arc::new(EvalCache::new());
    let runner = TimedRunner {
        inner: CodesignRunner::new(Arc::clone(&store), Tracer::off()),
        spans: ctx.spans.clone(),
    };
    let cfg = ServerConfig {
        workers: WORKERS,
        queue_capacity: QUEUE,
        ..ServerConfig::default()
    };
    let server = Server::new(runner, cfg, &Tracer::off());
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let acceptor = std::thread::spawn(move || serve_tcp(server, listener));
    let mut rig = Rig {
        stream: TcpStream::connect(addr).map_err(|e| e.to_string())?,
        acceptor: Some(acceptor),
        handle,
        store,
        expected,
    };
    rig.stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // One round trip proves the server answers before set-up ends.
    rig.stream
        .write_all(b"{\"id\":\"0\",\"kind\":\"stats\"}\n")
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(&rig.stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    if !reply.contains("\"status\":\"stats\"") {
        return Err(format!("unexpected first reply: {reply}"));
    }
    Ok(rig)
}

/// Counts `ok` and other replies, and records a failure for every `ok`
/// reply whose bytes differed from the direct runner's.
fn tally<'a>(
    replies: impl IntoIterator<Item = &'a Reply>,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let (mut ok, mut failed) = (0, 0);
    for r in replies {
        if !r.ok {
            failed += 1;
            continue;
        }
        ok += 1;
        if !r.matches {
            failures.push(format!(
                "job {} replied other bytes than the direct runner",
                r.id
            ));
        }
    }
    (ok, failed)
}

/// What the closed loop saw.
struct ClosedLoop {
    replies: Vec<Reply>,
    sent_at: HashMap<usize, Instant>,
}

/// Keeps `IN_FLIGHT` jobs outstanding until `until`, then collects the
/// rest. Job ids start at `first_id`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    rig: &Rig,
    bodies: &[String],
    picks: &[usize],
    first_id: usize,
    until: Instant,
    sp: &Spans,
    phase: u64,
    expected: &Expected<'_>,
) -> Result<ClosedLoop, String> {
    let mut writer = &rig.stream;
    let mut reader = BufReader::new(&rig.stream);
    let mut sent_at = HashMap::new();
    let mut send = |sent_at: &mut HashMap<usize, Instant>| -> Result<(), String> {
        let k = sent_at.len();
        let pick = picks.get(k).ok_or("the closed loop outran its script")?;
        let text = line(first_id + k, &bodies[*pick]);
        sent_at.insert(first_id + k, Instant::now());
        sp.time(
            "client",
            "bench",
            "bench.send",
            phase,
            (first_id + k) as u64,
            |_| writer.write_all(text.as_bytes()),
        )
        .map_err(|e| e.to_string())
    };
    for _ in 0..IN_FLIGHT {
        send(&mut sent_at)?;
    }
    let mut replies = Vec::new();
    while replies.len() < sent_at.len() {
        let got = sp.time("client", "bench", "bench.read", phase, 0, |_| {
            read_replies(&mut reader, 1, expected)
        })?;
        replies.extend(got);
        if Instant::now() < until {
            send(&mut sent_at)?;
        }
    }
    Ok(ClosedLoop { replies, sent_at })
}

/// Records the request spans: from due (or send) time to the reply.
fn record_requests(sp: &Spans, replies: &[Reply], since: impl Fn(usize) -> Instant) {
    for r in replies {
        sp.record(Span {
            id: REQUEST_SPAN_BASE + r.id as u64,
            parent: 0,
            name: "serve.request",
            layer: "serve",
            lane: "client",
            run: r.id as u64,
            start_ns: sp.at_ns(since(r.id)),
            end_ns: sp.at_ns(r.at),
        });
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured {
        share_roots: Some("serve.request"),
        ..Measured::default()
    };
    match drive(ctx, &mut m) {
        Ok(()) => m,
        Err(e) => m.fail(e),
    }
}

#[allow(clippy::too_many_lines)]
fn drive(ctx: &Ctx, m: &mut Measured) -> Result<(), String> {
    let sp = &ctx.spans;
    let (weights, bodies): (Vec<u32>, Vec<String>) = templates().into_iter().unzip();
    let seconds = ctx.seconds.as_secs_f64();
    let ends = phase_ends(seconds);
    let (jobs, closed_picks) = script(ctx.seed, seconds, &weights);
    let first_closed = jobs.len() + 1;
    let template_of = |id: usize| {
        if id < first_closed {
            jobs[id - 1].template
        } else {
            closed_picks[id - first_closed]
        }
    };
    let mut rig = boot(ctx, &bodies)?;
    let expected = |id: usize| rig.expected[template_of(id)].as_str();

    // The open loop: warm-up, low rate and high rate back to back.
    let phase_ids = [sp.next_id(), sp.next_id(), sp.next_id(), sp.next_id()];
    let sends: Vec<(f64, String, u64)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.due, line(i + 1, &bodies[j.template]), phase_ids[j.phase]))
        .collect();
    let mut depths = Vec::new();
    let mut last_sample: Option<Instant> = None;
    let start = Instant::now();
    let open = open_loop(&rig.stream, &sends, start, sp, &expected, |at| {
        if sp.is_on() && last_sample.is_none_or(|t| at - t >= DEPTH_SAMPLE) {
            depths.push(rig.handle.queue_depth() as f64);
            last_sample = Some(at);
        }
    })?;
    let open_end = Instant::now();
    let due_at = |id: usize| start + Duration::from_secs_f64(jobs[id - 1].due);
    let latency_ms = |r: &Reply| r.at.saturating_duration_since(due_at(r.id)).as_secs_f64() * 1e3;
    for phase in 0..3 {
        let replies: Vec<&Reply> = open
            .replies
            .iter()
            .filter(|r| jobs[r.id - 1].phase == phase)
            .collect();
        let (_, failed) = tally(replies.iter().copied(), &mut m.failures);
        if phase == 0 {
            continue;
        }
        m.attempted += replies.len() as u64;
        m.failed += failed;
        let lat: Vec<f64> = replies.iter().map(|r| latency_ms(r)).collect();
        if phase == 1 {
            m.op_ms = lat;
        } else {
            let s = stats::sorted(&lat);
            eprintln!(
                "serve_mix: high rate p50 {:.3} ms, p99 {:.3} ms, {} jobs",
                stats::nearest_rank(&s, 50.0).unwrap_or(0.0),
                stats::nearest_rank(&s, 99.0).unwrap_or(0.0),
                s.len()
            );
        }
    }
    let late = stats::sorted(
        &open
            .late_ms
            .iter()
            .zip(&jobs)
            .filter(|(_, j)| j.phase == 1)
            .map(|(l, _)| *l)
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "serve_mix: generator late at the low rate: p99 {:.3} ms, max {:.3} ms",
        stats::nearest_rank(&late, 99.0).unwrap_or(0.0),
        late.last().copied().unwrap_or(0.0),
    );

    // The closed loop.
    let closed_start = Instant::now();
    let until = closed_start + Duration::from_secs_f64(PHASES[3] * seconds);
    let closed = closed_loop(
        &rig,
        &bodies,
        &closed_picks,
        first_closed,
        until,
        sp,
        phase_ids[3],
        &expected,
    )?;
    let closed_end = Instant::now();
    let (ok, failed) = tally(&closed.replies, &mut m.failures);
    m.attempted += closed.replies.len() as u64;
    m.failed += failed;
    m.work = ok as f64;
    m.work_s = (closed_end - closed_start).as_secs_f64();

    let store_entries = rig.store.len();
    let final_stats = rig.shutdown()?;
    // Set-up is timed after the traffic, where booting more servers
    // cannot disturb it.
    for _ in 0..Measured::setup_reps(ctx) {
        m.time_setup(|| boot(ctx, &bodies))?;
    }
    if final_stats.accepted != final_stats.ok + final_stats.failed + final_stats.drained {
        m.failures.push(format!(
            "server accounting does not balance: {final_stats:?}"
        ));
    }
    let answered = (open.replies.len() + closed.replies.len()) as u64;
    if final_stats.accepted + final_stats.shed != answered {
        m.failures.push(format!(
            "{answered} replies for {} accepted and {} shed jobs",
            final_stats.accepted, final_stats.shed
        ));
    }

    if sp.is_on() {
        record_requests(sp, &open.replies, due_at);
        record_requests(sp, &closed.replies, |id| closed.sent_at[&id]);
        let bounds = [
            (start, 0.0, ends[0]),
            (start, ends[0], ends[1]),
            (start, ends[1], ends[2]),
            (closed_start, 0.0, (closed_end - closed_start).as_secs_f64()),
        ];
        let names = ["phase.warmup", "phase.low", "phase.high", "phase.closed"];
        for ((id, name), (base, from, to)) in phase_ids.iter().zip(names).zip(bounds) {
            sp.record(Span {
                id: *id,
                parent: 0,
                name,
                layer: "bench",
                lane: "client",
                run: 0,
                start_ns: sp.at_ns(base + Duration::from_secs_f64(from)),
                end_ns: sp.at_ns(base + Duration::from_secs_f64(to)),
            });
        }
        let spans = sp.snapshot();
        let busy: u64 = spans
            .iter()
            .filter(|s| s.lane == "worker")
            .map(Span::dur_ns)
            .sum();
        let wall = (open_end - start + (closed_end - closed_start)).as_secs_f64();
        m.counter(
            "serve.worker_busy_share",
            busy as f64 / 1e9 * 100.0 / (wall * WORKERS as f64),
        );
    }
    m.counter(
        "serve.queue_depth_p99",
        stats::nearest_rank(&stats::sorted(&depths), 99.0).unwrap_or(0.0),
    );
    m.counter("serve.shed", final_stats.shed as f64);
    m.counter("serve.retried", final_stats.retried as f64);
    m.counter("serve.store_entries", store_entries as f64);
    let script_text: String = sends
        .iter()
        .map(|(due, text, _)| format!("{due:.9} {text}"))
        .chain(closed_picks.iter().map(|t| format!("{t},")))
        .chain(rig.expected.iter().cloned())
        .collect();
    m.digest = digest_str(&script_text);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded() {
        let weights: Vec<u32> = templates().iter().map(|t| t.0).collect();
        let a = script(1, 2.0, &weights);
        assert_eq!(a, script(1, 2.0, &weights));
        assert_ne!(a.0, script(2, 2.0, &weights).0);
        // Arrivals are increasing, stay in their phase, and average the
        // phase's rate.
        let ends = phase_ends(2.0);
        assert!(a.0.windows(2).all(|w| w[0].due < w[1].due));
        let low = a.0.iter().filter(|j| j.phase == 1).count() as f64;
        let expect = LOW_RATE * (ends[1] - ends[0]);
        assert!(
            (low - expect).abs() < 4.0 * expect.sqrt(),
            "{low} arrivals, expected ~{expect}"
        );
        assert!(a.0.iter().all(|j| j.due < ends[2]));
    }

    #[test]
    fn the_mix_has_the_stated_shares() {
        let t = templates();
        let share = |kind: &str| -> u32 {
            t.iter()
                .filter(|(_, b)| b.contains(&format!("\"kind\":\"{kind}\"")))
                .map(|(w, _)| w)
                .sum()
        };
        assert_eq!(share("partition"), 560);
        assert_eq!(share("explore"), 400);
        assert_eq!(share("cosim"), 400);
        assert_eq!(share("conform"), 160);
        assert_eq!(share("faults"), 80);
        assert_eq!(t.iter().map(|(w, _)| w).sum::<u32>(), 1_600);
    }

    /// A loopback server that answers `ok` to every line at once.
    fn echo_server() -> (TcpStream, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut out = conn.try_clone().unwrap();
            for text in BufReader::new(conn).lines() {
                let req = parse_request(&text.unwrap()).unwrap();
                let reply = format!(
                    "{{\"id\":\"{}\",\"status\":\"ok\",\"result\":\"\"}}\n",
                    req.id
                );
                out.write_all(reply.as_bytes()).unwrap();
            }
        });
        let client = TcpStream::connect(addr).unwrap();
        client.set_nodelay(true).unwrap();
        (client, server)
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // 40 jobs due 1 ms apart; the client stalls 60 ms after sending
        // job 10, so jobs 11.. go out late although the server answers
        // at once.
        let stall = Duration::from_millis(60);
        let (client, server) = echo_server();
        let sends: Vec<(f64, String, u64)> = (1..=40)
            .map(|i| (i as f64 * 1e-3, line(i, "\"kind\":\"echo\""), 0))
            .collect();
        let start = Instant::now();
        let mut sent = 0;
        let open = open_loop(&client, &sends, start, &Spans::off(), &|_| "", |_| {
            sent += 1;
            if sent == 10 {
                std::thread::sleep(stall);
            }
        })
        .unwrap();
        drop(client);
        server.join().unwrap();
        assert_eq!(open.replies.len(), 40);
        assert!(open.replies.iter().all(|r| r.ok && r.matches));
        let lat = |id: usize| {
            let r = open.replies.iter().find(|r| r.id == id).unwrap();
            r.at.saturating_duration_since(start + Duration::from_secs_f64(sends[id - 1].0))
        };
        // Every job due during the stall counts the wait it sat through.
        for id in 11..=40 {
            let waited = stall.saturating_sub(Duration::from_millis(id as u64 - 10));
            assert!(lat(id) >= waited, "job {id}: {:?} < {waited:?}", lat(id));
            assert!(open.late_ms[id - 1] >= waited.as_secs_f64() * 1e3);
        }
        assert!(lat(5) < stall / 2, "job 5 did not wait: {:?}", lat(5));
    }
}
