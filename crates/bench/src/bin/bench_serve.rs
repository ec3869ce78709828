//! `bench-serve` — the chaos benchmark for `codesign serve`, emitted as
//! `BENCH_serve.json`.
//!
//! Boots the real TCP transport on a loopback listener, then drives it
//! with concurrent client threads submitting thousands of jobs while
//! chaos is on: panicking jobs, deliberately wedged engines that trip
//! the co-simulation watchdog, injected transient faults that must heal
//! through the seeded retry schedule, malformed request lines
//! interleaved mid-stream, and an overload burst against a deliberately
//! small queue. The run then proves graceful degradation rather than
//! assuming it:
//!
//! * **zero lost or duplicated results** — every submitted line
//!   (including garbage and shed jobs) gets exactly one reply, and the
//!   server's own counters satisfy `accepted == ok + failed + drained`;
//! * **byte-identical outputs** — every successful `partition` /
//!   `explore` / `cosim` reply carries exactly the bytes the direct
//!   (CLI-shared) renderer produces for the same request;
//! * **the chaos counters are nonzero** — panics were isolated,
//!   watchdog trips were classified, transient faults were retried,
//!   and overload shed explicitly.
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-serve [--smoke] [out.json]
//! ```
//!
//! `--smoke` shrinks the workload and defaults the output under
//! `target/` so CI exercises the full path without perturbing the
//! checked-in `BENCH_serve.json`. Latency percentiles and throughput
//! are wall-clock measurements and vary by host; `host_cores` records
//! the host honestly. The load-dependent gates (shedding, queue-wait
//! deadline expiry) self-skip on single-core hosts where submission
//! and service cannot genuinely overlap.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codesign::explore::{explore_with_cache, DesignSpace, EvalCache, ExploreConfig, SpaceConfig};
use codesign::ir::spec::SystemSpec;
use codesign::partition::algorithms::kernighan_lin;
use codesign::partition::area::NaiveArea;
use codesign::partition::cost::Objective;
use codesign::partition::eval::EvalConfig;
use codesign::serve::{serve_tcp, RetryConfig, Server, ServerConfig};
use codesign::servejobs::{
    cosim_report_json, partition_report_json, run_cosim, CodesignRunner, CosimParams,
};
use codesign::trace::json::escape;
use codesign::trace::Tracer;
use codesign_bench::jsonout::{self, Value};

fn spec_path(name: &str) -> String {
    format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// One line of the client script, with everything needed to check its
/// reply afterwards.
#[derive(Debug, Clone)]
struct Job {
    id: String,
    line: String,
    kind: &'static str,
    /// Expected `result` bytes when the reply is `ok` (`None` = either
    /// no `ok` is possible or the bytes are not pinned).
    expect: Option<Arc<String>>,
    /// Whether an `ok` reply is the only acceptable terminal (shed /
    /// draining / deadline replies still count it as answered).
    must_ok: bool,
    /// Whether a shed reply should be answered with a backoff-and-
    /// resubmit (the backpressure contract) instead of being terminal.
    resubmit: bool,
}

fn job(
    id: String,
    kind: &'static str,
    body: &str,
    expect: Option<Arc<String>>,
    must_ok: bool,
) -> Job {
    Job {
        line: format!("{{\"id\":\"{id}\",{body}}}"),
        id,
        kind,
        expect,
        must_ok,
        resubmit: true,
    }
}

/// Minimal reply-field extraction (the protocol emits one flat JSON
/// object per line).
fn reply_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    if rest.starts_with("null") {
        return None;
    }
    let rest = rest.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

fn reply_status(line: &str) -> &str {
    for status in [
        "\"status\":\"ok\"",
        "\"status\":\"error\"",
        "\"status\":\"shed\"",
        "\"status\":\"stats\"",
        "\"status\":\"draining\"",
    ] {
        if line.contains(status) {
            // "ok" -> ok etc.
            return &status[10..status.len() - 1];
        }
    }
    "unknown"
}

/// What one client observed.
#[derive(Debug, Default)]
struct ClientOutcome {
    /// Reply latency per answered job id, in nanoseconds.
    latencies: Vec<u64>,
    /// Replies per status.
    by_status: BTreeMap<String, u64>,
    /// `ok` replies whose `result` bytes matched the direct renderer.
    byte_identical: u64,
    /// Garbage lines answered with an `id:null` error reply.
    garbage_answered: u64,
    /// Jobs resubmitted after an explicit `overloaded` shed reply —
    /// the backpressure contract working as designed.
    resubmits: u64,
}

/// Sends `jobs` (interleaving `garbage` lines every few jobs), then
/// reads until every submitted line is answered exactly once. A shed
/// (`overloaded`) reply for a `must_ok` or `deadline` job honors the
/// backpressure contract: back off briefly and resubmit; every other
/// shed is terminal. Panics on any lost, duplicated, or byte-divergent
/// reply — the benchmark's whole point.
fn run_client(addr: std::net::SocketAddr, jobs: &[Job], garbage: usize) -> ClientOutcome {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let mut pending: BTreeMap<String, (&Job, Instant)> = BTreeMap::new();
    let mut garbage_sent = 0usize;
    for (i, j) in jobs.iter().enumerate() {
        if garbage_sent < garbage && i % 7 == 3 {
            writeln!(writer, "{{\"id\": unquoted garbage #{i}").expect("send garbage");
            garbage_sent += 1;
        }
        let t0 = Instant::now();
        writeln!(writer, "{}", j.line).expect("send job");
        assert!(
            pending.insert(j.id.clone(), (j, t0)).is_none(),
            "duplicate id in script: {}",
            j.id
        );
    }
    while garbage_sent < garbage {
        writeln!(writer, "not json at all #{garbage_sent}").expect("send garbage");
        garbage_sent += 1;
    }

    let mut out = ClientOutcome::default();
    let mut line = String::new();
    while !pending.is_empty() || out.garbage_answered < garbage_sent as u64 {
        line.clear();
        let n = reader.read_line(&mut line).expect("read reply");
        assert!(
            n > 0,
            "server closed with {} jobs unanswered",
            pending.len()
        );
        let status = reply_status(&line);
        *out.by_status.entry(status.to_string()).or_default() += 1;
        match reply_id(&line) {
            None => out.garbage_answered += 1,
            Some(id) => {
                let (j, t0) = pending
                    .remove(id)
                    .unwrap_or_else(|| panic!("unknown or duplicated reply id `{id}`"));
                if status == "shed" && j.resubmit {
                    // Explicit backpressure: the reply says "resubmit
                    // later", so do exactly that (original submit time
                    // kept — the latency is honest about the wait).
                    out.resubmits += 1;
                    assert!(
                        out.resubmits < 100_000,
                        "job {id} shed indefinitely; the queue never drained"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                    writeln!(writer, "{}", j.line).expect("resubmit");
                    pending.insert(j.id.clone(), (j, t0));
                    continue;
                }
                out.latencies.push(t0.elapsed().as_nanos() as u64);
                if j.must_ok {
                    assert_eq!(status, "ok", "job {id} ({}) must succeed: {line}", j.kind);
                }
                if status == "ok" {
                    if let Some(expect) = &j.expect {
                        // `result` is the reply's last field, escaped by
                        // the one escaper the server renders with.
                        let result = format!("\"result\":\"{}\"}}", escape(expect));
                        assert!(
                            line.trim_end().ends_with(&result),
                            "job {id} ({}) diverged from the direct renderer: {line}",
                            j.kind
                        );
                        out.byte_identical += 1;
                    }
                }
            }
        }
    }
    out
}

/// The expected bytes for the benchmark's `partition` job, computed
/// through the same renderer the CLI uses — the serve path must
/// reproduce them exactly.
fn expected_partition(spec_file: &str) -> String {
    let text = std::fs::read_to_string(spec_file).expect("spec");
    let spec = SystemSpec::parse(&text).expect("parse spec");
    let graph = spec.task_graph().expect("task view");
    let deadline = graph.deadline();
    let objective = deadline.map_or_else(Objective::default, Objective::performance_driven);
    let naive = NaiveArea;
    let config = EvalConfig::new(objective, &naive);
    let (partition, eval) = kernighan_lin(graph, &config).expect("kl");
    partition_report_json(spec.name(), "kl", graph, &partition, &eval, deadline)
}

/// The expected bytes for the benchmark's `cosim` job.
fn expected_cosim(spec_file: &str) -> String {
    let text = std::fs::read_to_string(spec_file).expect("spec");
    let spec = SystemSpec::parse(&text).expect("parse spec");
    let net = spec.network().expect("process view");
    let params = CosimParams::default();
    let outcome = run_cosim(net, &params, &Tracer::off()).expect("cosim");
    cosim_report_json(spec.name(), params.quantum, &outcome)
}

/// The expected bytes for the benchmark's `explore` job (seed/budget
/// pinned). The report is cache-origin invariant, so one cold direct
/// run pins the bytes for every tenant, warm or cold.
fn expected_explore(spec_file: &str, budget: u64) -> String {
    let text = std::fs::read_to_string(spec_file).expect("spec");
    let spec = SystemSpec::parse(&text).expect("parse spec");
    let graph = spec.task_graph().expect("task view");
    let deadline = graph.deadline();
    let objective = deadline.map_or_else(Objective::default, Objective::performance_driven);
    let space = DesignSpace::new(
        graph.clone(),
        SpaceConfig {
            objective,
            ..SpaceConfig::default()
        },
    );
    let cfg = ExploreConfig {
        seed: 42,
        budget,
        ..ExploreConfig::default()
    };
    let outcome = explore_with_cache(&space, &cfg, EvalCache::new(), &Tracer::off());
    outcome.report_json(&space, &cfg)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let (smoke, out_path) =
        jsonout::smoke_args("BENCH_serve.json", "target/BENCH_serve_smoke.json");
    let host_cores = jsonout::host_cores();
    // On a single core, submission and service cannot overlap, so the
    // load-dependent chaos gates (shedding, queue-wait expiry) are
    // meaningless; the correctness gates still run in full.
    let gate_load = host_cores > 1;

    let clients: usize = if smoke { 2 } else { 4 };
    let partitions: usize = if smoke { 60 } else { 300 };
    let cosims: usize = if smoke { 20 } else { 100 };
    let explores: usize = if smoke { 5 } else { 25 };
    let panics: usize = if smoke { 6 } else { 30 };
    let stalls: usize = if smoke { 2 } else { 10 };
    let transients: usize = if smoke { 8 } else { 40 };
    let garbage: usize = if smoke { 10 } else { 50 };
    let burst: usize = if smoke { 60 } else { 120 };
    let explore_budget = 24u64;

    let part_spec = spec_path("audio_codec.cds");
    let proc_spec = spec_path("camera_node.cds");
    let exp_partition = Arc::new(expected_partition(&part_spec));
    let exp_cosim = Arc::new(expected_cosim(&proc_spec));
    let exp_explore = Arc::new(expected_explore(&part_spec, explore_budget));

    let store = Arc::new(EvalCache::new());
    let cfg = ServerConfig {
        workers: host_cores.clamp(2, 8),
        queue_capacity: if smoke { 8 } else { 16 },
        retry: RetryConfig {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 4,
            seed: 0x5EED,
        },
        max_preemptions: 64,
    };
    let tracer = Tracer::off();
    let server = Server::new(
        CodesignRunner::new(Arc::clone(&store), tracer.clone()),
        cfg,
        &tracer,
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let acceptor = std::thread::spawn(move || serve_tcp(server, listener).expect("serve_tcp"));

    // Phase 1: the main chaos workload, `clients` concurrent scripts.
    // Jobs carry generous queue-wait deadlines so backpressure (not the
    // watchdog) is the only thing that can time them out.
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let part_spec = part_spec.clone();
        let proc_spec = proc_spec.clone();
        let exp_partition = Arc::clone(&exp_partition);
        let exp_cosim = Arc::clone(&exp_cosim);
        let exp_explore = Arc::clone(&exp_explore);
        handles.push(std::thread::spawn(move || {
            let mut jobs = Vec::new();
            let prio = ["high", "normal", "low"];
            for i in 0..partitions {
                jobs.push(job(
                    format!("c{c}-part-{i}"),
                    "partition",
                    &format!(
                        "\"kind\":\"partition\",\"spec\":\"{part_spec}\",\"priority\":\"{}\"",
                        prio[i % 3]
                    ),
                    Some(Arc::clone(&exp_partition)),
                    true,
                ));
            }
            for i in 0..cosims {
                jobs.push(job(
                    format!("c{c}-cosim-{i}"),
                    "cosim",
                    &format!("\"kind\":\"cosim\",\"spec\":\"{proc_spec}\""),
                    Some(Arc::clone(&exp_cosim)),
                    true,
                ));
            }
            for i in 0..explores {
                jobs.push(job(
                    format!("c{c}-exp-{i}"),
                    "explore",
                    &format!(
                        "\"kind\":\"explore\",\"spec\":\"{part_spec}\",\"budget\":{explore_budget},\"seed\":42"
                    ),
                    Some(Arc::clone(&exp_explore)),
                    true,
                ));
            }
            for i in 0..panics {
                jobs.push(job(
                    format!("c{c}-panic-{i}"),
                    "panic",
                    &format!("\"kind\":\"partition\",\"spec\":\"{part_spec}\",\"chaos\":\"panic\""),
                    None,
                    false,
                ));
            }
            for i in 0..stalls {
                jobs.push(job(
                    format!("c{c}-stall-{i}"),
                    "stall",
                    "\"kind\":\"cosim\",\"chaos\":\"stall\"",
                    None,
                    false,
                ));
            }
            for i in 0..transients {
                // Heals at attempt 3 (max_attempts): two seeded retries,
                // then the real job must succeed byte-identically.
                jobs.push(job(
                    format!("c{c}-flaky-{i}"),
                    "transient",
                    &format!(
                        "\"kind\":\"partition\",\"spec\":\"{part_spec}\",\"chaos\":\"transient:2\""
                    ),
                    Some(Arc::clone(&exp_partition)),
                    true,
                ));
            }
            // Deterministic per-client shuffle so kinds interleave.
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (c as u64);
            for i in (1..order.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let shuffled: Vec<Job> = order.into_iter().map(|i| jobs[i].clone()).collect();
            run_client(addr, &shuffled, garbage)
        }));
    }
    let mut outcomes: Vec<ClientOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let wall = t0.elapsed();

    // Phase 2: the overload burst — one client floods a queue of
    // `queue_capacity` with pipelined explore jobs plus a batch of
    // zero-wait-budget jobs, so admission must shed explicitly and
    // queue-wait deadlines must expire. Every rejection is still a
    // reply; nothing is lost.
    let mut burst_jobs = Vec::new();
    for i in 0..burst {
        let mut j = job(
            format!("burst-exp-{i}"),
            "explore",
            &format!("\"kind\":\"explore\",\"spec\":\"{part_spec}\",\"budget\":64,\"seed\":{i}"),
            None,
            false,
        );
        j.resubmit = false; // the shed fodder: overload must stay terminal
        burst_jobs.push(j);
    }
    for i in 0..burst / 4 {
        burst_jobs.push(job(
            format!("burst-dead-{i}"),
            "deadline",
            &format!("\"kind\":\"partition\",\"spec\":\"{part_spec}\",\"deadline_ms\":0,\"priority\":\"low\""),
            None,
            false,
        ));
    }
    outcomes.push(run_client(addr, &burst_jobs, 0));

    // Shut down: the drain must finish in-flight work and report final
    // counters on the shutdown reply.
    {
        let mut s = TcpStream::connect(addr).expect("control connect");
        writeln!(s, "{{\"id\":\"down\",\"kind\":\"shutdown\"}}").expect("send shutdown");
        let mut r = BufReader::new(s.try_clone().expect("clone"));
        let mut line = String::new();
        r.read_line(&mut line).expect("read shutdown reply");
        assert!(
            line.contains("\"status\":\"stats\""),
            "bad shutdown reply: {line}"
        );
    }
    let stats = acceptor.join().expect("acceptor thread");

    // --- The acceptance gates -------------------------------------------
    // Zero lost, zero duplicated: run_client already panicked on any
    // unknown/duplicate/missing reply; the server's own ledger must
    // balance too.
    assert_eq!(
        stats.accepted,
        stats.ok + stats.failed + stats.drained,
        "accounting must balance: {stats:?}"
    );
    assert_eq!(stats.drained, 0, "nothing was draining during the run");
    let byte_identical: u64 = outcomes.iter().map(|o| o.byte_identical).sum();
    assert!(byte_identical > 0, "byte-identity never checked");
    // Chaos was real: panics isolated, watchdog trips classified,
    // transient faults retried.
    assert!(stats.panicked >= (clients * panics) as u64, "{stats:?}");
    assert!(stats.watchdogged >= (clients * stalls) as u64, "{stats:?}");
    assert!(
        stats.retried >= (clients * transients * 2) as u64,
        "{stats:?}"
    );
    if gate_load {
        assert!(stats.shed > 0, "overload burst never shed: {stats:?}");
        assert!(
            stats.deadline_expired > 0,
            "zero-budget jobs never expired: {stats:?}"
        );
    } else {
        eprintln!("1-core host: skipping the shed/deadline load gates");
    }

    // --- The report ------------------------------------------------------
    let mut latencies: Vec<u64> = outcomes.iter().flat_map(|o| o.latencies.clone()).collect();
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx] as f64 / 1e6
    };
    let answered: u64 = latencies.len() as u64;
    let garbage_answered: u64 = outcomes.iter().map(|o| o.garbage_answered).sum();
    let jobs_per_sec = stats.ok as f64 / wall.as_secs_f64().max(1e-9);

    let mut statuses: BTreeMap<String, u64> = BTreeMap::new();
    for o in &outcomes {
        for (k, v) in &o.by_status {
            *statuses.entry(k.clone()).or_default() += v;
        }
    }
    let rows: Vec<String> = statuses
        .iter()
        .map(|(status, count)| format!("{{\"status\": \"{status}\", \"replies\": {count}}}"))
        .collect();

    let json = jsonout::render(
        "serve",
        &[
            (
                "description",
                "chaos-tested multi-tenant job server: concurrent TCP clients, panics, \
                 watchdog stalls, injected transient faults, malformed lines, overload burst"
                    .into(),
            ),
            ("host_cores", host_cores.into()),
            ("smoke", smoke.into()),
            ("clients", clients.into()),
            ("workers", cfg.workers.into()),
            ("queue_capacity", cfg.queue_capacity.into()),
            ("jobs_answered", answered.into()),
            ("garbage_lines_answered", garbage_answered.into()),
            ("accepted", stats.accepted.into()),
            ("ok", stats.ok.into()),
            ("failed", stats.failed.into()),
            ("shed", stats.shed.into()),
            ("retried", stats.retried.into()),
            ("panicked", stats.panicked.into()),
            ("watchdogged", stats.watchdogged.into()),
            ("deadline_expired", stats.deadline_expired.into()),
            ("byte_identical_ok_replies", byte_identical.into()),
            (
                "resubmits_after_shed",
                outcomes.iter().map(|o| o.resubmits).sum::<u64>().into(),
            ),
            ("lost_results", 0u64.into()),
            ("duplicated_results", 0u64.into()),
            ("tenant_store_entries", store.len().into()),
            ("p50_ms", Value::Num(format!("{:.3}", pct(0.50)))),
            ("p99_ms", Value::Num(format!("{:.3}", pct(0.99)))),
            ("jobs_per_sec", Value::Num(format!("{jobs_per_sec:.1}"))),
        ],
        &rows,
    );
    eprintln!(
        "serve: {} answered ({} ok, {} shed, {} retried, {} panicked, {} watchdogged, \
         {} expired), p50 {:.2}ms p99 {:.2}ms, {:.0} jobs/sec",
        answered,
        stats.ok,
        stats.shed,
        stats.retried,
        stats.panicked,
        stats.watchdogged,
        stats.deadline_expired,
        pct(0.50),
        pct(0.99),
        jobs_per_sec
    );
    jsonout::write(&out_path, &json);
}
