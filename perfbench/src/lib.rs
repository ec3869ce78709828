//! The benchmark harness behind the `benchmark` binary: argument
//! parsing, the workloads, spans, statistics, result files and
//! `compare`. See `main.rs` for how to run it and what it measures. The
//! JSON reader and the metric catalogue are public for the end-to-end
//! tests.

mod compare;
mod cosim;
mod explore;
pub mod json;
pub mod metrics;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER};
use spans::{Span, Spans};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The workloads, in `BENCHMARK.json` order.
pub(crate) const WORKLOADS: [&str; 4] = ["cosim", "explore_dsp", "explore_tgff", "serve_mix"];

/// What a workload needs to know about its run.
#[derive(Debug)]
pub(crate) struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Shrunken inputs for tests.
    pub smoke: bool,
    /// Span recorder (off in untraced runs).
    pub spans: Spans,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Milliseconds per successful measured op.
    pub op_ms: Vec<f64>,
    /// Work units completed by the timed ops.
    pub work: f64,
    /// Seconds the work took (the denominator of `work_per_s`).
    pub work_s: f64,
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Digest of the outputs of one pass through the inputs.
    pub digest: u64,
    /// Workload-specific per-layer values.
    pub counters: BTreeMap<String, f64>,
    /// Name of the spans whose subtrees layer shares are taken over
    /// (the measured phase unless the workload says otherwise).
    pub share_roots: Option<&'static str>,
    /// Per distinct op of a [`Measured::measure`] run: its fastest time
    /// in milliseconds and its work units.
    best: Vec<(f64, f64)>,
    warming: bool,
}

/// Name of the measured-phase span.
pub(crate) const PHASE: &str = "phase.measure";

impl Measured {
    /// Times one set-up, dropping its product outside the timing.
    ///
    /// # Errors
    ///
    /// The set-up's error.
    pub fn time_setup<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        let t = Instant::now();
        let product = f()?;
        self.setup_s.push(t.elapsed().as_secs_f64());
        drop(product);
        Ok(())
    }

    /// How many set-ups a run times.
    #[must_use]
    pub fn setup_reps(ctx: &Ctx) -> usize {
        if ctx.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// Records a failed check and returns `self`.
    #[must_use]
    pub fn fail(mut self, e: String) -> Self {
        self.failures.push(e);
        self
    }

    /// Runs one untimed warm-up op (index 0), then ops 1, 2, … inside
    /// the measured phase until `ctx.seconds` have passed; op `i` runs
    /// the workload's distinct op `i % distinct`, so each runs once per
    /// pass. Each distinct op keeps its fastest time: other tenants of a
    /// shared host slow whole stretches of a run by 10–40%, and the
    /// fastest of several passes measures what the program costs rather
    /// than what the host took away. `op_ms` becomes those times, and
    /// `work_per_s` the distinct ops' work over their summed times.
    ///
    /// Between ops, it times `setup` [`Self::setup_reps`] times, spread
    /// evenly over the phase: a set-up takes milliseconds, and timed only
    /// at process start it reads whichever vCPU and host state the
    /// process started on, which on a shared 2-vCPU host moved it by up
    /// to 70% between runs.
    pub fn measure<T>(
        &mut self,
        ctx: &Ctx,
        distinct: usize,
        mut setup: impl FnMut() -> Result<T, String>,
        mut op: impl FnMut(&mut Self, u64, u64),
    ) {
        self.best = vec![(f64::INFINITY, 0.0); distinct];
        self.warming = true;
        op(self, 0, 0);
        self.warming = false;
        let reps = Self::setup_reps(ctx);
        ctx.spans.time("main", "bench", PHASE, 0, 0, |phase| {
            let start = Instant::now();
            let mut timed = 0;
            let mut i = 1;
            while timed < reps || start.elapsed() < ctx.seconds {
                if timed < reps
                    && start.elapsed() >= ctx.seconds.mul_f64(timed as f64 / reps as f64)
                {
                    let r = ctx
                        .spans
                        .time("main", "bench", "bench.setup", phase, 0, |_| {
                            self.time_setup(&mut setup)
                        });
                    if let Err(e) = r {
                        self.failures.push(e);
                    }
                    timed += 1;
                } else {
                    op(self, phase, i);
                    i += 1;
                }
            }
        });
        let timed: Vec<(f64, f64)> = self
            .best
            .iter()
            .copied()
            .filter(|b| b.0.is_finite())
            .collect();
        self.op_ms = timed.iter().map(|b| b.0).collect();
        self.work = timed.iter().map(|b| b.1).sum();
        self.work_s = timed.iter().map(|b| b.0).sum::<f64>() / 1e3;
    }

    /// Sets a per-layer value; `name` must be in [`PER_LAYER`].
    pub fn counter(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "per-layer metric `{name}` is not in the catalogue"
        );
        self.counters.insert(name.to_string(), value);
    }

    /// Share (%) of the measured phase spent in spans named `name`.
    #[must_use]
    pub fn name_share(&self, ctx: &Ctx, name: &str) -> f64 {
        let spans = ctx.spans.snapshot();
        let phase: u64 = spans
            .iter()
            .filter(|s| s.name == PHASE)
            .map(Span::dur_ns)
            .sum();
        let inside: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        if phase == 0 {
            0.0
        } else {
            inside as f64 * 100.0 / phase as f64
        }
    }
}

/// Times one op of [`Measured::measure`]: `f` returns the op's result
/// and its work units. Counts the attempt, and on success keeps the time
/// if it is the distinct op's fastest so far.
///
/// # Errors
///
/// Whatever the op returns.
pub(crate) fn time_op<T>(
    ctx: &Ctx,
    m: &mut Measured,
    phase: u64,
    op: u64,
    f: impl FnOnce(u64) -> Result<(T, f64), String>,
) -> Result<T, String> {
    let t = Instant::now();
    let out = ctx.spans.time("main", "bench", "op", phase, op, f);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !m.warming {
        m.attempted += 1;
        match &out {
            Ok((_, work)) => {
                let n = m.best.len();
                let best = &mut m.best[op as usize % n];
                if ms < best.0 {
                    *best = (ms, *work);
                }
            }
            Err(_) => m.failed += 1,
        }
    }
    out.map(|(v, _)| v)
}

/// FNV-1a of a string, the digest every workload reports.
#[must_use]
pub(crate) fn digest_str(s: &str) -> u64 {
    codesign::explore::fnv1a_str(s)
}

/// Peak resident set size, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The commit the sources came from, when the checkout is a git
/// repository; `unknown` otherwise.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Parsed command line of a run.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    out: Option<String>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?
            .clone();
        let bad = |what: &str| format!("`{flag}`: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--trace-out" => a.trace_out = Some(value),
            "--out" => a.out = Some(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "`--workload` must be one of {WORKLOADS:?}, got `{}`",
            a.workload
        ));
    }
    Ok(a)
}

fn usage() -> &'static str {
    "usage: benchmark --workload <cosim|explore_dsp|explore_tgff|serve_mix> --seed <n> \
     [--seconds <s>] [--trace <0|1>] [--trace-out FILE] [--out FILE] [--smoke]\n       \
     benchmark compare DIR_A DIR_B"
}

/// A metric value with its unit.
type Metric = (String, f64, &'static str);

/// The end-to-end metrics of an untraced run.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let ms = stats::sorted(&m.op_ms);
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no {what} measured"));
    let values = [
        need(stats::median(&m.setup_s), "set-up")?,
        need(stats::nearest_rank(&ms, 50.0), "op")?,
        need(stats::nearest_rank(&ms, 90.0), "op")?,
        m.work / m.work_s.max(f64::MIN_POSITIVE),
        peak_rss_mb()?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name.to_string(), v, d.unit))
        .collect())
}

/// The per-layer metrics of a traced run.
fn per_layer(m: &Measured, spans: &[Span]) -> Vec<Metric> {
    let root = m.share_roots.unwrap_or(PHASE);
    let shares = spans::layer_shares(spans, |s| s.name == root);
    let mut values: BTreeMap<String, f64> = shares
        .into_iter()
        .map(|(layer, v)| (format!("{layer}.share"), v))
        .collect();
    values.insert(
        "span_coverage".into(),
        spans::coverage(spans, |s| s.name.starts_with("phase.")),
    );
    values.insert(
        "traced_op_p50_ms".into(),
        stats::nearest_rank(&stats::sorted(&m.op_ms), 50.0).unwrap_or(0.0),
    );
    values.extend(m.counters.iter().map(|(k, v)| (k.clone(), *v)));
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            (
                (*name).to_string(),
                values.get(*name).copied().unwrap_or(0.0),
                *unit,
            )
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                fmt_num(*value),
                json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(if args.smoke {
            args.seconds.min(1.0)
        } else {
            args.seconds
        }),
        smoke: args.smoke,
        spans: if args.trace {
            Spans::on()
        } else {
            Spans::off()
        },
    };
    let m = match args.workload.as_str() {
        "cosim" => cosim::run(&ctx),
        "explore_dsp" => explore::run_dsp(&ctx),
        "explore_tgff" => explore::run_tgff(&ctx),
        "serve_mix" => serve::run(&ctx),
        other => unreachable!("workload `{other}` was validated"),
    };
    for f in &m.failures {
        eprintln!("check failed: {f}");
    }
    if m.attempted == 0 {
        return Err("no op was attempted".into());
    }
    let spans = ctx.spans.snapshot();
    let mut trace_ok = true;
    if args.trace {
        let chrome = spans::to_tracer(&spans).to_chrome_json();
        if let Err(e) = codesign::trace::validate_chrome_trace(&chrome) {
            eprintln!("check failed: the Chrome trace does not validate: {e}");
            trace_ok = false;
        }
        if let Some(path) = &args.trace_out {
            std::fs::write(path, &chrome).map_err(|e| format!("writing {path}: {e}"))?;
        }
    }
    let metrics = if args.trace {
        per_layer(&m, &spans)
    } else {
        end_to_end(&m)?
    };
    for (name, value, unit) in &metrics {
        eprintln!("{name:>32} = {value:.6} {unit}");
    }
    let correct = m.failures.is_empty() && trace_ok;
    if let Some(path) = &args.out {
        let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let doc = format!(
            "{{\"workload\": {}, \"seed\": {}, \"git_rev\": {}, \"host_cores\": {host_cores}, \
             \"trace\": {}, \"seconds\": {}, \"correct\": {correct}, \"ops\": {}, \
             \"ops_failed\": {}, \"digest\": \"{:016x}\", \"metrics\": {}, \"layers\": {}}}\n",
            json::quote(&args.workload),
            args.seed,
            json::quote(&git_rev()),
            args.trace,
            fmt_num(args.seconds),
            m.attempted,
            m.failed,
            m.digest,
            metrics_json(if args.trace { &[] } else { &metrics }),
            metrics_json(if args.trace { &metrics } else { &[] }),
        );
        std::fs::write(path, doc).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        metrics_json(&metrics)
    );
    Ok(correct)
}

/// The `benchmark` command line: a run, or `compare`.
#[must_use]
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(clean) => ExitCode::from(u8::from(!clean)),
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
