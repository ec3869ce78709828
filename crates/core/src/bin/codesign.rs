//! `codesign` — the command-line front end to the co-design framework.
//!
//! ```text
//! codesign classify                         criteria tables (paper §5, Fig. 2)
//! codesign partition <spec.cds> [opts]      HW/SW-partition the task-graph view
//! codesign explore <spec.cds> [opts]        deterministic design-space exploration
//! codesign cosim <spec.cds> [opts]          message-level co-simulation of the process view
//! codesign multiproc <spec.cds> --deadline N   processor allocation (Fig. 5 flows)
//! codesign ladder [opts]                    the Figure 3 abstraction-ladder sweep
//! codesign faults [opts]                    deterministic fault-injection campaign
//! codesign faults --bisect [opts]           bisect a faulty run's first divergent round
//! codesign conform [opts]                   differential conformance sweep across the ladder
//! codesign serve [opts]                     multi-tenant job server (stdin or TCP)
//! codesign debug --gdb HOST:PORT [opts]     GDB remote stub over the CR32 co-simulation
//! ```
//!
//! Run `codesign help` for the options of each subcommand.

use std::process::ExitCode;

use codesign::explore::{
    explore_with_cache, Constraints, DesignSpace, ExploreConfig, SpaceConfig, Weights,
};
use codesign::fault::FaultPlan;
use codesign::ir::spec::SystemSpec;
use codesign::partition::algorithms::{
    gclp, hw_first, kernighan_lin, portfolio, simulated_annealing, sw_first, AnnealingSchedule,
};
use codesign::partition::area::{NaiveArea, SharedArea};
use codesign::partition::cost::Objective;
use codesign::partition::eval::EvalConfig;
use codesign::replay::{bisect_divergence, serve as gdb_serve, DebugSession};
use codesign::resilience::{
    build_scenario, campaign_table, run_campaign, CampaignConfig, RUN_BUDGET, SCENARIOS,
};
use codesign::serve::{serve_lines, serve_tcp, RetryConfig, Server, ServerConfig};
use codesign::servejobs::{cosim_report_json, run_cosim, CodesignRunner, CosimParams};
use codesign::sim::ladder::{run_ladder, timing_errors, LadderConfig};
use codesign::synth::multiproc::{
    bin_packing, branch_and_bound, sensitivity_driven, MultiprocConfig,
};
use codesign::trace::Tracer;

const HELP: &str = "\
codesign — mixed hardware/software system design (Adams & Thomas, DAC 1996)

USAGE:
  codesign classify
      Print the survey criteria table and this framework's coverage matrix.

  codesign partition <spec.cds> [--objective perf|cost|concurrency]
                     [--algorithm kl|sw|hw|gclp|sa|portfolio] [--deadline N]
                     [--sharing] [--json]
      Partition the spec's task-graph view. The deadline defaults to the
      spec's `deadline` line; `--sharing` prices hardware with the
      sharing-aware estimator. `portfolio` races every algorithm (plus a
      multi-seed annealer) on concurrent threads and keeps the best
      partition; the result is deterministic. `--json` emits the result
      as machine-readable JSON instead of the table.

  codesign explore <spec.cds> [--budget N] [--threads N] [--seed N]
                   [--workers N] [--eval delta|full]
                   [--cache-file FILE]
                   [--objective perf|cost|concurrency] [--deadline N]
                   [--sharing] [--json] [--out FILE] [--trace FILE]
      Explore the joint design space of the spec's task-graph view: HW/SW
      assignment x co-simulation quantum x interface abstraction level,
      scored by the partition cost model plus a bounded co-simulation.
      Candidates come from seeded generator substreams steered by flip
      sensitivities, already-seen points are redrawn at generation time,
      and — under the default `--eval delta` — each candidate pays only
      an incremental suffix rescore plus (when an archive incumbent does
      not already dominate its bound) one quantum-invariant co-sim per
      (assignment, level) class. `--eval full` keeps the one-sim-per-
      point oracle. Evaluations are memoized in a sharded content-
      addressed cache and pipelined over a persistent pool of
      `--threads` evaluators (one round deep), and survivors land
      in a Pareto archive. `--cache-file` warm-starts from (and appends
      new evaluations to) a persistent cache file. The archive is byte-
      identical for any `--threads` and either `--eval` mode, cold or
      warm, at a fixed seed. `--json` prints the JSON report (plus
      wall-clock `points_per_sec` and `host_cores`) to stdout; `--out`
      writes the deterministic report to a file.

  codesign cosim <spec.cds> [--hw name1,name2] [--budget K] [--quantum N]
                 [--json] [--trace FILE]
      Message-level co-simulation of the spec's process-network view.
      `--hw` pins processes to hardware; `--budget K` instead searches for
      the best K-process hardware set (communication/concurrency aware).
      The chosen placement is then mounted under the conservative
      coordinator (sync quantum `--quantum`, default 16) and the report
      shows its synchronization rounds, lookahead skips, and final skew.
      `--json` emits the same report as machine-readable JSON.

  codesign serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
                 [--max-attempts N] [--cache-file FILE] [--trace FILE]
      Multi-tenant job server for the co-design loop. Speaks a
      line-oriented JSON protocol — one flat object per line with `id`
      and `kind` (partition|explore|cosim|faults|conform, plus the
      transport kinds stats|wait|shutdown) and optional `priority`
      (high|normal|low), `deadline_ms`, and `chaos` fields — over stdin
      by default or TCP with `--addr`. Job results are byte-identical
      to the matching CLI invocation (`result` holds the exact bytes).
      The pool runs `--workers` panic-isolated workers over a bounded
      priority queue (`--queue-cap`); overload sheds explicitly with
      `overloaded` replies, transient faults retry on a seeded backoff
      schedule (`--max-attempts`), and `shutdown` drains gracefully:
      in-flight jobs finish, queued jobs are flushed with `draining`
      replies, and the final reply carries the session counters.
      `explore` jobs share one eval-cache tenant store, warm-started
      from (and crash-safely appended to) `--cache-file`.

  codesign multiproc <spec.cds> --deadline N [--solver exact|bin|sens]
      Allocate processors and map the task graph (Figure 5 flows).

  codesign ladder [--bytes N] [--iterations N] [--trace FILE]
      Run the Figure 3 abstraction-ladder scenario at all four levels.

  codesign faults [--seeds N] [--seed-base N] [--scenario NAME] [--out FILE]
                  [--trace FILE]
      Deterministic fault-injection campaign: sweep seeds over the
      abstraction-ladder scenarios (message, register, interrupt) and the
      DSP coprocessor system with the standard fault plan, classify every
      run against its fault-free golden fingerprint (masked / recovered /
      detected / watchdog / corrupted), and write the report as JSON
      (default BENCH_faults.json). Identical seeds reproduce identical
      campaigns.

  codesign faults --bisect [--scenario NAME] [--seed N] [--cadence N]
                  [--max-rounds N]
      Time-travel divergence bisection: build one campaign scenario
      twice with the same seed — once quiet, once with the standard
      fault plan armed — run both in lockstep under checkpoint
      recording (every --cadence rounds, default 8), and binary-search
      the checkpoint histories for the exact first round the faulty
      run's state departs the golden run's, in O(log checkpoints +
      cadence) state probes instead of a linear scan. Reports the
      divergent round, probe counts, and each run's final fingerprint
      or terminal error (detected fault, budget, watchdog).

  codesign debug --gdb HOST:PORT [--pin] [--iterations N] [--quantum N]
                 [--cadence N] [--max-rounds N]
      GDB remote stub over the abstraction-ladder co-simulation: the
      CR32 producer driving the real FIFO bus (gate-level pin protocol
      with --pin) under the lockstep coordinator, with checkpoints
      recorded every --cadence rounds (default 8). Serves one GDB
      Remote Serial Protocol session: software breakpoints (Z0) on
      instruction indices, write watchpoints (Z2) on bus/memory
      addresses, single-step, continue — and reverse-step /
      reverse-continue, implemented as nearest-checkpoint restore plus
      deterministic forward replay. Connect with
      `gdb -ex 'target remote HOST:PORT'` or any RSP client; the
      session ends on detach (D) or kill (k).

  codesign conform [--systems N] [--seed N] [--threads N] [--smoke]
                   [--no-lockstep] [--json] [--out FILE]
      Differential conformance across the Figure 3 ladder: generate N
      seeded systems (default 1000; 40 under --smoke), realize each at
      all four interface levels, and check every architected observable
      (per-channel payload bytes, interrupt counts, final architectural
      state, channel completion order) plus the per-level modeled
      cycle-error bounds. Interleaved passes run the one-shot-vs-engine
      message-kernel differential and an ISS-vs-pin lockstep check whose
      deliberate-fault self-test must fire before any verdict counts
      (`--no-lockstep` demonstrates the loud failure). Any divergence is
      shrunk to a minimal generator config and the command exits
      nonzero. The report is byte-identical at any `--threads`.

  codesign help
      Show this message.

  `--trace FILE` writes a Chrome trace-event JSON file of the run (open
  it in chrome://tracing or https://ui.perfetto.dev): per-level harness
  spans, bus transactions, CPU counters, and per-process/per-channel
  message events. Results are identical with and without tracing.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => {
            print!("{HELP}");
            Ok(())
        }
        Some("classify") => cmd_classify(),
        Some("partition") => cmd_partition(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("cosim") => cmd_cosim(&args[1..]),
        Some("multiproc") => cmd_multiproc(&args[1..]),
        Some("ladder") => cmd_ladder(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("conform") => cmd_conform(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("debug") => cmd_debug(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`; try `codesign help`").into()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses `--name value` as a `T`, naming the flag and the offending
/// value in the error instead of surfacing a bare parse failure.
fn parsed_flag<T>(args: &[String], name: &str) -> Result<Option<T>, Box<dyn std::error::Error>>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match flag_value(args, name) {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e| format!("invalid value `{v}` for {name}: {e}").into()),
        None => Ok(None),
    }
}

/// An enabled tracer when `--trace FILE` was given, a disabled one
/// otherwise, plus the target path.
fn trace_flag(args: &[String]) -> (Tracer, Option<&str>) {
    match flag_value(args, "--trace") {
        Some(path) => (Tracer::on(), Some(path)),
        None => (Tracer::off(), None),
    }
}

fn save_trace(tracer: &Tracer, path: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = path {
        tracer
            .save(path)
            .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
        println!(
            "\ntrace: {} events -> {path} (open in chrome://tracing or ui.perfetto.dev)",
            tracer.event_count()
        );
    }
    Ok(())
}

fn load_spec(args: &[String]) -> Result<SystemSpec, Box<dyn std::error::Error>> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing <spec.cds> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(SystemSpec::parse(&text)?)
}

fn cmd_classify() -> Result<(), Box<dyn std::error::Error>> {
    let survey = codesign::registry::surveyed_methodologies();
    println!("Surveyed methodologies (paper Section 4/5):\n");
    print!("{}", codesign::report::comparison_table(&survey));
    let flows = codesign::registry::implemented_flows();
    println!("\nImplemented flows (Figure 2 coverage):\n");
    print!("{}", codesign::report::coverage_matrix(&flows));
    println!("\nPartitioning factors per flow (Section 3.3):\n");
    print!("{}", codesign::report::factor_matrix(&flows));
    Ok(())
}

/// Resolves the shared `--objective`/`--deadline` flags against a task
/// graph (the deadline defaults to the spec's `deadline` line). Used by
/// both `partition` and `explore` so the two commands price designs the
/// same way.
fn objective_flags(
    args: &[String],
    graph: &codesign::ir::task::TaskGraph,
) -> Result<(Objective, Option<u64>), Box<dyn std::error::Error>> {
    let deadline = parsed_flag::<u64>(args, "--deadline")?.or_else(|| graph.deadline());
    let objective = match (flag_value(args, "--objective"), deadline) {
        (Some("cost"), Some(d)) => Objective::cost_driven(d),
        (Some("concurrency"), Some(d)) => Objective::concurrency_aware(d),
        (Some("perf") | None, Some(d)) => Objective::performance_driven(d),
        (Some(o), Some(_)) => return Err(format!("unknown objective `{o}`").into()),
        (_, None) => Objective::default(),
    };
    Ok((objective, deadline))
}

fn cmd_partition(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(args)?;
    let graph = spec
        .task_graph()
        .ok_or("the spec declares no tasks; `partition` needs the task-graph view")?;
    let (objective, deadline) = objective_flags(args, graph)?;
    let shared;
    let naive = NaiveArea;
    let area: &dyn codesign::partition::area::HwAreaModel = if has_flag(args, "--sharing") {
        shared = SharedArea::from_graph(graph);
        &shared
    } else {
        &naive
    };
    let config = EvalConfig::new(objective, area);
    let (partition, eval) = match flag_value(args, "--algorithm").unwrap_or("kl") {
        "kl" => kernighan_lin(graph, &config)?,
        "sw" => sw_first(graph, &config)?,
        "hw" => hw_first(graph, &config)?,
        "gclp" => gclp(graph, &config)?,
        "sa" => simulated_annealing(graph, &config, &AnnealingSchedule::default(), 1)?,
        "portfolio" => portfolio(graph, &config)?,
        other => return Err(format!("unknown algorithm `{other}`").into()),
    };
    if has_flag(args, "--json") {
        // The renderer is shared with the job server so `codesign serve`
        // results stay byte-identical to this command's output.
        print!(
            "{}",
            codesign::servejobs::partition_report_json(
                spec.name(),
                flag_value(args, "--algorithm").unwrap_or("kl"),
                graph,
                &partition,
                &eval,
                deadline,
            )
        );
        return Ok(());
    }
    println!("system `{}` — partition:", spec.name());
    for (id, task) in graph.iter() {
        println!("  {:<16} {:?}", task.name(), partition.side(id));
    }
    println!(
        "\nmakespan {} cycles{}, hardware area {:.1}, {} bytes cross the boundary, cost {:.4}",
        eval.makespan,
        deadline.map_or(String::new(), |d| format!(
            " (deadline {d}: {})",
            if eval.meets_deadline { "met" } else { "MISSED" }
        )),
        eval.hw_area,
        eval.cross_bytes,
        eval.cost
    );
    Ok(())
}

fn cmd_explore(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(args)?;
    let graph = spec
        .task_graph()
        .ok_or("the spec declares no tasks; `explore` needs the task-graph view")?;
    let (objective, _) = objective_flags(args, graph)?;
    let space_cfg = SpaceConfig {
        objective,
        sharing_aware: has_flag(args, "--sharing"),
        ..SpaceConfig::default()
    };
    let space = DesignSpace::new(graph.clone(), space_cfg);
    let eval_mode = match flag_value(args, "--eval") {
        None | Some("delta") => codesign::explore::EvalMode::Delta,
        Some("full") => codesign::explore::EvalMode::Full,
        Some(other) => return Err(format!("unknown --eval mode `{other}` (delta|full)").into()),
    };
    let cfg = ExploreConfig {
        seed: parsed_flag(args, "--seed")?.unwrap_or(42),
        budget: parsed_flag(args, "--budget")?.unwrap_or(256),
        threads: parsed_flag::<usize>(args, "--threads")?.unwrap_or(1).max(1),
        workers: parsed_flag::<usize>(args, "--workers")?.unwrap_or(8).max(1),
        eval_mode,
        ..ExploreConfig::default()
    };
    let (tracer, trace_path) = trace_flag(args);
    let cache_file = flag_value(args, "--cache-file").map(std::path::PathBuf::from);
    let cache = codesign::explore::EvalCache::new();
    if let Some(path) = &cache_file {
        let loaded = codesign::explore::preload_cache(&cache, path)
            .map_err(|e| format!("cannot load cache file `{}`: {e}", path.display()))?;
        if loaded > 0 {
            eprintln!("cache-file: warm start with {loaded} entries");
        }
    }
    let t0 = std::time::Instant::now();
    let outcome = explore_with_cache(&space, &cfg, cache, &tracer);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if let Some(path) = &cache_file {
        let appended = codesign::explore::persist_session(&outcome.cache, path)
            .map_err(|e| format!("cannot persist cache file `{}`: {e}", path.display()))?;
        eprintln!("cache-file: {} new entries -> {}", appended, path.display());
    }
    // `--out` writes the deterministic report (reproducible across
    // machines); stdout `--json` adds throughput and host shape for
    // cross-run trajectory comparisons.
    if let Some(out) = flag_value(args, "--out") {
        let report = outcome.report_json(&space, &cfg);
        std::fs::write(out, &report).map_err(|e| format!("cannot write `{out}`: {e}"))?;
        eprintln!("report -> {out}");
    }
    if has_flag(args, "--json") {
        print!(
            "{}",
            outcome.timed_report_json(&space, &cfg, wall_ns, host_cores)
        );
        save_trace(&tracer, trace_path)?;
        return Ok(());
    }
    println!("system `{}` — design-space exploration:", spec.name());
    println!(
        "  {} offers over {} rounds (seed {:#x}, {} workers), {} unique points simulated",
        outcome.stats.offered,
        outcome.stats.rounds,
        cfg.seed,
        cfg.workers,
        outcome.stats.unique_points
    );
    println!(
        "  cache: {} revisits absorbed ({:.0}% of offers), {} evaluations run ({} warm hits), {} infeasible",
        outcome.stats.revisits,
        outcome.stats.revisit_rate() * 100.0,
        outcome.stats.evaluations,
        outcome.stats.warm_hits,
        outcome.stats.infeasible
    );
    println!(
        "  {} mode: {} gated by the dominance filter, {} duplicate draws skipped, \
         delta hit rate {:.0}%, {:.0} points/sec on {} cores",
        cfg.eval_mode.as_str(),
        outcome.stats.gated,
        outcome.stats.dedup_skips,
        outcome.stats.delta_hit_rate() * 100.0,
        outcome.stats.offered as f64 * 1e9 / wall_ns.max(1) as f64,
        host_cores
    );
    println!("\n  Pareto front ({} points):", outcome.archive.len());
    println!(
        "  {:>16} | {:>7} | {:>8} | {:>10} | {:>8} | {:>11} | {:>11}",
        "assignment", "quantum", "level", "latency", "hw area", "cross bytes", "sync rounds"
    );
    for e in outcome.archive.sorted_entries() {
        println!(
            "  {:>16} | {:>7} | {:>8} | {:>10} | {:>8.1} | {:>11} | {:>11}",
            e.point.assignment_string(),
            e.point.quantum,
            e.point.level.to_string(),
            e.score.latency,
            e.score.hw_area,
            e.score.cross_bytes,
            e.score.sync_rounds
        );
    }
    if let Some(best) = outcome
        .archive
        .best_under(&Constraints::default(), &Weights::default())
    {
        println!(
            "\n  best (latency-led weights): {} q={} {} — {} cycles, area {:.1}",
            best.point.assignment_string(),
            best.point.quantum,
            best.point.level,
            best.score.latency,
            best.score.hw_area
        );
    }
    save_trace(&tracer, trace_path)?;
    Ok(())
}

fn cmd_cosim(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(args)?;
    let net = spec
        .network()
        .ok_or("the spec declares no processes; `cosim` needs the process view")?;
    let (tracer, trace_path) = trace_flag(args);
    // The flow (placement, message-level run, coordinator mount) is
    // shared with the job server so served `cosim` results stay
    // byte-identical to this command's `--json` output.
    let params = CosimParams {
        hw: flag_value(args, "--hw")
            .map(|v| v.split(',').map(ToString::to_string).collect())
            .unwrap_or_default(),
        budget: parsed_flag(args, "--budget")?,
        quantum: parsed_flag(args, "--quantum")?.unwrap_or(16),
    };
    let outcome =
        run_cosim(net, &params, &tracer).map_err(|e| format!("{}: {}", e.code, e.message))?;
    if has_flag(args, "--json") {
        print!(
            "{}",
            cosim_report_json(spec.name(), params.quantum, &outcome)
        );
        save_trace(&tracer, trace_path)?;
        return Ok(());
    }
    let report = &outcome.report;
    println!("system `{}` — message-level co-simulation:", spec.name());
    println!("  hardware processes : {:?}", outcome.hw_names);
    println!("  finish time        : {} cycles", report.finish_time);
    println!(
        "  messages           : {} ({} bytes, {} cross-boundary)",
        report.messages, report.bytes, report.cross_boundary_bytes
    );
    println!("  kernel events      : {}", report.events);
    println!("\n  coordinator (lookahead, quantum {}):", params.quantum);
    println!(
        "  sync rounds        : {} ({} skipped by lookahead, {} cycles leapt)",
        outcome.stats.sync_rounds, outcome.stats.rounds_skipped, outcome.stats.cycles_leapt
    );
    println!(
        "  global time        : {} cycles, final skew {}",
        outcome.stats.time, outcome.skew
    );
    save_trace(&tracer, trace_path)?;
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (tracer, trace_path) = trace_flag(args);
    let store = std::sync::Arc::new(codesign::explore::EvalCache::new());
    let cache_file = flag_value(args, "--cache-file").map(std::path::PathBuf::from);
    if let Some(path) = &cache_file {
        let loaded = codesign::explore::preload_cache(&store, path)
            .map_err(|e| format!("cannot load cache file `{}`: {e}", path.display()))?;
        if loaded > 0 {
            eprintln!("cache-file: warm start with {loaded} entries");
        }
    }
    let cfg = ServerConfig {
        workers: parsed_flag::<usize>(args, "--workers")?.unwrap_or(4).max(1),
        queue_capacity: parsed_flag::<usize>(args, "--queue-cap")?
            .unwrap_or(64)
            .max(1),
        retry: RetryConfig {
            max_attempts: parsed_flag::<u32>(args, "--max-attempts")?
                .unwrap_or(3)
                .max(1),
            ..RetryConfig::default()
        },
        ..ServerConfig::default()
    };
    let runner = CodesignRunner::new(std::sync::Arc::clone(&store), tracer.clone());
    let server = Server::new(runner, cfg, &tracer);
    let stats = if let Some(addr) = flag_value(args, "--addr") {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
        eprintln!("serving on {}", listener.local_addr()?);
        serve_tcp(server, listener)?
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        serve_lines(server, stdin.lock(), stdout.lock())?
    };
    if let Some(path) = &cache_file {
        // Crash-safe append: only the entries this serving session added.
        let appended = codesign::explore::persist_session(&store, path)
            .map_err(|e| format!("cannot persist cache file `{}`: {e}", path.display()))?;
        eprintln!("cache-file: {} new entries -> {}", appended, path.display());
    }
    eprintln!("served: {}", stats.to_json());
    save_trace(&tracer, trace_path)?;
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    if has_flag(args, "--bisect") {
        return cmd_faults_bisect(args);
    }
    let config = CampaignConfig {
        seeds: parsed_flag(args, "--seeds")?.unwrap_or(32),
        seed_base: parsed_flag(args, "--seed-base")?.unwrap_or(0xC0DE),
        scenario: flag_value(args, "--scenario").map(ToString::to_string),
        ..CampaignConfig::default()
    };
    let out = flag_value(args, "--out").unwrap_or("BENCH_faults.json");
    let (tracer, trace_path) = trace_flag(args);
    let report = run_campaign(&config, &tracer)?;
    println!(
        "fault campaign — {} seeds per scenario (seed base {:#x}):\n",
        config.seeds, config.seed_base
    );
    print!("{}", campaign_table(&report));
    std::fs::write(out, report.to_json()).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("\nreport -> {out}");
    save_trace(&tracer, trace_path)?;
    Ok(())
}

/// `codesign faults --bisect`: golden-vs-armed divergence bisection of
/// one campaign scenario via the replay checkpoint store.
fn cmd_faults_bisect(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let scenario = flag_value(args, "--scenario").unwrap_or("ladder_register");
    if !SCENARIOS.contains(&scenario) {
        return Err(
            format!("unknown scenario `{scenario}` (expected one of {SCENARIOS:?})").into(),
        );
    }
    let seed = parsed_flag(args, "--seed")?.unwrap_or(0xC0DE);
    let cadence = parsed_flag::<u64>(args, "--cadence")?.unwrap_or(8).max(1);
    let max_rounds = parsed_flag(args, "--max-rounds")?.unwrap_or(200_000);

    let factory = |plan: FaultPlan| {
        move || {
            let (coord, injector) =
                build_scenario(scenario, &plan, seed, true).expect("scenario validated above");
            Ok((coord, Some(injector)))
        }
    };
    let report = bisect_divergence(
        factory(FaultPlan::quiet()),
        factory(FaultPlan::standard()),
        cadence,
        max_rounds,
        RUN_BUDGET,
    )?;

    println!("divergence bisection — scenario {scenario}, seed {seed:#x}, cadence {cadence}:\n");
    match report.first_divergent_round {
        Some(round) => println!(
            "  first divergent round : {round} (of {} shared rounds)",
            report.rounds
        ),
        None => println!(
            "  first divergent round : none within {} shared rounds (fault masked)",
            report.rounds
        ),
    }
    println!("  bisection probes      : {}", report.probes);
    println!("  linear-scan probes    : {}", report.linear_probes);
    println!("  checkpoints on grid   : {}", report.checkpoints);
    if let Some(e) = &report.golden_error {
        println!("  golden run ended with : {e}");
    }
    if let Some(e) = &report.faulty_error {
        println!("  faulty run ended with : {e}");
    }
    let verdict = if report.golden_fingerprint == report.faulty_fingerprint {
        "identical (fault masked)"
    } else {
        "diverged"
    };
    println!("  final fingerprints    : {verdict}");
    Ok(())
}

/// `codesign debug --gdb`: serve one GDB Remote Serial Protocol session
/// over the ladder co-simulation.
fn cmd_debug(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use codesign::isa::asm::assemble;
    use codesign::sim::adapters::CpuEngine;
    use codesign::sim::engine::Coordinator;
    use codesign::sim::ladder::{build_cpu, system_program};

    let addr = flag_value(args, "--gdb")
        .ok_or("missing --gdb HOST:PORT (e.g. `codesign debug --gdb 127.0.0.1:3333`)")?;
    let cadence = parsed_flag::<u64>(args, "--cadence")?.unwrap_or(8).max(1);
    let quantum = parsed_flag::<u64>(args, "--quantum")?.unwrap_or(16).max(1);
    let max_rounds = parsed_flag::<u64>(args, "--max-rounds")?.unwrap_or(1_000_000);
    let pin = has_flag(args, "--pin");
    let cfg = LadderConfig {
        iterations: parsed_flag(args, "--iterations")?.unwrap_or(16),
        ..LadderConfig::default()
    };

    let spec = cfg.spec()?;
    let cpu = build_cpu(&spec, &assemble(&system_program(&spec))?, pin)?;
    let mut coord = Coordinator::lockstep(quantum);
    coord.add_engine(Box::new(CpuEngine::new("cpu", cpu)));

    let mut dbg = DebugSession::new(coord, None, cadence)?;
    dbg.set_max_rounds(max_rounds);
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let local = listener.local_addr()?;
    println!(
        "gdb stub: {} ladder producer ({} iterations, quantum {quantum}, checkpoint cadence {cadence})",
        if pin { "pin-level" } else { "register-level" },
        cfg.iterations
    );
    println!("listening on {local} — connect with `gdb -ex 'target remote {local}'`");
    gdb_serve(&listener, dbg)?;
    println!("debug session ended");
    Ok(())
}

fn cmd_conform(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    use codesign::conform::shrink::shrink;
    use codesign::conform::sweep::{
        conformance_fails, report_json, run_sweep, sys_config, SweepConfig,
    };

    let smoke = has_flag(args, "--smoke");
    let lockstep = !has_flag(args, "--no-lockstep");
    let cfg = SweepConfig {
        systems: parsed_flag(args, "--systems")?.unwrap_or(if smoke { 40 } else { 1000 }),
        seed: parsed_flag(args, "--seed")?.unwrap_or(42),
        threads: parsed_flag::<usize>(args, "--threads")?.unwrap_or(1).max(1),
        lockstep,
    };
    if !lockstep {
        // A disabled checker certifies nothing — prove it, loudly.
        let refused = codesign::conform::lockstep::self_test(false)
            .expect_err("a disabled lockstep checker must never pass its self-test");
        eprintln!("warning: {refused}");
        eprintln!("warning: lockstep disabled; ISS-vs-pin state is NOT being verified");
    }
    let report = run_sweep(&cfg)?;

    if has_flag(args, "--json") || flag_value(args, "--out").is_some() {
        let json = report_json(&cfg, &report);
        if let Some(out) = flag_value(args, "--out") {
            std::fs::write(out, &json).map_err(|e| format!("cannot write `{out}`: {e}"))?;
            eprintln!("report -> {out}");
        }
        if has_flag(args, "--json") {
            print!("{json}");
        }
    } else {
        println!(
            "conformance sweep — {} systems (seed {}, {} thread{}):",
            report.systems,
            report.seed,
            cfg.threads,
            if cfg.threads == 1 { "" } else { "s" }
        );
        println!(
            "  {} degenerate corners, {} engine-parity differentials, {} lockstep passes \
             ({} instructions compared)",
            report.degenerate_systems,
            report.engine_diffs,
            report.lockstep_runs,
            report.lockstep_instructions
        );
        println!(
            "  observables: {} payload bytes, {} interrupts, {} messages",
            report.total_bytes, report.total_irqs, report.total_messages
        );
        println!("\n  cycle error vs pin reference:");
        println!("  {:>10} | {:>9} | {:>9}", "level", "max", "mean");
        for stat in &report.level_errors {
            println!(
                "  {:>10} | {:>8.1}% | {:>8.1}%",
                stat.level.to_string(),
                stat.max * 100.0,
                stat.mean * 100.0
            );
        }
    }

    if report.divergences.is_empty() {
        if !has_flag(args, "--json") {
            println!("\n  conformance: PASS — zero divergences");
        }
        return Ok(());
    }
    eprintln!(
        "\n  conformance: FAIL — {} divergence(s):",
        report.divergences.len()
    );
    let mut shrunk_seeds = std::collections::BTreeSet::new();
    for d in &report.divergences {
        eprintln!("    [seed {}] {}: {}", d.seed, d.check, d.detail);
        // Shrink system-level failures (generator-config driven) once per
        // seed; engine-parity and lockstep repro from the seed alone.
        if d.check == "engine-parity" || d.check == "lockstep" || !shrunk_seeds.insert(d.seed) {
            continue;
        }
        if let Some(cfg_at) = find_sys_config(&cfg, d.seed) {
            let minimal = shrink(&cfg_at, conformance_fails);
            eprintln!("      minimal repro: {minimal:?}");
        }
    }
    return Err(format!(
        "{} divergence(s) across {} systems — every one is a bug in an engine, a bound, \
         or the harness",
        report.divergences.len(),
        report.systems
    )
    .into());

    /// The sweep index owning `seed`, as its generator config.
    fn find_sys_config(
        cfg: &SweepConfig,
        seed: u64,
    ) -> Option<codesign::ir::workload::sysgen::SysConfig> {
        (0..cfg.systems)
            .map(|i| sys_config(cfg.seed, i))
            .find(|c| c.seed == seed)
    }
}

fn cmd_multiproc(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(args)?;
    let graph = spec
        .task_graph()
        .ok_or("the spec declares no tasks; `multiproc` needs the task-graph view")?;
    let deadline = parsed_flag::<u64>(args, "--deadline")?
        .or(graph.deadline())
        .ok_or("`multiproc` needs --deadline or a `deadline` line in the spec")?;
    let cfg = MultiprocConfig::new(deadline);
    let outcome = match flag_value(args, "--solver").unwrap_or("exact") {
        "exact" => branch_and_bound(graph, &cfg)?,
        "bin" => bin_packing(graph, &cfg)?,
        "sens" => sensitivity_driven(graph, &cfg)?,
        other => return Err(format!("unknown solver `{other}`").into()),
    };
    println!(
        "system `{}` — multiprocessor allocation (deadline {deadline}):",
        spec.name()
    );
    for (i, &ty) in outcome.allocation.instance_types.iter().enumerate() {
        let model = &cfg.library[ty];
        let members: Vec<&str> = graph
            .iter()
            .filter(|(id, _)| outcome.allocation.assignment[id.index()] == i)
            .map(|(_, t)| t.name())
            .collect();
        println!(
            "  PE{i}: {} (speed {:.1}, cost {:.1}) <- {members:?}",
            model.name(),
            model.speed(),
            model.cost()
        );
    }
    println!(
        "\ncost {:.1}, makespan {} cycles, optimal: {}, explored {} nodes",
        outcome.cost, outcome.makespan, outcome.optimal, outcome.explored
    );
    Ok(())
}

fn cmd_ladder(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = LadderConfig {
        message_bytes: parsed_flag(args, "--bytes")?.unwrap_or(64),
        iterations: parsed_flag(args, "--iterations")?.unwrap_or(16),
        ..LadderConfig::default()
    };
    let (tracer, trace_path) = trace_flag(args);
    let reports = run_ladder(&cfg, &tracer)?;
    let errors = timing_errors(&reports);
    println!(
        "{:>9} | {:>12} | {:>14} | {:>10} | {:>8}",
        "level", "sim cycles", "kernel events", "wall (us)", "error"
    );
    for (r, (_, err)) in reports.iter().zip(&errors) {
        println!(
            "{:>9} | {:>12} | {:>14} | {:>10} | {:>7.1}%",
            r.level.to_string(),
            r.simulated_cycles,
            r.kernel_events,
            r.wall.as_micros(),
            err * 100.0
        );
    }
    save_trace(&tracer, trace_path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn err_of(list: &[&str]) -> String {
        run(&args(list))
            .expect_err("expected a CLI error")
            .to_string()
    }

    #[test]
    fn unknown_commands_point_at_help() {
        assert_eq!(
            err_of(&["rewind"]),
            "unknown command `rewind`; try `codesign help`"
        );
    }

    #[test]
    fn debug_requires_a_gdb_address() {
        assert_eq!(
            err_of(&["debug"]),
            "missing --gdb HOST:PORT (e.g. `codesign debug --gdb 127.0.0.1:3333`)"
        );
    }

    #[test]
    fn debug_flags_follow_the_parsed_flag_convention() {
        assert_eq!(
            err_of(&["debug", "--gdb", "127.0.0.1:0", "--cadence", "soon"]),
            "invalid value `soon` for --cadence: invalid digit found in string"
        );
        assert_eq!(
            err_of(&["debug", "--gdb", "127.0.0.1:0", "--quantum", "-4"]),
            "invalid value `-4` for --quantum: invalid digit found in string"
        );
        assert_eq!(
            err_of(&["debug", "--gdb", "127.0.0.1:0", "--iterations", "1e3"]),
            "invalid value `1e3` for --iterations: invalid digit found in string"
        );
    }

    #[test]
    fn bisect_rejects_unknown_scenarios() {
        let msg = err_of(&["faults", "--bisect", "--scenario", "warp_core"]);
        assert!(
            msg.starts_with("unknown scenario `warp_core` (expected one of"),
            "got: {msg}"
        );
        assert!(msg.contains("ladder_register"), "got: {msg}");
    }

    #[test]
    fn bisect_flags_follow_the_parsed_flag_convention() {
        assert_eq!(
            err_of(&["faults", "--bisect", "--seed", "0xzz"]),
            "invalid value `0xzz` for --seed: invalid digit found in string"
        );
        assert_eq!(
            err_of(&["faults", "--bisect", "--max-rounds", "lots"]),
            "invalid value `lots` for --max-rounds: invalid digit found in string"
        );
    }
}
