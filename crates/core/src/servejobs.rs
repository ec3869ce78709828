//! The concrete job registry behind `codesign serve`.
//!
//! The `codesign-serve` crate is deliberately generic: it knows how to
//! queue, retry, drain, and account for jobs, but not what a job *is*.
//! This module closes the loop with [`CodesignRunner`], a
//! [`JobRunner`] that maps protocol requests onto the same flows the
//! CLI subcommands run — partition, explore, cosim, faults, conform —
//! and renders each result **byte-identically** to the corresponding
//! CLI invocation, through renderers shared with `src/bin/codesign.rs`
//! (the chaos benchmark diffs the two outputs literally).
//!
//! Multi-tenancy: the runner holds one shared, sharded
//! [`EvalCache`] *tenant store*. Each `explore` job preloads a private
//! cache from the store's current entries, runs, and merges its fresh
//! session entries back, so tenants warm each other up without ever
//! blocking on a common lock during evaluation. The store's
//! preloaded-vs-session split is what makes a crash-safe disk append
//! exact: `persist_session` writes only what this serving session
//! actually added.
//!
//! Chaos directives (`"chaos"` in a request) make failure injection a
//! first-class, deterministic part of the protocol:
//!
//! * `"panic"` — the job panics; the server's `catch_unwind` isolation
//!   must convert it into one `panic` error reply.
//! * `"stall"` — the job mounts a deliberately wedged engine under the
//!   co-simulation coordinator so the *real* no-progress watchdog
//!   fires; the reply carries the structured `watchdog` code.
//! * `"transient:K"` — the job reports a transient `hardware_fault`
//!   for its first `K` attempts, then runs normally: the seeded retry
//!   schedule either heals it (`attempts > K`) or exhausts.

use std::sync::Arc;

use codesign_explore::{
    explore_with_cache, DesignSpace, EvalCache, EvalMode, ExploreConfig, SpaceConfig,
};
use codesign_fault::{error_code, retryable};
use codesign_ir::spec::SystemSpec;
use codesign_ir::task::TaskGraph;
use codesign_partition::algorithms::{
    gclp, hw_first, kernighan_lin, portfolio, simulated_annealing, sw_first, AnnealingSchedule,
};
use codesign_partition::area::{HwAreaModel, NaiveArea, SharedArea};
use codesign_partition::cost::Objective;
use codesign_partition::eval::{EvalConfig, Evaluation};
use codesign_partition::{Partition, Side};
use codesign_serve::{JobError, JobRunner, Request, RunOutcome};
use codesign_sim::engine::{Coordinator, CoordinatorStats, SimEngine, WatchdogConfig};
use codesign_sim::error::SimError;
use codesign_sim::message::{
    simulate_traced, MessageConfig, MessageEngine, MessageReport, Placement, Resource,
};
use codesign_synth::mthread::{comm_aware_traced, MthreadConfig};
use codesign_trace::json::escape;
use codesign_trace::Tracer;

use crate::resilience::{run_campaign_traced, CampaignConfig};

// ---------------------------------------------------------------------------
// Shared renderers: one source of truth for CLI and served bytes.
// ---------------------------------------------------------------------------

/// The `partition --json` report. Extracted from the CLI so a served
/// `partition` job returns the exact bytes `codesign partition --json`
/// prints.
#[must_use]
pub fn partition_report_json(
    system: &str,
    algorithm: &str,
    graph: &TaskGraph,
    partition: &Partition,
    eval: &Evaluation,
    deadline: Option<u64>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": \"partition\",\n");
    out.push_str(&format!("  \"system\": \"{system}\",\n"));
    out.push_str(&format!("  \"algorithm\": \"{algorithm}\",\n"));
    out.push_str("  \"tasks\": [\n");
    for (i, (id, task)) in graph.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"side\": \"{}\"}}{}\n",
            task.name(),
            match partition.side(id) {
                Side::Sw => "sw",
                Side::Hw => "hw",
            },
            if i + 1 < graph.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"makespan\": {},\n", eval.makespan));
    match deadline {
        Some(d) => {
            out.push_str(&format!("  \"deadline\": {d},\n"));
            out.push_str(&format!("  \"meets_deadline\": {},\n", eval.meets_deadline));
        }
        None => out.push_str("  \"deadline\": null,\n"),
    }
    out.push_str(&format!("  \"hw_area\": {:.4},\n", eval.hw_area));
    out.push_str(&format!("  \"cross_bytes\": {},\n", eval.cross_bytes));
    out.push_str(&format!("  \"cost\": {:.6}\n", eval.cost));
    out.push_str("}\n");
    out
}

/// What the CLI passes to [`run_cosim`]: a pinned hardware set *or* a
/// search budget, plus the coordinator quantum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimParams {
    /// Process names pinned to hardware (ignored when `budget` is set).
    pub hw: Vec<String>,
    /// When set, search for the best `budget`-process hardware set
    /// instead of using `hw`.
    pub budget: Option<usize>,
    /// Conservative-coordinator synchronization quantum.
    pub quantum: u64,
}

impl Default for CosimParams {
    fn default() -> Self {
        CosimParams {
            hw: Vec::new(),
            budget: None,
            quantum: 16,
        }
    }
}

/// Everything a cosim report renders: the message-level results plus
/// the coordinator's synchronization statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CosimOutcome {
    /// Hardware process names (resolved, in placement order).
    pub hw_names: Vec<String>,
    /// Message-level simulation report.
    pub report: MessageReport,
    /// Conservative-coordinator statistics.
    pub stats: CoordinatorStats,
    /// Final inter-engine skew.
    pub skew: u64,
}

/// The placement phase of the cosim flow: resolves the hardware set
/// (pinned or searched) and runs the message-level simulation. Fast and
/// deterministic, so a preempted job recomputes it on every slice
/// instead of serializing it into the checkpoint.
fn cosim_placement(
    net: &codesign_ir::process::ProcessNetwork,
    params: &CosimParams,
    tracer: &Tracer,
) -> Result<(Vec<String>, MessageReport, Placement), JobError> {
    let report;
    let placement;
    let hw_names: Vec<String>;
    if let Some(budget) = params.budget {
        let cfg = MthreadConfig {
            max_hw_processes: budget,
            sim: MessageConfig::default(),
        };
        let outcome = comm_aware_traced(net, &cfg, tracer)
            .map_err(|e| JobError::permanent("synth_error", e.to_string()))?;
        hw_names = outcome
            .hw_processes
            .iter()
            .map(|&i| {
                net.process(codesign_ir::process::ProcessId::from_index(i))
                    .name()
                    .to_string()
            })
            .collect();
        report = outcome.report;
        placement = outcome.placement;
    } else {
        let mut hw_idx = Vec::new();
        for name in &params.hw {
            let found = net
                .iter()
                .find(|(_, p)| p.name() == *name)
                .map(|(id, _)| id.index())
                .ok_or_else(|| {
                    JobError::permanent("bad_field", format!("no process named `{name}`"))
                })?;
            hw_idx.push(found);
        }
        let mut next_hw = 0u32;
        placement = Placement::from_assignment(
            (0..net.len())
                .map(|i| {
                    if hw_idx.contains(&i) {
                        next_hw += 1;
                        Resource::Hardware(next_hw - 1)
                    } else {
                        Resource::Software(0)
                    }
                })
                .collect(),
        );
        hw_names = params.hw.clone();
        report = simulate_traced(net, &placement, &MessageConfig::default(), tracer)
            .map_err(sim_job_error)?;
    }
    Ok((hw_names, report, placement))
}

/// Runs the cosim flow — placement (pinned or searched), message-level
/// simulation, then the same network mounted under the conservative
/// coordinator. The single implementation behind both `codesign cosim`
/// and the served `cosim` job, so the two cannot drift.
///
/// # Errors
///
/// Returns a typed [`JobError`]: `bad_field` for an unknown process
/// name, otherwise the fault taxonomy's code for the underlying
/// simulation failure.
pub fn run_cosim(
    net: &codesign_ir::process::ProcessNetwork,
    params: &CosimParams,
    tracer: &Tracer,
) -> Result<CosimOutcome, JobError> {
    match run_cosim_sliced(net, params, tracer, None, None)? {
        CosimProgress::Done(outcome) => Ok(*outcome),
        CosimProgress::Preempted(_) => unreachable!("no slice means no preemption"),
    }
}

/// How one execution slice of a cosim job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CosimProgress {
    /// Ran to completion.
    Done(Box<CosimOutcome>),
    /// The slice expired mid-coordination; the blob is a replay
    /// checkpoint of the whole coordinator, resumable on any
    /// structurally identical rebuild.
    Preempted(Vec<u8>),
}

/// [`run_cosim`] with checkpoint preemption: when `slice` is set and
/// wall-clock time runs past it before the coordinator finishes, the
/// co-simulation state is serialized with `codesign_replay::snapshot`
/// and returned as [`CosimProgress::Preempted`]. Passing the blob back
/// as `resume` continues the run exactly where it stopped — the final
/// report is byte-identical to an unsliced run.
///
/// # Errors
///
/// As [`run_cosim`]; additionally `state_error` when a resume blob does
/// not fit the rebuilt coordinator.
pub fn run_cosim_sliced(
    net: &codesign_ir::process::ProcessNetwork,
    params: &CosimParams,
    tracer: &Tracer,
    resume: Option<&[u8]>,
    slice: Option<std::time::Duration>,
) -> Result<CosimProgress, JobError> {
    let (hw_names, report, placement) = cosim_placement(net, params, tracer)?;

    let sim_cfg = MessageConfig::default();
    let mut coord = Coordinator::new(params.quantum);
    coord.add_engine(Box::new(
        MessageEngine::new("process-net", net.clone(), placement, sim_cfg.clone())
            .map_err(sim_job_error)?,
    ));
    coord.set_tracer(tracer);
    if let Some(blob) = resume {
        codesign_replay::restore(&mut coord, None, blob).map_err(sim_job_error)?;
    }
    let started = std::time::Instant::now();
    // Only preempt a coordinator every engine can checkpoint; anything
    // else runs its slice to completion (same as before preemption
    // existed).
    let preemptable = slice.is_some() && coord.supports_snapshot();
    while !coord.is_done() {
        coord.run_one_round(sim_cfg.budget).map_err(sim_job_error)?;
        if preemptable && !coord.is_done() && started.elapsed() >= slice.unwrap() {
            return Ok(CosimProgress::Preempted(codesign_replay::snapshot(
                &coord, None,
            )));
        }
    }
    Ok(CosimProgress::Done(Box::new(CosimOutcome {
        hw_names,
        report,
        stats: coord.stats(),
        skew: coord.skew(),
    })))
}

/// The `cosim --json` report: message-level results plus coordinator
/// statistics, shared by the CLI flag and the served `cosim` job.
#[must_use]
pub fn cosim_report_json(system: &str, quantum: u64, outcome: &CosimOutcome) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": \"cosim\",\n");
    out.push_str(&format!("  \"system\": \"{}\",\n", escape(system)));
    out.push_str("  \"hw\": [");
    for (i, name) in outcome.hw_names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", escape(name)));
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"quantum\": {quantum},\n"));
    out.push_str(&format!(
        "  \"finish_time\": {},\n",
        outcome.report.finish_time
    ));
    out.push_str(&format!("  \"messages\": {},\n", outcome.report.messages));
    out.push_str(&format!("  \"bytes\": {},\n", outcome.report.bytes));
    out.push_str(&format!(
        "  \"cross_boundary_bytes\": {},\n",
        outcome.report.cross_boundary_bytes
    ));
    out.push_str(&format!("  \"events\": {},\n", outcome.report.events));
    out.push_str(&format!(
        "  \"coordinator\": {{\"sync_rounds\": {}, \"rounds_skipped\": {}, \
         \"cycles_leapt\": {}, \"time\": {}, \"skew\": {}}}\n",
        outcome.stats.sync_rounds,
        outcome.stats.rounds_skipped,
        outcome.stats.cycles_leapt,
        outcome.stats.time,
        outcome.skew
    ));
    out.push_str("}\n");
    out
}

/// Maps a [`SimError`] onto a [`JobError`] through the fault taxonomy:
/// the stable code comes from [`error_code`] and the transient bit from
/// [`retryable`], so the server retries exactly what a fault campaign
/// would classify as a transient hardware fault.
#[must_use]
pub fn sim_job_error(err: SimError) -> JobError {
    JobError {
        code: error_code(&err).to_string(),
        message: err.to_string(),
        transient: retryable(&err),
    }
}

// ---------------------------------------------------------------------------
// Typed parameter access: every malformed request dies with a named code.
// ---------------------------------------------------------------------------

fn param_str<'a>(req: &'a Request, key: &str) -> Result<Option<&'a str>, JobError> {
    match req.params.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| JobError::permanent("bad_field", format!("`{key}` must be a string"))),
    }
}

fn require_str<'a>(req: &'a Request, key: &str) -> Result<&'a str, JobError> {
    param_str(req, key)?
        .ok_or_else(|| JobError::permanent("missing_field", format!("`{key}` is required")))
}

/// An integer parameter constrained to `lo..=hi`; out-of-range values
/// are a `bad_field` error naming the bound, not a silent clamp.
fn param_u64(req: &Request, key: &str, lo: u64, hi: u64) -> Result<Option<u64>, JobError> {
    match req.params.get(key) {
        None => Ok(None),
        Some(v) => {
            let n = v.as_int().ok_or_else(|| {
                JobError::permanent("bad_field", format!("`{key}` must be an integer"))
            })?;
            let n = u64::try_from(n).map_err(|_| {
                JobError::permanent("bad_field", format!("`{key}` must be non-negative"))
            })?;
            if n < lo || n > hi {
                return Err(JobError::permanent(
                    "bad_field",
                    format!("`{key}` = {n} out of range {lo}..={hi}"),
                ));
            }
            Ok(Some(n))
        }
    }
}

fn param_bool(req: &Request, key: &str) -> Result<bool, JobError> {
    match req.params.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| JobError::permanent("bad_field", format!("`{key}` must be a boolean"))),
    }
}

fn load_spec(req: &Request) -> Result<SystemSpec, JobError> {
    let path = require_str(req, "spec")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| JobError::permanent("bad_spec", format!("cannot read `{path}`: {e}")))?;
    SystemSpec::parse(&text)
        .map_err(|e| JobError::permanent("bad_spec", format!("cannot parse `{path}`: {e}")))
}

/// Resolves the shared `objective`/`deadline` parameters exactly like
/// the CLI's `--objective`/`--deadline` flags (the deadline defaults to
/// the spec's `deadline` line).
fn objective_params(
    req: &Request,
    graph: &TaskGraph,
) -> Result<(Objective, Option<u64>), JobError> {
    let deadline = param_u64(req, "deadline", 0, u64::MAX)?.or_else(|| graph.deadline());
    let objective = match (param_str(req, "objective")?, deadline) {
        (Some("cost"), Some(d)) => Objective::cost_driven(d),
        (Some("concurrency"), Some(d)) => Objective::concurrency_aware(d),
        (Some("perf") | None, Some(d)) => Objective::performance_driven(d),
        (Some(o), Some(_)) => {
            return Err(JobError::permanent(
                "bad_field",
                format!("unknown objective `{o}`"),
            ))
        }
        (_, None) => Objective::default(),
    };
    Ok((objective, deadline))
}

// ---------------------------------------------------------------------------
// Chaos: a wedged engine that genuinely trips the watchdog.
// ---------------------------------------------------------------------------

/// An engine that accepts every horizon but never advances its clock —
/// the canonical no-progress pathology the coordinator's watchdog
/// exists to catch. Used by the `"stall"` chaos directive so served
/// watchdog failures exercise the real detection machinery rather than
/// a synthesized error.
#[derive(Debug)]
struct WedgedEngine;

impl SimEngine for WedgedEngine {
    fn name(&self) -> &str {
        "wedged"
    }
    fn local_time(&self) -> u64 {
        0
    }
    fn advance_to(&mut self, _t: u64) -> Result<(), SimError> {
        Ok(())
    }
    fn is_done(&self) -> bool {
        false
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Mounts a [`WedgedEngine`] under a watchdogged coordinator and
/// returns the resulting structured watchdog failure.
fn chaos_stall(tracer: &Tracer) -> JobError {
    let mut coord = Coordinator::new(8);
    coord.set_watchdog(Some(WatchdogConfig {
        max_stalled_rounds: 4,
    }));
    coord.add_engine(Box::new(WedgedEngine));
    coord.set_tracer(tracer);
    match coord.run(1_000_000) {
        Err(e) => sim_job_error(e),
        Ok(_) => JobError::permanent(
            "sim_error",
            "chaos stall failed to trip the watchdog (coordinator bug?)",
        ),
    }
}

// ---------------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------------

/// The job registry: runs `partition` / `explore` / `cosim` / `faults`
/// / `conform` requests with CLI-identical output bytes, a shared
/// eval-cache tenant store, and deterministic chaos directives.
#[derive(Debug)]
pub struct CodesignRunner {
    /// The multi-tenant warm cache. Shared with the CLI front end so it
    /// can be preloaded from — and crash-safely persisted to — a
    /// `--cache-file` across the whole serving session.
    store: Arc<EvalCache>,
    tracer: Tracer,
}

impl CodesignRunner {
    /// Creates a runner over a shared tenant store.
    #[must_use]
    pub fn new(store: Arc<EvalCache>, tracer: Tracer) -> Self {
        CodesignRunner { store, tracer }
    }

    /// The shared tenant store (for persistence after shutdown).
    #[must_use]
    pub fn store(&self) -> &Arc<EvalCache> {
        &self.store
    }

    fn job_partition(&self, req: &Request) -> Result<String, JobError> {
        let spec = load_spec(req)?;
        let graph = spec.task_graph().ok_or_else(|| {
            JobError::permanent(
                "bad_spec",
                "the spec declares no tasks; `partition` needs them",
            )
        })?;
        let (objective, deadline) = objective_params(req, graph)?;
        let shared;
        let naive = NaiveArea;
        let area: &dyn HwAreaModel = if param_bool(req, "sharing")? {
            shared = SharedArea::from_graph(graph);
            &shared
        } else {
            &naive
        };
        let config = EvalConfig::new(objective, area);
        let algorithm = param_str(req, "algorithm")?.unwrap_or("kl");
        let (partition, eval) = match algorithm {
            "kl" => kernighan_lin(graph, &config),
            "sw" => sw_first(graph, &config),
            "hw" => hw_first(graph, &config),
            "gclp" => gclp(graph, &config),
            "sa" => simulated_annealing(graph, &config, &AnnealingSchedule::default(), 1),
            "portfolio" => portfolio(graph, &config),
            other => {
                return Err(JobError::permanent(
                    "bad_field",
                    format!("unknown algorithm `{other}`"),
                ))
            }
        }
        .map_err(|e| JobError::permanent("partition_error", e.to_string()))?;
        Ok(partition_report_json(
            spec.name(),
            algorithm,
            graph,
            &partition,
            &eval,
            deadline,
        ))
    }

    fn job_explore(&self, req: &Request) -> Result<String, JobError> {
        let spec = load_spec(req)?;
        let graph = spec.task_graph().ok_or_else(|| {
            JobError::permanent(
                "bad_spec",
                "the spec declares no tasks; `explore` needs them",
            )
        })?;
        let (objective, _) = objective_params(req, graph)?;
        let space_cfg = SpaceConfig {
            objective,
            sharing_aware: param_bool(req, "sharing")?,
            ..SpaceConfig::default()
        };
        let space = DesignSpace::new(graph.clone(), space_cfg);
        let cfg = ExploreConfig {
            seed: param_u64(req, "seed", 0, u64::MAX)?.unwrap_or(42),
            budget: param_u64(req, "budget", 1, 1_000_000)?.unwrap_or(256),
            threads: 1,
            workers: param_u64(req, "workers", 1, 64)?.unwrap_or(8) as usize,
            eval_mode: EvalMode::Delta,
            ..ExploreConfig::default()
        };
        // Tenant hand-off: warm a private cache from the shared store,
        // explore, then merge this job's fresh evaluations back.
        let cache = EvalCache::new();
        for (key, score) in self.store.entries() {
            cache.preload(key, score);
        }
        let outcome = explore_with_cache(&space, &cfg, cache, &self.tracer);
        for (key, score) in outcome.cache.session_entries() {
            self.store.insert(key, score);
        }
        Ok(outcome.report_json(&space, &cfg))
    }

    fn job_cosim(&self, req: &Request) -> Result<String, JobError> {
        match self.job_cosim_sliced(req, None, None)? {
            RunOutcome::Done(out) => Ok(out),
            RunOutcome::Preempted { .. } => unreachable!("no slice means no preemption"),
        }
    }

    /// The served `cosim` job, preemptable: with a `slice` set, a run
    /// that overshoots it checkpoints and returns
    /// [`RunOutcome::Preempted`] for the server to requeue.
    fn job_cosim_sliced(
        &self,
        req: &Request,
        resume: Option<&[u8]>,
        slice: Option<std::time::Duration>,
    ) -> Result<RunOutcome, JobError> {
        let spec = load_spec(req)?;
        let net = spec.network().ok_or_else(|| {
            JobError::permanent(
                "bad_spec",
                "the spec declares no processes; `cosim` needs them",
            )
        })?;
        let max_hw = net.len() as u64;
        let params = CosimParams {
            hw: param_str(req, "hw")?
                .map(|v| v.split(',').map(ToString::to_string).collect())
                .unwrap_or_default(),
            budget: param_u64(req, "budget", 1, max_hw)?.map(|n| n as usize),
            quantum: param_u64(req, "quantum", 1, 1_000_000)?.unwrap_or(16),
        };
        match run_cosim_sliced(net, &params, &self.tracer, resume, slice)? {
            CosimProgress::Done(outcome) => Ok(RunOutcome::Done(cosim_report_json(
                spec.name(),
                params.quantum,
                &outcome,
            ))),
            CosimProgress::Preempted(state) => Ok(RunOutcome::Preempted { state }),
        }
    }

    fn job_faults(&self, req: &Request) -> Result<String, JobError> {
        let config = CampaignConfig {
            seeds: param_u64(req, "seeds", 1, 10_000)?.unwrap_or(32),
            seed_base: param_u64(req, "seed_base", 0, u64::MAX)?.unwrap_or(0xC0DE),
            scenario: param_str(req, "scenario")?.map(ToString::to_string),
            ..CampaignConfig::default()
        };
        let report = run_campaign_traced(&config, &self.tracer)
            .map_err(|e| JobError::permanent("campaign_error", e))?;
        Ok(report.to_json())
    }

    fn job_conform(&self, req: &Request) -> Result<String, JobError> {
        use codesign_conform::sweep::{report_json, run_sweep, SweepConfig};
        let cfg = SweepConfig {
            systems: param_u64(req, "systems", 1, 100_000)?.unwrap_or(40) as usize,
            seed: param_u64(req, "seed", 0, u64::MAX)?.unwrap_or(42),
            threads: 1,
            ..SweepConfig::default()
        };
        let report =
            run_sweep(&cfg).map_err(|e| JobError::permanent("conform_error", e.to_string()))?;
        Ok(report_json(&cfg, &report))
    }
}

impl JobRunner for CodesignRunner {
    fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError> {
        // Chaos directives first: they are the failure-injection surface
        // the chaos benchmark drives, and they must behave identically
        // whatever job kind they ride on.
        if let Some(chaos) = request.chaos.as_deref() {
            match chaos {
                "panic" => panic!("chaos: deliberate panic in job `{}`", request.id),
                "stall" => return Err(chaos_stall(&self.tracer)),
                other => {
                    if let Some(k) = other.strip_prefix("transient:") {
                        let k: u32 = k.parse().map_err(|_| {
                            JobError::permanent(
                                "bad_field",
                                format!("`chaos` transient count `{k}` is not an integer"),
                            )
                        })?;
                        if attempt <= k {
                            return Err(JobError::transient(
                                "hardware_fault",
                                format!("chaos: injected transient fault (attempt {attempt}/{k})"),
                            ));
                        }
                        // Healed: fall through to the real job.
                    } else {
                        return Err(JobError::permanent(
                            "bad_field",
                            format!("unknown chaos directive `{other}`"),
                        ));
                    }
                }
            }
        }
        match request.kind.as_str() {
            "partition" => self.job_partition(request),
            "explore" => self.job_explore(request),
            "cosim" => self.job_cosim(request),
            "faults" => self.job_faults(request),
            "conform" => self.job_conform(request),
            other => Err(JobError::permanent(
                "unknown_kind",
                format!("unknown job kind `{other}` (partition|explore|cosim|faults|conform)"),
            )),
        }
    }

    /// Checkpoint preemption for long co-simulations: once a `cosim`
    /// job with a `deadline_ms` has started running, the deadline means
    /// its *execution slice* — overshooting it checkpoints and requeues
    /// instead of dropping the job. Every other kind (and every chaos
    /// job) runs to completion as before.
    fn run_slice(
        &self,
        request: &Request,
        attempt: u32,
        resume: Option<&[u8]>,
    ) -> Result<RunOutcome, JobError> {
        if request.kind == "cosim" && request.chaos.is_none() {
            if let Some(ms) = request.deadline_ms {
                return self.job_cosim_sliced(
                    request,
                    resume,
                    Some(std::time::Duration::from_millis(ms)),
                );
            }
        }
        self.run(request, attempt).map(RunOutcome::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(kind: &str, params: &[(&str, codesign_serve::Value)]) -> Request {
        Request {
            id: "t".to_string(),
            kind: kind.to_string(),
            priority: codesign_serve::Priority::Normal,
            deadline_ms: None,
            chaos: None,
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }
    }

    fn runner() -> CodesignRunner {
        CodesignRunner::new(Arc::new(EvalCache::new()), Tracer::off())
    }

    fn spec_file() -> String {
        // The repo's example specs double as serving fixtures.
        let root = env!("CARGO_MANIFEST_DIR");
        format!("{root}/../../examples/specs/audio_codec.cds")
    }

    #[test]
    fn unknown_kind_and_missing_spec_get_named_codes() {
        let r = runner();
        let err = r.run(&request("frobnicate", &[]), 1).unwrap_err();
        assert_eq!(err.code, "unknown_kind");
        let err = r.run(&request("partition", &[]), 1).unwrap_err();
        assert_eq!(err.code, "missing_field");
    }

    #[test]
    fn out_of_range_budget_is_a_bad_field() {
        use codesign_serve::Value;
        let r = runner();
        let req = request(
            "explore",
            &[("spec", Value::Str(spec_file())), ("budget", Value::Int(0))],
        );
        let err = r.run(&req, 1).unwrap_err();
        assert_eq!(err.code, "bad_field");
        assert!(err.message.contains("out of range"), "{}", err.message);
    }

    #[test]
    fn partition_job_matches_the_shared_renderer() {
        use codesign_serve::Value;
        let r = runner();
        let req = request("partition", &[("spec", Value::Str(spec_file()))]);
        let served = r.run(&req, 1).expect("partition job runs");
        // Recompute directly through the same flow the CLI uses.
        let text = std::fs::read_to_string(spec_file()).unwrap();
        let spec = SystemSpec::parse(&text).unwrap();
        let graph = spec.task_graph().unwrap();
        let (objective, deadline) = {
            let d = graph.deadline();
            (
                d.map_or_else(Objective::default, Objective::performance_driven),
                d,
            )
        };
        let naive = NaiveArea;
        let config = EvalConfig::new(objective, &naive);
        let (partition, eval) = kernighan_lin(graph, &config).unwrap();
        let direct = partition_report_json(spec.name(), "kl", graph, &partition, &eval, deadline);
        assert_eq!(served, direct, "served bytes must equal the CLI renderer's");
    }

    #[test]
    fn explore_jobs_share_the_tenant_store() {
        use codesign_serve::Value;
        let r = runner();
        let req = request(
            "explore",
            &[
                ("spec", Value::Str(spec_file())),
                ("budget", Value::Int(24)),
            ],
        );
        let first = r.run(&req, 1).expect("first explore runs");
        let warmed = r.store().len();
        assert!(warmed > 0, "first job must warm the store");
        let second = r.run(&req, 1).expect("second explore runs");
        // Same seed/budget → identical report, now served from a warm
        // store (the report is cache-origin invariant by design).
        assert_eq!(first, second);
    }

    #[test]
    fn chaos_stall_trips_the_real_watchdog() {
        let mut req = request("cosim", &[]);
        req.chaos = Some("stall".to_string());
        let err = runner().run(&req, 1).unwrap_err();
        assert_eq!(err.code, "watchdog");
        assert!(!err.transient, "watchdog trips are not retryable");
    }

    #[test]
    fn chaos_transient_heals_after_k_attempts() {
        use codesign_serve::Value;
        let mut req = request("partition", &[("spec", Value::Str(spec_file()))]);
        req.chaos = Some("transient:2".to_string());
        let r = runner();
        assert_eq!(r.run(&req, 1).unwrap_err().code, "hardware_fault");
        assert_eq!(r.run(&req, 2).unwrap_err().code, "hardware_fault");
        assert!(r.run(&req, 3).is_ok(), "attempt 3 must heal");
    }

    fn process_spec_file() -> String {
        let root = env!("CARGO_MANIFEST_DIR");
        format!("{root}/../../examples/specs/camera_node.cds")
    }

    #[test]
    fn cosim_job_reports_coordinator_stats() {
        use codesign_serve::Value;
        let req = request("cosim", &[("spec", Value::Str(process_spec_file()))]);
        let out = runner().run(&req, 1).expect("cosim job runs");
        assert!(out.contains("\"command\": \"cosim\""), "{out}");
        assert!(out.contains("\"coordinator\""), "{out}");
    }

    #[test]
    fn preempted_cosim_resumes_to_byte_identical_output() {
        use codesign_serve::Value;
        let r = runner();
        let mut req = request("cosim", &[("spec", Value::Str(process_spec_file()))]);
        let full = r.run(&req, 1).expect("unsliced cosim runs");

        // A zero-length slice preempts after every coordination round:
        // the worst case for checkpoint fidelity.
        req.deadline_ms = Some(0);
        let mut resume: Option<Vec<u8>> = None;
        let mut preemptions = 0u32;
        let sliced = loop {
            match r.run_slice(&req, 1, resume.as_deref()).expect("slice runs") {
                RunOutcome::Done(out) => break out,
                RunOutcome::Preempted { state } => {
                    preemptions += 1;
                    assert!(preemptions < 10_000, "cosim never completes");
                    resume = Some(state);
                }
            }
        };
        assert!(preemptions > 0, "a zero slice must preempt at least once");
        assert_eq!(sliced, full, "resumed run must render identical bytes");
    }
}
