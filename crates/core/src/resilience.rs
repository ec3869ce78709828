//! Deterministic fault-injection campaigns over the framework's
//! co-simulation scenarios.
//!
//! A campaign sweeps seeds over four scenarios, one per rung of the
//! paper's abstraction ladder (Figure 3) plus the Figure 8 coprocessor
//! system:
//!
//! | scenario | fault surface | typical failure shape |
//! |---|---|---|
//! | `ladder_message` | dropped/duplicated/delayed sends | lost rendezvous → deadlock (detected) |
//! | `ladder_register` | corrupt/bit-flipped FIFO registers, stuck bus | spun polls → budget timeout, or silent cycle skew |
//! | `ladder_irq` | dropped/spurious/duplicated timer IRQs | extra or late ISR entries → cycle skew |
//! | `dsp_coprocessor` | transient/stuck coprocessor engine | retried faults (recovered) or hang → watchdog |
//!
//! Each scenario first runs fault-free to fingerprint the *golden*
//! end-state, then once per seed with the plan armed; the coordinator
//! runs with its no-progress watchdog on and (where engines can fault
//! transiently) a bounded retry policy. [`classify`] buckets every run
//! — masked, recovered, detected, hung-but-caught, or silently
//! corrupted — and the tallies render as `BENCH_faults.json` via
//! [`CampaignReport::to_json`].
//!
//! Everything is deterministic: seeds drive all randomness, no wall
//! clock is read, and identical configs produce byte-identical reports.

use std::fmt::Write as _;

use codesign_fault::{
    classify, shared, CampaignReport, FaultPlan, FaultyEngine, FaultyPhy, FaultySlave,
    MessageFaultHook, ScenarioReport, SharedInjector,
};
use codesign_hls::{synthesize, Constraints};
use codesign_ir::workload::kernels;
use codesign_isa::asm::assemble;
use codesign_isa::cpu::{Cpu, MMIO_BASE};
use codesign_rtl::bus::{timer_regs, BusTiming, DrainFifo, SystemBus, Timer};
use codesign_rtl::fsmd::FsmdSim;
use codesign_sim::adapters::{CpuEngine, FsmdEngine};
use codesign_sim::engine::{Coordinator, RetryPolicy};
use codesign_sim::error::SimError;
use codesign_sim::fingerprint::coordinator_fingerprint;
use codesign_sim::ladder::{system_network, system_program, LadderConfig};
use codesign_sim::message::{MessageConfig, MessageEngine};
use codesign_synth::coproc::{characterize, Application};
use codesign_synth::mthread::placement_for;
use codesign_trace::Tracer;

/// Global cycle budget per run; generous for healthy runs, and the
/// backstop that converts fault-induced spins into `Budget` errors.
const BUDGET: u64 = 5_000_000;
/// Coordinator synchronization quantum (the `codesign cosim` default).
const QUANTUM: u64 = 16;
/// Per-`advance_to` transient-fault rate for the engine-level surface
/// (exercises the coordinator's retry path) when a plan is armed. The
/// synthesized FSMD finishes within a handful of coordination rounds,
/// so the per-round rates are high to land faults inside that window.
const ENGINE_TRANSIENT: f64 = 0.15;
/// Per-`advance_to` permanent-stall rate for the engine-level surface
/// (exercises the watchdog path) when a plan is armed.
const ENGINE_STALL: f64 = 0.08;

/// Every campaign scenario, in report order.
pub const SCENARIOS: [&str; 4] = [
    "ladder_message",
    "ladder_register",
    "ladder_irq",
    "dsp_coprocessor",
];

/// Campaign sweep parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Seeded runs per scenario; run `i` uses `seed_base + i`.
    pub seeds: u64,
    /// First seed of the sweep.
    pub seed_base: u64,
    /// The fault plan armed for seeded runs.
    pub plan: FaultPlan,
    /// Restrict the sweep to one scenario (a [`SCENARIOS`] entry).
    pub scenario: Option<String>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seeds: 32,
            seed_base: 0xC0DE,
            plan: FaultPlan::standard(),
            scenario: None,
        }
    }
}

/// One run's observables: the fingerprint (or error), faults injected,
/// and coordinator retries consumed.
struct RunOutcome {
    result: Result<String, SimError>,
    faults: u64,
    retries: u64,
}

/// Runs a prepared coordinator to completion and packages the outcome.
/// End states are fingerprinted with the shared
/// [`coordinator_fingerprint`] (also the observable replay bisection
/// compares), which excludes engine local clocks — a retry backoff
/// shifts the horizon an engine last saw without changing what it
/// computed, and that scheduling skew must not read as corruption.
fn finish(mut coord: Coordinator, injector: &SharedInjector) -> RunOutcome {
    let result = coord
        .run(BUDGET)
        .map(|stats| coordinator_fingerprint(&coord, stats.time));
    RunOutcome {
        result,
        faults: injector.borrow().count(),
        retries: coord.stats().retries,
    }
}

/// A coordinator in the campaign's default coordination mode, or — for
/// replay bisection, which needs round `i` to mean the same horizon in
/// every run — on the fixed lockstep grid.
fn base_coord(lockstep: bool) -> Coordinator {
    if lockstep {
        Coordinator::lockstep(QUANTUM)
    } else {
        Coordinator::new(QUANTUM)
    }
}

/// The ladder as a message-level process network with send faults.
fn build_ladder_message(
    plan: &FaultPlan,
    injector: &SharedInjector,
    lockstep: bool,
) -> Coordinator {
    let spec = LadderConfig::default()
        .spec()
        .expect("the default ladder is valid");
    let (net, placement, config) = system_network(&spec);
    let mut engine =
        MessageEngine::new("ladder", net, placement, config).expect("ladder placement is valid");
    engine.set_faults(Box::new(MessageFaultHook::new(plan, injector.clone())));
    let mut coord = base_coord(lockstep);
    coord.add_engine(Box::new(engine));
    coord
}

/// The ladder's register level: the CR32 producer polling a FIFO whose
/// registers (and bus transactions) can fault.
fn build_ladder_register(
    plan: &FaultPlan,
    injector: &SharedInjector,
    lockstep: bool,
) -> Coordinator {
    let cfg = LadderConfig::default();
    let mut bus = SystemBus::new(BusTiming::default());
    bus.map(
        0x0,
        0x100,
        Box::new(FaultySlave::new(
            Box::new(DrainFifo::new(cfg.fifo_capacity, cfg.drain_period)),
            *plan,
            injector.clone(),
        )),
    )
    .expect("fifo mapping is valid");
    bus.set_phy(Box::new(FaultyPhy::new(
        BusTiming::default(),
        *plan,
        injector.clone(),
    )));
    let spec = cfg.spec().expect("the default ladder is valid");
    let program = assemble(&system_program(&spec)).expect("producer program assembles");
    let mut cpu = Cpu::new(4096);
    cpu.attach_bus(bus);
    cpu.load_program(&program);
    let mut coord = base_coord(lockstep);
    coord.set_retry(Some(RetryPolicy::default()));
    coord.add_engine(Box::new(CpuEngine::new("cpu", cpu)));
    coord
}

/// The interrupt rung: a timer ISR counting four auto-reload periods,
/// with the timer's IRQ line (and registers) subject to faults.
fn build_ladder_irq(plan: &FaultPlan, injector: &SharedInjector, lockstep: bool) -> Coordinator {
    let mut bus = SystemBus::new(BusTiming::default());
    bus.map(
        0x0,
        0x10,
        Box::new(FaultySlave::new(
            Box::new(Timer::new()),
            *plan,
            injector.clone(),
        )),
    )
    .expect("timer mapping is valid");
    // Timer at period 50, auto-reload; the ISR counts interrupts in
    // memory word 8 and the main loop halts after four.
    let src = format!(
        ".vector isr\n\
         li r1, {base}\n\
         li r2, 50\n\
         sw r2, r1, {load}\n\
         li r2, 7\n\
         sw r2, r1, {ctrl}\n\
         li r6, 4\n\
         ei\n\
         spin: ld r3, r0, 8\n\
         bge r3, r6, done\n\
         beq r0, r0, spin\n\
         done: halt\n\
         isr: ld r4, r0, 8\n\
         addi r4, r4, 1\n\
         sd r4, r0, 8\n\
         li r5, {base}\n\
         sw r5, r5, {ack}\n\
         rti\n",
        base = MMIO_BASE,
        load = timer_regs::LOAD,
        ctrl = timer_regs::CTRL,
        ack = timer_regs::ACK,
    );
    let program = assemble(&src).expect("irq program assembles");
    let mut cpu = Cpu::new(4096);
    cpu.attach_bus(bus);
    cpu.load_program(&program);
    let mut coord = base_coord(lockstep);
    coord.set_retry(Some(RetryPolicy::default()));
    coord.add_engine(Box::new(CpuEngine::new("cpu", cpu)));
    coord
}

/// The Figure 8 coprocessor system: the characterized DSP pipeline
/// co-simulating with the synthesized `dct8` FSMD behind an
/// engine-level fault wrapper — transient faults retried by the
/// coordinator (the *recovered* class when absorbed cleanly),
/// permanent stalls caught by the watchdog. Message faults are left
/// quiet here so the engine-level surface is observed in isolation;
/// `ladder_message` owns the send-fault surface.
fn build_dsp_coprocessor(
    plan: &FaultPlan,
    injector: &SharedInjector,
    lockstep: bool,
) -> Coordinator {
    let app = characterize(&Application::dsp_suite()).expect("dsp suite characterizes");
    let (net, speedups) = codesign_synth::coproc::process_network(&app, 12, 8);
    let mut by_compute: Vec<usize> = (0..net.len().saturating_sub(1)).collect();
    by_compute.sort_by_key(|&i| {
        std::cmp::Reverse(
            net.process(codesign_ir::process::ProcessId::from_index(i))
                .total_compute(),
        )
    });
    let hw: Vec<usize> = by_compute.into_iter().take(2).collect();
    let placement = placement_for(&net, &hw);
    let config = MessageConfig {
        hw_speedups: Some(speedups),
        ..MessageConfig::default()
    };
    let msg =
        MessageEngine::new("dsp-net", net, placement, config).expect("dsp placement is valid");

    let synth = synthesize(&kernels::dct8(), &Constraints::default()).expect("dct8 synthesizes");
    let mut fsmd = FsmdSim::new(synth.fsmd).expect("dct8 FSMD simulates");
    fsmd.start(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let (transient, stall) = if plan.is_empty() {
        (0.0, 0.0)
    } else {
        (ENGINE_TRANSIENT, ENGINE_STALL)
    };
    let coproc = FaultyEngine::new(
        Box::new(FsmdEngine::new("dct8", fsmd)),
        injector.clone(),
        transient,
        stall,
    );

    let mut coord = base_coord(lockstep);
    coord.set_retry(Some(RetryPolicy::default()));
    coord.add_engine(Box::new(msg));
    coord.add_engine(Box::new(coproc));
    coord
}

/// Runs one campaign scenario on the default lookahead coordinator,
/// mirroring its fault records as trace instants on a per-run
/// `faults:{scenario}:s{seed}` track (no-op when `tracer` is off;
/// tracing is observational only).
fn run_scenario(name: &str, plan: &FaultPlan, seed: u64, tracer: &Tracer) -> RunOutcome {
    let (coord, injector) =
        build_scenario(name, plan, seed, false).expect("campaign scenarios are known");
    if tracer.is_on() {
        injector
            .borrow_mut()
            .set_tracer(tracer, &format!("faults:{name}:s{seed}"));
    }
    finish(coord, &injector)
}

/// Builds one campaign scenario *without running it*: the coordinator
/// plus the seeded injector driving its fault wrappers. This is the
/// factory replay bisection uses — `codesign faults --bisect` builds
/// the same scenario twice (quiet plan vs armed plan, same seed) and
/// binary-searches their checkpoint histories for the first divergent
/// round. `lockstep` pins the coordination to the fixed quantum grid so
/// round indices align between the two runs (the campaign itself keeps
/// the default lookahead mode).
///
/// # Errors
///
/// Returns an error naming the scenario if it is not one of
/// [`SCENARIOS`].
pub fn build_scenario(
    name: &str,
    plan: &FaultPlan,
    seed: u64,
    lockstep: bool,
) -> Result<(Coordinator, SharedInjector), String> {
    let injector = shared(seed);
    let coord = match name {
        "ladder_message" => build_ladder_message(plan, &injector, lockstep),
        "ladder_register" => build_ladder_register(plan, &injector, lockstep),
        "ladder_irq" => build_ladder_irq(plan, &injector, lockstep),
        "dsp_coprocessor" => build_dsp_coprocessor(plan, &injector, lockstep),
        other => {
            return Err(format!(
                "unknown scenario `{other}` (expected one of {SCENARIOS:?})"
            ))
        }
    };
    Ok((coord, injector))
}

/// The simulated-time budget campaign runs use; exported so replay
/// bisection converts the same fault-induced spins into
/// [`SimError::Budget`] instead of probing forever.
pub const RUN_BUDGET: u64 = BUDGET;

/// Runs the campaign: golden run plus `config.seeds` seeded runs per
/// scenario, classified against the golden fingerprint. Every injected
/// fault of a seeded run is mirrored as a trace instant on a per-run
/// `faults:{scenario}:s{seed}` track; tracing is observational only, so
/// the report is identical with [`Tracer::off`].
///
/// # Errors
///
/// Returns an error if `config.scenario` names no known scenario, or
/// if a golden (fault-free) run fails — both configuration mistakes,
/// not injected faults.
pub fn run_campaign(config: &CampaignConfig, tracer: &Tracer) -> Result<CampaignReport, String> {
    let selected: Vec<&str> = match &config.scenario {
        Some(name) => {
            let name = name.as_str();
            if !SCENARIOS.contains(&name) {
                return Err(format!(
                    "unknown scenario `{name}`; known: {}",
                    SCENARIOS.join(", ")
                ));
            }
            vec![SCENARIOS
                .iter()
                .copied()
                .find(|s| *s == name)
                .expect("checked above")]
        }
        None => SCENARIOS.to_vec(),
    };
    let mut scenarios = Vec::new();
    for name in selected {
        let golden = run_scenario(name, &FaultPlan::quiet(), config.seed_base, &Tracer::off());
        let golden_fp = match golden.result {
            Ok(fp) => fp,
            Err(e) => return Err(format!("golden run of `{name}` failed: {e}")),
        };
        if golden.faults != 0 {
            return Err(format!("golden run of `{name}` injected faults"));
        }
        let mut report = ScenarioReport::new(name);
        for i in 0..config.seeds {
            let outcome = run_scenario(name, &config.plan, config.seed_base + i, tracer);
            report.add(classify(&outcome.result, &golden_fp, outcome.retries));
            report.faults_injected += outcome.faults;
        }
        scenarios.push(report);
    }
    Ok(CampaignReport {
        seed_base: config.seed_base,
        seeds: config.seeds,
        scenarios,
    })
}

/// Renders a campaign report as an aligned text table (the `codesign
/// faults` output).
#[must_use]
pub fn campaign_table(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>16} | {:>5} | {:>6} | {:>9} | {:>8} | {:>8} | {:>9} | {:>7}",
        "scenario", "runs", "masked", "recovered", "detected", "watchdog", "corrupted", "faults"
    );
    for s in &report.scenarios {
        let _ = writeln!(
            out,
            "{:>16} | {:>5} | {:>6} | {:>9} | {:>8} | {:>8} | {:>9} | {:>7}",
            s.scenario,
            s.total(),
            s.masked,
            s.recovered,
            s.detected,
            s.watchdog,
            s.corrupted,
            s.faults_injected
        );
    }
    out
}

/// Re-exported so harnesses can assert on classes without another
/// import path.
pub use codesign_fault::RunClass as Class;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_runs_are_fault_free_and_reproducible() {
        for name in SCENARIOS {
            let a = run_scenario(name, &FaultPlan::quiet(), 1, &Tracer::off());
            let b = run_scenario(name, &FaultPlan::quiet(), 2, &Tracer::off());
            assert_eq!(a.faults, 0, "{name}");
            assert_eq!(a.retries, 0, "{name}");
            // Quiet runs ignore the seed entirely.
            assert_eq!(
                a.result.as_ref().expect("golden completes"),
                b.result.as_ref().expect("golden completes"),
                "{name}"
            );
        }
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let plan = FaultPlan::standard();
        for name in SCENARIOS {
            let a = run_scenario(name, &plan, 7, &Tracer::off());
            let b = run_scenario(name, &plan, 7, &Tracer::off());
            assert_eq!(a.result, b.result, "{name}");
            assert_eq!(a.faults, b.faults, "{name}");
            assert_eq!(a.retries, b.retries, "{name}");
        }
    }

    #[test]
    fn small_campaign_counts_sum_and_serialize() {
        let config = CampaignConfig {
            seeds: 4,
            scenario: Some("ladder_message".into()),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config, &Tracer::off()).expect("campaign runs");
        assert_eq!(report.scenarios.len(), 1);
        assert_eq!(report.scenarios[0].total(), 4);
        let json = report.to_json();
        assert!(json.contains("ladder_message"));
        let table = campaign_table(&report);
        assert!(table.contains("ladder_message"));
    }

    #[test]
    fn tracing_is_observational_and_valid() {
        let config = CampaignConfig {
            seeds: 3,
            scenario: Some("ladder_message".into()),
            ..CampaignConfig::default()
        };
        let tracer = Tracer::on();
        let traced = run_campaign(&config, &tracer).expect("traced campaign runs");
        let plain = run_campaign(&config, &Tracer::off()).expect("plain campaign runs");
        assert_eq!(traced.to_json(), plain.to_json(), "tracing changed results");
        assert_eq!(
            u64::try_from(tracer.event_count()).unwrap_or(u64::MAX) > 0,
            traced.scenarios[0].faults_injected > 0,
            "one instant per injected fault"
        );
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json())
            .expect("campaign trace validates");
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let config = CampaignConfig {
            scenario: Some("ladder_nonsense".into()),
            ..CampaignConfig::default()
        };
        let err = run_campaign(&config, &Tracer::off()).unwrap_err();
        assert!(err.contains("unknown scenario"));
        assert!(err.contains("ladder_message"), "error lists the options");
    }
}
