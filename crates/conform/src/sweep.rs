//! The deterministic N-system conformance campaign.
//!
//! Each sweep index derives its own generator configuration from the
//! campaign seed (via splitmix64), realizes the system at all four
//! levels, and checks every architected observable. Interleaved with the
//! per-system checks:
//!
//! * every 17th index runs a **degenerate shape** (all-floors, maximum
//!   back-pressure, maximum width, IRQ-only) instead of a random draw —
//!   corners are where abstractions crack;
//! * every 13th index also runs an **engine-parity differential**: the
//!   one-shot message simulator against the event-driven
//!   [`MessageEngine`](codesign_sim::message::MessageEngine) on a random
//!   TGFF process network (finish-time is compared exactly; it is part
//!   of the parity contract between the two kernels);
//! * every 29th index runs a clean
//!   ISS-vs-pin **lockstep** pass, after the deliberate-fault
//!   [`self_test`](crate::lockstep::self_test) has proven the checker
//!   can see faults at all.
//!
//! Work is claimed by an atomic counter and merged back in index order,
//! so the report is **byte-identical at any thread count** — the
//! parallelism is an implementation detail, not an input.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use codesign_ir::workload::sysgen::{
    random_placement_flags, random_system, SysConfig, MAX_IRQ_BYTES,
};
use codesign_ir::workload::tgff::{random_process_network, NetworkConfig};
use codesign_sim::engine::SimEngine;
use codesign_sim::ladder::AbstractionLevel;
use codesign_sim::message::{simulate, MessageConfig, MessageEngine, Placement, Resource};
pub use codesign_sim::trace::hash::splitmix64;
use codesign_sim::trace::json::escape;
use codesign_sim::trace::Tracer;

use crate::lockstep::{self, LockstepConfig, LockstepOutcome};
use crate::observables::{check, level_errors, Divergence};
use crate::runner::run_system;
use crate::ConformError;

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Systems to generate and check.
    pub systems: usize,
    /// Campaign seed; per-system seeds derive from it.
    pub seed: u64,
    /// Worker threads (values below 1 are treated as 1). Does not
    /// affect the report's bytes.
    pub threads: usize,
    /// Whether lockstep passes (and the up-front self-test) run.
    pub lockstep: bool,
}

/// With [`SweepConfig::lockstep`] on, a lockstep pass runs every
/// this-many systems.
const LOCKSTEP_EVERY: usize = 29;

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            systems: 100,
            seed: 42,
            threads: 1,
            lockstep: true,
        }
    }
}

/// Per-level cycle-error statistics over the whole campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelErrorStat {
    /// The level above pin.
    pub level: AbstractionLevel,
    /// Largest relative error observed.
    pub max: f64,
    /// Mean relative error (0 for an empty campaign).
    pub mean: f64,
}

/// The campaign's complete, thread-count-independent result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Systems checked.
    pub systems: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Every divergence, in system-index order.
    pub divergences: Vec<Divergence>,
    /// Cycle-error statistics for register, driver, message.
    pub level_errors: [LevelErrorStat; 3],
    /// Payload bytes moved across all systems (pin-level measurement).
    pub total_bytes: u64,
    /// Interrupts taken across all systems (pin-level measurement).
    pub total_irqs: u64,
    /// Messages delivered across all systems (message level).
    pub total_messages: u64,
    /// Degenerate-shape systems among the total.
    pub degenerate_systems: u64,
    /// Engine-parity differentials run.
    pub engine_diffs: u64,
    /// Clean lockstep passes run.
    pub lockstep_runs: u64,
    /// Instructions retired under lockstep comparison.
    pub lockstep_instructions: u64,
}

/// The generator configuration for one sweep index — reproducible from
/// `(campaign seed, index)` alone, which is what makes a reported
/// divergence a one-line repro.
#[must_use]
pub fn sys_config(campaign_seed: u64, index: usize) -> SysConfig {
    let seed = splitmix64(campaign_seed.wrapping_add(index as u64));
    if index % 17 == 16 {
        return degenerate_config(seed, index / 17);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    SysConfig {
        channels: rng.gen_range(1..=4),
        iterations: rng.gen_range(1..=6),
        max_message_words: rng.gen_range(1..=8),
        max_compute: rng.gen_range(0..=300),
        max_fifo_capacity: rng.gen_range(1..=16),
        max_drain_period: rng.gen_range(1..=12),
        extra_devices: rng.gen_range(0..=3),
        max_irq_bytes: rng.gen_range(0..=6),
        seed,
    }
}

/// Whether [`sys_config`] yields a degenerate corner at this index.
#[must_use]
pub fn is_degenerate(index: usize) -> bool {
    index % 17 == 16
}

/// The four degenerate corner shapes, cycled by occurrence.
fn degenerate_config(seed: u64, occurrence: usize) -> SysConfig {
    let floors = SysConfig {
        channels: 1,
        iterations: 1,
        max_message_words: 1,
        max_compute: 0,
        max_fifo_capacity: 1,
        max_drain_period: 1,
        extra_devices: 0,
        max_irq_bytes: 0,
        seed,
    };
    match occurrence % 4 {
        0 => floors,
        // Maximum back-pressure: one-word FIFO, slow drain, fat messages.
        1 => SysConfig {
            max_message_words: 8,
            max_drain_period: 12,
            iterations: 4,
            ..floors
        },
        // Maximum width, minimum depth.
        2 => SysConfig {
            channels: 8,
            ..floors
        },
        // IRQ-saturated: the UART dominates the run.
        _ => SysConfig {
            max_irq_bytes: MAX_IRQ_BYTES,
            iterations: 2,
            ..floors
        },
    }
}

/// True when the system at `cfg` fails conformance — generation or
/// realization errors count as failures. This is the predicate handed
/// to [`shrink`](crate::shrink::shrink).
#[must_use]
pub fn conformance_fails(cfg: &SysConfig) -> bool {
    let Ok(spec) = random_system(cfg) else {
        return true;
    };
    let Ok(run) = run_system(&spec) else {
        return true;
    };
    !check(&spec, &run).is_empty()
}

/// One index's contribution, merged in index order.
#[derive(Debug, Clone)]
struct PerSystem {
    divergences: Vec<Divergence>,
    errs: [(AbstractionLevel, f64); 3],
    bytes: u64,
    irqs: u64,
    messages: u64,
    degenerate: bool,
    engine_diff: bool,
    lockstep_instructions: Option<u64>,
}

fn harness_error(seed: u64, stage: &'static str, e: &ConformError) -> Divergence {
    Divergence {
        seed,
        check: "harness-error",
        detail: format!("{stage}: {e}"),
    }
}

/// Compares the one-shot simulator and the event-driven engine on a
/// random process network derived from `seed`.
fn engine_parity(seed: u64, out: &mut Vec<Divergence>) {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xE261_0E5F));
    let net_cfg = NetworkConfig {
        processes: rng.gen_range(2..=6),
        channel_prob: 0.4,
        compute: (10, 500),
        bytes: (4, 64),
        iterations: rng.gen_range(1..=8),
        seed: splitmix64(seed),
    };
    let net = random_process_network(&net_cfg);
    let flags = random_placement_flags(net.len(), splitmix64(seed ^ 0x9A9A));
    let placement = Placement::from_assignment(
        flags
            .iter()
            .map(|&hw| {
                if hw {
                    Resource::Hardware(0)
                } else {
                    Resource::Software(0)
                }
            })
            .collect(),
    );
    let config = MessageConfig::default();
    let oneshot = match simulate(&net, &placement, &config, &Tracer::off()) {
        Ok(r) => r,
        Err(e) => {
            out.push(Divergence {
                seed,
                check: "engine-parity",
                detail: format!("one-shot simulator failed: {e}"),
            });
            return;
        }
    };
    let mut engine = match MessageEngine::new("parity", net, placement, config) {
        Ok(e) => e,
        Err(e) => {
            out.push(Divergence {
                seed,
                check: "engine-parity",
                detail: format!("engine construction failed: {e}"),
            });
            return;
        }
    };
    while !engine.is_done() {
        if let Err(e) = engine.advance_to(u64::MAX) {
            out.push(Divergence {
                seed,
                check: "engine-parity",
                detail: format!("engine failed: {e}"),
            });
            return;
        }
    }
    let stepped = engine.report();
    let pairs: [(&str, u64, u64); 5] = [
        ("messages", oneshot.messages, stepped.messages),
        ("bytes", oneshot.bytes, stepped.bytes),
        (
            "cross_boundary_bytes",
            oneshot.cross_boundary_bytes,
            stepped.cross_boundary_bytes,
        ),
        ("events", oneshot.events, stepped.events),
        ("finish_time", oneshot.finish_time, stepped.finish_time),
    ];
    for (what, a, b) in pairs {
        if a != b {
            out.push(Divergence {
                seed,
                check: "engine-parity",
                detail: format!("{what}: one-shot {a} vs engine {b}"),
            });
        }
    }
    if oneshot.per_channel_bytes != stepped.per_channel_bytes {
        out.push(Divergence {
            seed,
            check: "engine-parity",
            detail: format!(
                "per_channel_bytes: one-shot {:?} vs engine {:?}",
                oneshot.per_channel_bytes, stepped.per_channel_bytes
            ),
        });
    }
}

fn check_one(cfg: &SweepConfig, index: usize) -> PerSystem {
    let sys = sys_config(cfg.seed, index);
    let seed = sys.seed;
    let mut per = PerSystem {
        divergences: Vec::new(),
        errs: [
            (AbstractionLevel::Register, 0.0),
            (AbstractionLevel::Driver, 0.0),
            (AbstractionLevel::Message, 0.0),
        ],
        bytes: 0,
        irqs: 0,
        messages: 0,
        degenerate: is_degenerate(index),
        engine_diff: false,
        lockstep_instructions: None,
    };
    match random_system(&sys) {
        Err(e) => per
            .divergences
            .push(harness_error(seed, "generate", &ConformError::Ir(e))),
        Ok(spec) => match run_system(&spec) {
            Err(e) => per.divergences.push(harness_error(seed, "realize", &e)),
            Ok(run) => {
                per.divergences.extend(check(&spec, &run));
                per.errs = level_errors(&run);
                per.bytes = run.pin.per_channel_bytes.iter().sum();
                per.irqs = run.pin.irqs.unwrap_or(0);
                per.messages = run.message.messages.unwrap_or(0);
            }
        },
    }
    if index % 13 == 5 {
        per.engine_diff = true;
        engine_parity(seed, &mut per.divergences);
    }
    if cfg.lockstep && index.is_multiple_of(LOCKSTEP_EVERY) {
        let lk = LockstepConfig {
            seed: splitmix64(seed ^ 0x10C2_57E9),
            instructions: 150,
            enabled: true,
            fault_after: None,
        };
        match lockstep::run_lockstep(&lk) {
            Ok(LockstepOutcome::Agreed { instructions }) => {
                per.lockstep_instructions = Some(instructions);
            }
            Ok(LockstepOutcome::Diverged {
                instruction,
                detail,
            }) => {
                per.lockstep_instructions = Some(instruction);
                per.divergences.push(Divergence {
                    seed,
                    check: "lockstep",
                    detail: format!("diverged at retired instruction {instruction}: {detail}"),
                });
            }
            Err(e) => per.divergences.push(harness_error(seed, "lockstep", &e)),
        }
    }
    per
}

/// Runs the campaign.
///
/// # Errors
///
/// Returns [`ConformError::SelfTest`] if the lockstep self-test cannot
/// see its own injected fault (nothing else is trustworthy then);
/// individual system failures never abort the sweep — they are reported
/// as `harness-error` divergences.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, ConformError> {
    if cfg.lockstep {
        lockstep::self_test(true)?;
    }
    let threads = cfg.threads.max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<PerSystem>>> = Mutex::new(vec![None; cfg.systems]);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= cfg.systems {
                    break;
                }
                let per = check_one(cfg, i);
                slots.lock().expect("sweep worker panicked")[i] = Some(per);
            });
        }
    });
    let results = slots.into_inner().expect("sweep worker panicked");

    // Index-ordered aggregation: the report's bytes depend only on the
    // campaign inputs, never on thread interleaving.
    let mut report = SweepReport {
        systems: cfg.systems,
        seed: cfg.seed,
        divergences: Vec::new(),
        level_errors: [
            (AbstractionLevel::Register, 0.0, 0.0),
            (AbstractionLevel::Driver, 0.0, 0.0),
            (AbstractionLevel::Message, 0.0, 0.0),
        ]
        .map(|(level, max, mean)| LevelErrorStat { level, max, mean }),
        total_bytes: 0,
        total_irqs: 0,
        total_messages: 0,
        degenerate_systems: 0,
        engine_diffs: 0,
        lockstep_runs: 0,
        lockstep_instructions: 0,
    };
    let mut sums = [0.0f64; 3];
    for per in results.into_iter().flatten() {
        report.divergences.extend(per.divergences);
        for (slot, (level, err)) in report.level_errors.iter_mut().zip(per.errs) {
            debug_assert_eq!(slot.level, level);
            if err > slot.max {
                slot.max = err;
            }
        }
        for (sum, (_, err)) in sums.iter_mut().zip(per.errs) {
            *sum += err;
        }
        report.total_bytes += per.bytes;
        report.total_irqs += per.irqs;
        report.total_messages += per.messages;
        report.degenerate_systems += u64::from(per.degenerate);
        report.engine_diffs += u64::from(per.engine_diff);
        if let Some(instructions) = per.lockstep_instructions {
            report.lockstep_runs += 1;
            report.lockstep_instructions += instructions;
        }
    }
    if cfg.systems > 0 {
        for (slot, sum) in report.level_errors.iter_mut().zip(sums) {
            slot.mean = sum / cfg.systems as f64;
        }
    }
    Ok(report)
}

/// Renders a sweep report as deterministic JSON — the single renderer
/// behind both `codesign conform --json` and the job server's `conform`
/// replies, so a served run is byte-identical to a direct CLI run.
/// Hand-rolled (the workspace vendors no serializer for this shape);
/// `detail` strings are escaped.
#[must_use]
pub fn report_json(cfg: &SweepConfig, report: &SweepReport) -> String {
    use std::fmt::Write as _;
    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"tool\": \"codesign conform\",");
    let _ = writeln!(j, "  \"systems\": {},", report.systems);
    let _ = writeln!(j, "  \"seed\": {},", report.seed);
    let _ = writeln!(j, "  \"lockstep\": {},", cfg.lockstep);
    let _ = writeln!(
        j,
        "  \"degenerate_systems\": {},",
        report.degenerate_systems
    );
    let _ = writeln!(j, "  \"engine_diffs\": {},", report.engine_diffs);
    let _ = writeln!(j, "  \"lockstep_runs\": {},", report.lockstep_runs);
    let _ = writeln!(
        j,
        "  \"lockstep_instructions\": {},",
        report.lockstep_instructions
    );
    let _ = writeln!(j, "  \"total_bytes\": {},", report.total_bytes);
    let _ = writeln!(j, "  \"total_irqs\": {},", report.total_irqs);
    let _ = writeln!(j, "  \"total_messages\": {},", report.total_messages);
    j.push_str("  \"level_errors\": [\n");
    for (i, stat) in report.level_errors.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"level\": \"{}\", \"max\": {:.6}, \"mean\": {:.6}}}{}",
            stat.level,
            stat.max,
            stat.mean,
            if i + 1 < report.level_errors.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ],\n  \"divergences\": [\n");
    for (i, d) in report.divergences.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"seed\": {}, \"check\": \"{}\", \"detail\": \"{}\"}}{}",
            d.seed,
            escape(d.check),
            escape(&d.detail),
            if i + 1 < report.divergences.len() {
                ","
            } else {
                ""
            }
        );
    }
    j.push_str("  ]\n}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_sim::trace::json::Json;

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let cfg = SweepConfig {
            systems: 3,
            seed: 9,
            ..SweepConfig::default()
        };
        let mut report = run_sweep(&SweepConfig {
            lockstep: false,
            ..cfg
        })
        .unwrap();
        let detail = "a \"quoted\" \\ detail\nwith\ta control \u{1} byte";
        report.divergences.push(Divergence {
            seed: 1,
            check: "harness-error",
            detail: detail.into(),
        });
        let a = report_json(&cfg, &report);
        assert_eq!(a, report_json(&cfg, &report));
        assert!(a.contains("\"tool\": \"codesign conform\""));
        assert!(a.contains("\"systems\": 3"));
        let doc = codesign_sim::trace::json::parse(&a).unwrap_or_else(|e| panic!("{e}: {a}"));
        let Some(Json::Array(divergences)) = doc.get("divergences") else {
            panic!("no divergences array: {a}")
        };
        assert_eq!(
            divergences[0].get("detail").and_then(Json::as_str),
            Some(detail)
        );
    }

    #[test]
    fn sys_config_is_reproducible_and_valid() {
        for i in 0..60 {
            let a = sys_config(42, i);
            assert_eq!(a, sys_config(42, i));
            a.validate().unwrap_or_else(|e| panic!("index {i}: {e}"));
        }
        assert!(is_degenerate(16));
        assert!(!is_degenerate(0));
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let base = SweepConfig {
            systems: 40,
            seed: 7,
            threads: 1,
            ..SweepConfig::default()
        };
        let one = run_sweep(&base).unwrap();
        let three = run_sweep(&SweepConfig { threads: 3, ..base }).unwrap();
        assert_eq!(one, three);
    }

    #[test]
    fn campaign_finds_no_divergences() {
        let report = run_sweep(&SweepConfig {
            systems: 60,
            seed: 42,
            threads: 2,
            ..SweepConfig::default()
        })
        .unwrap();
        assert_eq!(
            report.divergences,
            Vec::new(),
            "fix the engines or document a waiver — never ignore a divergence"
        );
        assert!(report.total_bytes > 0);
        assert!(report.lockstep_runs > 0);
        assert!(report.engine_diffs > 0);
        assert!(report.degenerate_systems > 0);
    }
}
