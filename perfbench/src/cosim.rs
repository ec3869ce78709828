//! `cosim`: the simulators themselves, single-threaded.
//!
//! One op is one round: 32 generated systems realized at all four
//! Figure 3 levels (`conform::runner::run_system`, checked by
//! `conform::observables::check`), one seeded producer/consumer ladder
//! at all four levels (`sim::ladder::run_level`), the four
//! `resilience::SCENARIOS` run straight with a quiet fault plan through
//! `Coordinator::run_one_round`, a snapshot/restore round trip of each
//! scenario's end state, and a fault-divergence bisection of each
//! scenario (`replay::bisect_divergence`, standard fault plan, the
//! round's fault seed). Every 16th bisection that finds a divergence is
//! checked against `replay::linear_first_divergence`: bisection finds
//! the first *persistent* divergence, so the linear scan, which stops at
//! the first difference even if it later heals, must report that round
//! or an earlier one.
//!
//! Work unit: simulated cycles, summed over every level and run.

use codesign::conform::observables::check;
use codesign::conform::runner::run_system;
use codesign::conform::sweep::{is_degenerate, splitmix64, sys_config};
use codesign::fault::{FaultPlan, SharedInjector};
use codesign::ir::workload::sysgen::{random_system, SystemSpec};
use codesign::replay::{bisect_divergence, linear_first_divergence, restore, snapshot};
use codesign::resilience::{build_scenario, RUN_BUDGET, SCENARIOS};
use codesign::sim::engine::Coordinator;
use codesign::sim::error::SimError;
use codesign::sim::fingerprint::coordinator_fingerprint;
use codesign::sim::ladder::{run_level, AbstractionLevel, LadderConfig};

use crate::{digest_str, time_op, Ctx, Measured};

/// Systems realized per round. Many small systems per round rather
/// than a few large ones keep the rounds alike, so a seed's median
/// round stands for the workload rather than for its draws.
const SYSTEMS: usize = 32;
/// Generated systems run this many times their drawn iterations, so
/// execution rather than per-system set-up dominates. Degenerate corner
/// shapes keep their drawn iterations: scaled up, the register level
/// exceeds its calibrated 12% cycle bound on some of them.
const ITERATION_SCALE: u32 = 8;
/// Producer iterations of the round's ladder scenario.
const LADDER_ITERATIONS: u32 = 128;
/// Distinct rounds; the run cycles through them.
const BATCH: usize = 64;
/// Checkpoint cadence (rounds) of the bisection sessions.
const CADENCE: u64 = 8;
/// Round ceiling for every scenario run.
const MAX_ROUNDS: u64 = 200_000;
/// Every this-many bisections that find a divergence are checked
/// against the linear scan.
const ORACLE_EVERY: usize = 16;

struct Round {
    specs: Vec<SystemSpec>,
    ladder: LadderConfig,
    /// Fault seed of the round's bisections.
    fault_seed: u64,
}

struct Inputs {
    rounds: Vec<Round>,
    /// Golden fingerprint of each scenario's straight run.
    golden: Vec<String>,
}

fn draw(state: &mut u64, lo: u64, hi: u64) -> u64 {
    *state = splitmix64(*state);
    lo + *state % (hi - lo + 1)
}

/// Runs a built scenario straight to its end.
fn run_to_end(coord: &mut Coordinator) -> Result<(), SimError> {
    let mut rounds = 0;
    while !coord.is_done() && rounds < MAX_ROUNDS {
        coord.run_one_round(RUN_BUDGET)?;
        rounds += 1;
    }
    Ok(())
}

/// The golden fingerprint of a scenario's straight, fault-free run.
fn golden(name: &str) -> Result<String, String> {
    let (mut coord, _) = build_scenario(name, &FaultPlan::quiet(), 1, false)?;
    run_to_end(&mut coord).map_err(|e| format!("{name}: {e}"))?;
    Ok(coordinator_fingerprint(&coord, coord.stats().time))
}

fn inputs(seed: u64, smoke: bool) -> Result<Inputs, String> {
    let systems = if smoke { 2 } else { SYSTEMS };
    let batch = if smoke { 2 } else { BATCH };
    let mut state = seed;
    let mut rounds = Vec::with_capacity(batch);
    for r in 0..batch {
        let specs = (0..systems)
            .map(|k| {
                let index = r * SYSTEMS + k;
                let mut cfg = sys_config(seed, index);
                if !smoke && !is_degenerate(index) {
                    cfg.iterations *= ITERATION_SCALE;
                }
                random_system(&cfg).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ladder = LadderConfig {
            iterations: if smoke { 8 } else { LADDER_ITERATIONS },
            message_bytes: 4 * draw(&mut state, 8, 24),
            compute_cycles: draw(&mut state, 300, 600),
            fifo_capacity: draw(&mut state, 8, 24) as usize,
            drain_period: draw(&mut state, 8, 16),
        };
        rounds.push(Round {
            specs,
            ladder,
            fault_seed: draw(&mut state, 1, 1 << 20),
        });
    }
    let golden = SCENARIOS
        .iter()
        .map(|name| golden(name))
        .collect::<Result<_, _>>()?;
    Ok(Inputs { rounds, golden })
}

fn factory(
    name: &'static str,
    plan: FaultPlan,
    seed: u64,
) -> impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError> {
    move || {
        let (coord, inj) = build_scenario(name, &plan, seed, true).expect("a known scenario");
        Ok((coord, Some(inj)))
    }
}

const LEVEL_NAMES: [&str; 4] = [
    "sim.ladder.pin",
    "sim.ladder.register",
    "sim.ladder.driver",
    "sim.ladder.message",
];

/// What one round produced, for the digest and the counters.
#[derive(Default)]
struct RoundOut {
    digest: String,
    cycles: u64,
    conform_events: [u64; 4],
    ladder_events: [u64; 4],
    coord_rounds: u64,
    rounds_skipped: u64,
    bisect_probes: u64,
    linear_probes: u64,
    /// Scenarios whose faulty run diverged, with the round found.
    divergences: Vec<(&'static str, u64)>,
}

fn round(
    ctx: &Ctx,
    op: u64,
    parent: u64,
    r: &Round,
    golden: &[String],
) -> Result<RoundOut, String> {
    let sp = &ctx.spans;
    let mut out = RoundOut::default();
    for spec in &r.specs {
        let run = sp
            .time("main", "conform", "conform.run_system", parent, op, |_| {
                run_system(spec)
            })
            .map_err(|e| format!("{}: {e}", spec.name))?;
        let divergences = sp.time("main", "conform", "conform.check", parent, op, |_| {
            check(spec, &run)
        });
        if let Some(d) = divergences.first() {
            return Err(format!("{} does not conform: {d:?}", spec.name));
        }
        for (i, level) in run.levels().iter().enumerate() {
            out.cycles += level.cycles;
            out.conform_events[i] += level.kernel_events;
            out.digest += &format!(
                "{}/{:?}/{};",
                level.cycles, level.digest, level.kernel_events
            );
        }
    }
    for (i, level) in AbstractionLevel::ALL.into_iter().enumerate() {
        let rep = sp
            .time("main", "sim", LEVEL_NAMES[i], parent, op, |_| {
                run_level(level, &r.ladder)
            })
            .map_err(|e| format!("ladder {level}: {e}"))?;
        out.cycles += rep.simulated_cycles;
        out.ladder_events[i] = rep.kernel_events;
        out.digest += &format!("{}/{};", rep.simulated_cycles, rep.kernel_events);
    }
    // Figure 3: the pin level costs the most kernel events, message the least.
    if !(out.ladder_events[0] > out.ladder_events[1] && out.ladder_events[1] > out.ladder_events[3])
    {
        return Err(format!(
            "ladder events out of Figure 3 order: {:?}",
            out.ladder_events
        ));
    }
    for (name, golden) in SCENARIOS.iter().zip(golden) {
        let (mut coord, inj) =
            sp.time("main", "fault", "fault.build_scenario", parent, op, |_| {
                build_scenario(name, &FaultPlan::quiet(), 1, false)
            })?;
        sp.time("main", "sim", "sim.coordinator.run", parent, op, |_| {
            run_to_end(&mut coord)
        })
        .map_err(|e| format!("{name}: {e}"))?;
        let stats = coord.stats();
        out.cycles += stats.time;
        out.coord_rounds += stats.sync_rounds;
        out.rounds_skipped += stats.rounds_skipped;
        let fp = coordinator_fingerprint(&coord, stats.time);
        if &fp != golden {
            return Err(format!(
                "{name}: straight run departs its golden fingerprint"
            ));
        }
        let blob = sp.time("main", "replay", "replay.snapshot", parent, op, |_| {
            snapshot(&coord, Some(&inj))
        });
        sp.time("main", "replay", "replay.restore", parent, op, |_| {
            restore(&mut coord, Some(&inj), &blob)
        })
        .map_err(|e| format!("{name}: restore: {e}"))?;
        if snapshot(&coord, Some(&inj)) != blob {
            return Err(format!("{name}: restore is not bit-identical"));
        }
        out.digest += &fp;
    }
    for name in SCENARIOS {
        let golden_run = factory(name, FaultPlan::quiet(), r.fault_seed);
        let faulty_run = factory(name, FaultPlan::standard(), r.fault_seed);
        let rep = sp
            .time("main", "replay", "replay.bisect", parent, op, |_| {
                bisect_divergence(&golden_run, &faulty_run, CADENCE, MAX_ROUNDS, RUN_BUDGET)
            })
            .map_err(|e| format!("bisect {name}: {e}"))?;
        out.bisect_probes += rep.probes;
        out.linear_probes += rep.linear_probes;
        if let Some(found) = rep.first_divergent_round {
            out.divergences.push((name, found));
        }
        out.digest += &format!(
            "{:?}/{}/{}",
            rep.first_divergent_round, rep.probes, rep.rounds
        );
    }
    Ok(out)
}

/// Checks a bisection result against the linear scan.
fn oracle(
    ctx: &Ctx,
    op: u64,
    parent: u64,
    name: &'static str,
    seed: u64,
    found: u64,
) -> Result<(), String> {
    let golden_run = factory(name, FaultPlan::quiet(), seed);
    let faulty_run = factory(name, FaultPlan::standard(), seed);
    let linear = ctx
        .spans
        .time(
            "main",
            "replay",
            "replay.linear_first_divergence",
            parent,
            op,
            |_| linear_first_divergence(&golden_run, &faulty_run, MAX_ROUNDS, RUN_BUDGET),
        )
        .map_err(|e| e.to_string())?;
    if linear.is_some_and(|l| l <= found) {
        Ok(())
    } else {
        Err(format!(
            "{name} seed {seed}: bisection found round {found}, the linear scan {linear:?}"
        ))
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Measured {
    let mut m = Measured::default();
    let setup = || inputs(ctx.seed, ctx.smoke);
    let inputs = match setup() {
        Ok(i) => i,
        Err(e) => return m.fail(e),
    };
    // Each round's output on the first pass: later passes must match it.
    let mut first_pass: Vec<RoundOut> = Vec::with_capacity(inputs.rounds.len());
    let mut checked = 0usize;
    m.measure(ctx, inputs.rounds.len(), setup, |m, phase, op| {
        let i = op as usize % inputs.rounds.len();
        let r = &inputs.rounds[i];
        let out = time_op(ctx, m, phase, op, |parent| {
            round(ctx, op, parent, r, &inputs.golden).map(|o| {
                let cycles = o.cycles as f64;
                (o, cycles)
            })
        });
        let out = match out {
            Ok(o) => o,
            Err(e) => return m.failures.push(e),
        };
        ctx.spans
            .time("main", "bench", "bench.check", phase, op, |parent| {
                if first_pass.get(i).is_some_and(|f| f.digest != out.digest) {
                    m.failures.push(format!("round {i} is not deterministic"));
                }
                for &(name, found) in &out.divergences {
                    checked += 1;
                    if checked % ORACLE_EVERY == 1 {
                        if let Err(e) = oracle(ctx, op, parent, name, r.fault_seed, found) {
                            m.failures.push(e);
                        }
                    }
                }
            });
        if i == first_pass.len() {
            first_pass.push(out);
        }
    });
    let n = first_pass.len().max(1) as f64;
    let sum = |f: &dyn Fn(&RoundOut) -> u64| first_pass.iter().map(f).sum::<u64>() as f64 / n;
    for (i, level) in ["pin", "register", "driver", "message"].iter().enumerate() {
        m.counter(
            &format!("conform.events.{level}"),
            sum(&|o| o.conform_events[i]),
        );
        m.counter(
            &format!("sim.ladder.{level}.events"),
            sum(&|o| o.ladder_events[i]),
        );
        m.counter(
            &format!("sim.ladder.{level}.share"),
            m.name_share(ctx, LEVEL_NAMES[i]),
        );
    }
    m.counter("sim.coordinator.rounds", sum(&|o| o.coord_rounds));
    m.counter("sim.coordinator.rounds_skipped", sum(&|o| o.rounds_skipped));
    m.counter("replay.bisect_probes", sum(&|o| o.bisect_probes));
    m.counter("replay.linear_probes", sum(&|o| o.linear_probes));
    m.digest = digest_str(
        &first_pass
            .iter()
            .map(|o| o.digest.as_str())
            .collect::<String>(),
    );
    m
}
