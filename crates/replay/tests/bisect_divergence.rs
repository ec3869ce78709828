//! Bisection correctness: the exact first divergent round reported by
//! `bisect_divergence` must match a linear forward scan, with fewer
//! probes once the divergence sits deep enough in the run.

mod common;

use codesign_fault::{shared, BusRates, FaultPlan, FaultyEngine, FaultyPhy, SharedInjector};
use codesign_isa::asm::assemble;
use codesign_replay::{bisect_divergence, linear_first_divergence};
use codesign_rtl::bus::BusTiming;
use codesign_sim::adapters::CpuEngine;
use codesign_sim::engine::Coordinator;
use codesign_sim::error::SimError;
use codesign_sim::ladder::{build_cpu, system_program, DriverEngine};
use common::{ladder_spec, QUANTUM};

const CADENCE: u64 = 8;

/// Driver-level run wrapped in a `FaultyEngine`; `stall_at` wedges it at
/// a deterministic horizon (`None` = golden). Watchdog off: the faulty
/// twin never finishes and bisection bounds it by `max_rounds` instead.
fn driver_run(stall_at: Option<u64>) -> Result<(Coordinator, Option<SharedInjector>), SimError> {
    let injector = shared(11);
    let driver = DriverEngine::new("driver", &ladder_spec());
    let mut eng = FaultyEngine::new(Box::new(driver), injector.clone(), 0.0, 0.0);
    if let Some(t) = stall_at {
        eng = eng.with_stall_at(t);
    }
    let mut coord = Coordinator::lockstep(QUANTUM);
    coord.set_watchdog(None);
    coord.add_engine(Box::new(eng));
    Ok((coord, Some(injector)))
}

#[test]
fn deterministic_stall_is_bisected_to_the_exact_round() {
    let stall_t = 30 * QUANTUM;
    let golden = || driver_run(None);
    let faulty = || driver_run(Some(stall_t));

    let report = bisect_divergence(golden, faulty, CADENCE, 2_000, u64::MAX).unwrap();
    let linear = linear_first_divergence(golden, faulty, 2_000, u64::MAX).unwrap();

    // The wedge trips during the round whose horizon reaches `stall_t`.
    assert_eq!(report.first_divergent_round, Some(30));
    assert_eq!(report.first_divergent_round, linear);
    assert_ne!(report.golden_fingerprint, report.faulty_fingerprint);
    assert!(
        report.probes < report.linear_probes,
        "bisection used {} probes, linear scan {}",
        report.probes,
        report.linear_probes
    );
}

/// Bus-level run: producer CPU against a `DrainFifo`, with a
/// `FaultyPhy` underneath injecting stuck transactions. The golden twin
/// carries a quiet plan with the same seed, so the structures (and
/// serialized shapes) are identical.
fn register_run(plan: FaultPlan) -> Result<(Coordinator, Option<SharedInjector>), SimError> {
    let spec = ladder_spec();
    let injector = shared(5);
    let program = assemble(&system_program(&spec))?;
    let mut cpu = build_cpu(&spec, &program, false)?;
    cpu.bus_mut()
        .expect("bus attached")
        .set_phy(Box::new(FaultyPhy::new(
            BusTiming::default(),
            plan,
            injector.clone(),
        )));
    let mut coord = Coordinator::lockstep(QUANTUM);
    coord.set_watchdog(None);
    coord.add_engine(Box::new(CpuEngine::new("cpu", cpu)));
    Ok((coord, Some(injector)))
}

#[test]
fn seeded_stuck_transactions_match_the_linear_oracle() {
    // Stuck transactions delay the CPU by extra bus cycles: its cycle
    // counter shifts permanently, giving the monotone divergence
    // bisection requires. (A corrupted data *write* would push a forged
    // word that simply drains away: states re-converge and there is
    // nothing for checkpoint bisection to find.)
    let golden = || register_run(FaultPlan::quiet());
    let faulty = || {
        register_run(FaultPlan {
            bus: BusRates {
                bit_flip: 0.0,
                stuck: 0.05,
                stuck_cycles: 40,
            },
            ..FaultPlan::quiet()
        })
    };

    let report = bisect_divergence(golden, faulty, CADENCE, 200_000, u64::MAX).unwrap();
    let linear = linear_first_divergence(golden, faulty, 200_000, u64::MAX).unwrap();

    assert_eq!(report.first_divergent_round, linear);
    assert!(
        report.first_divergent_round.is_some(),
        "the seeded plan should corrupt at least one write"
    );
    assert_ne!(report.golden_fingerprint, report.faulty_fingerprint);
}

#[test]
fn identical_runs_never_diverge() {
    let golden = || register_run(FaultPlan::quiet());

    let report = bisect_divergence(golden, golden, CADENCE, 200_000, u64::MAX).unwrap();
    let linear = linear_first_divergence(golden, golden, 200_000, u64::MAX).unwrap();

    assert_eq!(report.first_divergent_round, None);
    assert_eq!(linear, None);
    assert_eq!(report.golden_fingerprint, report.faulty_fingerprint);
    assert!(report.rounds > 0);
}
