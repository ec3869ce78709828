//! Integration: the interface-abstraction ladder (paper Figure 3,
//! experiment E3).
//!
//! One producer/consumer system simulated at pin, register, driver, and
//! message level. The paper's predicted shape: accuracy decreases and
//! simulation efficiency increases as you climb.
//!
//! The ISS levels pay device time lazily: `Cpu::run_until` catches the
//! bus up only before a device access, an interrupt sample, and its own
//! return. The last tests pin that against the same systems stepped one
//! instruction at a time, where devices catch up after every instruction.

use codesign::conform::sweep::sys_config;
use codesign::fault::{FaultPlan, SharedInjector};
use codesign::ir::workload::sysgen::{random_system, SysConfig};
use codesign::isa::asm::assemble;
use codesign::isa::cpu::{Cpu, CpuStats};
use codesign::replay::snapshot;
use codesign::resilience::{build_scenario, RUN_BUDGET};
use codesign::rtl::state::StateWriter;
use codesign::sim::adapters::CpuEngine;
use codesign::sim::engine::Coordinator;
use codesign::sim::fingerprint::cpu_state_digest;
use codesign::sim::ladder::{
    build_cpu, run_ladder, run_level, system_program, timing_errors, AbstractionLevel, LadderConfig,
};
use codesign::trace::Tracer;

#[test]
fn the_four_levels_reproduce_figure_3() {
    let cfg = LadderConfig::default();
    let reports = run_ladder(&cfg, &Tracer::off()).expect("every level simulates");
    assert_eq!(reports.len(), 4);

    // Throughput: kernel events per level, bottom to top.
    let pin = &reports[0];
    let register = &reports[1];
    let driver = &reports[2];
    let message = &reports[3];
    assert!(pin.kernel_events > register.kernel_events);
    assert!(register.kernel_events > driver.kernel_events);
    assert!(register.kernel_events > message.kernel_events);

    // Accuracy: pin is the reference; register is within a tight band;
    // the upper levels may drift further.
    let errors = timing_errors(&reports);
    assert_eq!(errors[0].1, 0.0);
    assert!(
        errors[1].1 < 0.25,
        "register-level error {} should be modest",
        errors[1].1
    );
}

#[test]
fn congestion_widens_the_accuracy_gap() {
    // A slow consumer causes back-pressure that only the lower levels
    // see; the driver-level error grows with congestion.
    let relaxed = run_ladder(
        &LadderConfig {
            drain_period: 2,
            ..LadderConfig::default()
        },
        &Tracer::off(),
    )
    .unwrap();
    let congested = run_ladder(
        &LadderConfig {
            drain_period: 48,
            ..LadderConfig::default()
        },
        &Tracer::off(),
    )
    .unwrap();
    let err_relaxed = timing_errors(&relaxed)[2].1;
    let err_congested = timing_errors(&congested)[2].1;
    assert!(
        err_congested > err_relaxed,
        "driver error: relaxed {err_relaxed} vs congested {err_congested}"
    );
}

#[test]
fn message_level_is_cheapest_to_simulate() {
    let cfg = LadderConfig {
        iterations: 32,
        ..LadderConfig::default()
    };
    let pin = run_level(AbstractionLevel::Pin, &cfg).unwrap();
    let message = run_level(AbstractionLevel::Message, &cfg).unwrap();
    assert!(
        message.kernel_events * 10 < pin.kernel_events,
        "message {} vs pin {}",
        message.kernel_events,
        pin.kernel_events
    );
}

#[test]
fn results_scale_with_workload_size() {
    let small = run_level(
        AbstractionLevel::Register,
        &LadderConfig {
            iterations: 4,
            ..LadderConfig::default()
        },
    )
    .unwrap();
    let large = run_level(
        AbstractionLevel::Register,
        &LadderConfig {
            iterations: 32,
            ..LadderConfig::default()
        },
    )
    .unwrap();
    assert!(large.simulated_cycles > 4 * small.simulated_cycles);
}

/// The run's one CPU engine.
fn cpu_engine(coord: &mut Coordinator) -> &mut CpuEngine {
    coord.engines_mut()[0]
        .as_any_mut()
        .and_then(|e| e.downcast_mut::<CpuEngine>())
        .expect("a cpu engine")
}

/// Everything a late catch-up could disturb, read between rounds: the
/// whole checkpoint (CPU, bus, devices, phy, injector substreams and
/// fault log), the CPU's statistics and architectural digest, and the
/// phy's events.
fn observe(
    coord: &mut Coordinator,
    injector: Option<&SharedInjector>,
) -> (Vec<u8>, CpuStats, u64, u64) {
    let blob = snapshot(coord, injector);
    let cpu = cpu_engine(coord).cpu();
    let phy_events = cpu.bus().map_or(0, |b| b.phy_events());
    (blob, cpu.stats(), cpu_state_digest(cpu), phy_events)
}

/// Runs `lazy` — its CPU driven by one `run_until` per round — and
/// `stepped`, the same system with its `CpuEngine` in debug mode, which
/// steps one instruction at a time, round by round for at most
/// `max_rounds`, and asserts that every round ends in the same state or
/// the same error.
fn assert_lazy_matches_stepped(
    what: &str,
    (mut lazy, lazy_inj): (Coordinator, Option<SharedInjector>),
    (mut stepped, stepped_inj): (Coordinator, Option<SharedInjector>),
    max_rounds: u64,
) {
    cpu_engine(&mut stepped).set_debug_mode(true);
    for round in 1..=max_rounds {
        let a = lazy.run_one_round(RUN_BUDGET).map_err(|e| e.to_string());
        let b = stepped.run_one_round(RUN_BUDGET).map_err(|e| e.to_string());
        assert_eq!(a, b, "{what}: round {round}");
        assert!(
            observe(&mut lazy, lazy_inj.as_ref()) == observe(&mut stepped, stepped_inj.as_ref()),
            "{what}: state differs after round {round}"
        );
        if a.is_err() || lazy.is_done() {
            return;
        }
    }
}

/// Generated systems at the pin and register levels — the default
/// config, one with an IRQ-wired UART, and three conformance-sweep
/// draws — under lockstep quanta of several sizes, so rounds stop the
/// CPU at arbitrary instructions mid-run.
#[test]
fn lazy_device_catch_up_matches_per_instruction_stepping() {
    let uart = SysConfig {
        max_irq_bytes: 6,
        seed: 1686,
        ..SysConfig::default()
    };
    let configs = [
        SysConfig::default(),
        uart,
        sys_config(42, 1),
        sys_config(42, 5),
        sys_config(42, 9),
    ];
    let specs: Vec<_> = configs
        .iter()
        .map(|cfg| random_system(cfg).expect("system generates"))
        .collect();
    assert!(specs[1].irq_count() > 0, "seed 1686 wires a uart");
    for (i, spec) in specs.iter().enumerate() {
        let program = assemble(&system_program(spec)).expect("program assembles");
        for pin in [false, true] {
            for quantum in [7, 61, 1009] {
                let build = || {
                    let mut coord = Coordinator::lockstep(quantum);
                    let cpu = build_cpu(spec, &program, pin).expect("system builds");
                    coord.add_engine(Box::new(CpuEngine::new("cpu", cpu)));
                    (coord, None)
                };
                let what = format!("system {i} pin={pin} quantum={quantum}");
                assert_lazy_matches_stepped(&what, build(), build(), u64::MAX);
            }
            // `run` to halt against a `step()` loop.
            let mut lazy = build_cpu(spec, &program, pin).expect("system builds");
            let mut stepped = build_cpu(spec, &program, pin).expect("system builds");
            lazy.run(RUN_BUDGET).expect("program halts");
            while stepped.step().expect("program runs") {}
            let state = |cpu: &Cpu| {
                let mut w = StateWriter::new();
                cpu.save_state(&mut w);
                (w.into_bytes(), cpu.stats(), cpu_state_digest(cpu))
            };
            assert!(state(&lazy) == state(&stepped), "system {i} pin={pin}: run");
        }
    }
}

/// The fault campaign's ISS scenarios under the standard plan: the
/// register rung's faulty FIFO and bus, and the interrupt rung's timer,
/// whose faulty IRQ line draws from the injector at every sample and
/// stamps faults with device cycles.
#[test]
fn lazy_device_catch_up_matches_stepping_under_an_armed_plan() {
    for scenario in ["ladder_register", "ladder_irq"] {
        let mut faults = 0;
        for seed in 1..=12 {
            let build = || {
                let (coord, inj) = build_scenario(scenario, &FaultPlan::standard(), seed, true)
                    .expect("a known scenario");
                (coord, Some(inj))
            };
            let (lazy, stepped) = (build(), build());
            let (lazy_inj, stepped_inj) = (lazy.1.clone().unwrap(), stepped.1.clone().unwrap());
            assert_lazy_matches_stepped(&format!("{scenario} seed {seed}"), lazy, stepped, 4_000);
            let (a, b) = (lazy_inj.borrow(), stepped_inj.borrow());
            assert_eq!(
                format!("{:?}", a.records()),
                format!("{:?}", b.records()),
                "{scenario} seed {seed}: fault log"
            );
            faults += a.records().len();
        }
        assert!(faults > 0, "{scenario}: the armed seeds must inject faults");
    }
}
