//! Integration: the interface-abstraction ladder (paper Figure 3,
//! experiment E3).
//!
//! One producer/consumer system simulated at pin, register, driver, and
//! message level. The paper's predicted shape: accuracy decreases and
//! simulation efficiency increases as you climb.

use codesign::sim::ladder::{run_ladder, run_level, timing_errors, AbstractionLevel, LadderConfig};
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
