//! Integration: a Type II co-processor system (paper Figure 8).
//!
//! The complete flow — characterize (measured SW + synthesized HW),
//! partition, realize, execute, verify — across objectives and the
//! sharing-aware estimation ablation.

use codesign::partition::cost::Objective;
use codesign::partition::Partition;
use codesign::synth::coproc::{
    characterize, partition_app, realize, Algorithm, Application, CharacterizedApp,
};
use codesign::trace::Tracer;

fn app() -> CharacterizedApp {
    let mut a = Application::dsp_suite();
    a.tasks.truncate(6);
    characterize(&a).expect("characterization succeeds")
}

#[test]
fn partitioned_realization_is_faster_than_software_and_correct() {
    let app = app();
    let g = app.graph();
    let all_hw_time: u64 = g.iter().map(|(_, t)| t.hw_cycles()).sum();
    let deadline = all_hw_time + (g.total_sw_cycles() - all_hw_time) / 3;

    let (partition, eval) = partition_app(
        &app,
        Objective::performance_driven(deadline),
        Algorithm::KernighanLin,
        true,
    )
    .expect("partitioning succeeds");
    assert!(
        eval.meets_deadline,
        "makespan {} > {deadline}",
        eval.makespan
    );
    assert!(partition.hw_count() > 0, "some hardware was worth it");

    let mixed = realize(&app, &partition, &Tracer::off()).expect("mixed system runs");
    let all_sw =
        realize(&app, &Partition::all_sw(g.len()), &Tracer::off()).expect("sw baseline runs");
    assert!(mixed.verified, "all outputs match the CDFG interpreter");
    assert!(
        mixed.total_cycles < all_sw.total_cycles,
        "mixed {} vs all-sw {}",
        mixed.total_cycles,
        all_sw.total_cycles
    );
}

#[test]
fn objectives_trade_cost_against_speed() {
    let app = app();
    let g = app.graph();
    let all_hw_time: u64 = g.iter().map(|(_, t)| t.hw_cycles()).sum();
    let deadline = all_hw_time * 3;

    let (_, perf) = partition_app(
        &app,
        Objective::performance_driven(deadline),
        Algorithm::KernighanLin,
        false,
    )
    .unwrap();
    let (_, cost) = partition_app(
        &app,
        Objective::cost_driven(deadline),
        Algorithm::KernighanLin,
        false,
    )
    .unwrap();
    // The Vulcan-style objective buys less hardware than the
    // COSYMA-style one, at the price of a longer (still feasible)
    // schedule.
    assert!(cost.hw_area <= perf.hw_area);
    assert!(cost.makespan >= perf.makespan);
    assert!(cost.meets_deadline && perf.meets_deadline);
}

#[test]
fn hw_first_and_sw_first_converge_to_feasible_partitions() {
    let app = app();
    let g = app.graph();
    let all_hw_time: u64 = g.iter().map(|(_, t)| t.hw_cycles()).sum();
    let deadline = all_hw_time + (g.total_sw_cycles() - all_hw_time) / 4;
    for algo in [Algorithm::SwFirst, Algorithm::HwFirst, Algorithm::Gclp] {
        let (p, e) =
            partition_app(&app, Objective::performance_driven(deadline), algo, false).unwrap();
        assert!(e.meets_deadline, "{algo:?}");
        let report = realize(&app, &p, &Tracer::off()).unwrap();
        assert!(report.verified, "{algo:?}");
    }
}

#[test]
fn communication_overhead_is_measured_not_assumed() {
    let app = app();
    let g = app.graph();
    let all_hw = realize(&app, &Partition::all_hw(g.len()), &Tracer::off()).unwrap();
    let all_sw = realize(&app, &Partition::all_sw(g.len()), &Tracer::off()).unwrap();
    assert!(all_hw.bus_cycles > 0, "hw pays MMIO per operand and result");
    assert_eq!(all_sw.bus_cycles, 0, "sw never touches the bus");
}
