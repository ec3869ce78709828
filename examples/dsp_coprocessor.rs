//! A DSP application through the complete Type II co-processor flow
//! (paper Figure 8, experiment E8's scenario).
//!
//! Characterizes the kernel suite (software cost measured on the CR32
//! instruction-set simulator, hardware cost synthesized by HLS), runs
//! four partitioners under a cost-driven objective, and *executes* the
//! best partitioned system — hardware kernels as bus-mounted FSMD
//! co-processors — verifying every output against the CDFG interpreter.
//!
//! Run with: `cargo run --example dsp_coprocessor`
//!
//! Pass `--trace FILE` to also record the realization as a Chrome
//! trace-event file (open in `chrome://tracing` or ui.perfetto.dev).

use codesign::partition::cost::Objective;
use codesign::partition::{Partition, Side};
use codesign::synth::coproc::{characterize, partition_app, realize, Algorithm, Application};
use codesign::trace::Tracer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--trace")
            .map(|i| args.get(i + 1).expect("--trace needs a file").clone())
    };
    let tracer = if trace_path.is_some() {
        Tracer::on()
    } else {
        Tracer::off()
    };

    let app = characterize(&Application::dsp_suite())?;
    let graph = app.graph();
    println!(
        "characterized {} kernels (software measured on the ISS, hardware synthesized):",
        graph.len()
    );
    println!(
        "  {:<10} {:>12} {:>12} {:>10}",
        "kernel", "sw cycles", "hw cycles", "hw area"
    );
    for (_, t) in graph.iter() {
        println!(
            "  {:<10} {:>12} {:>12} {:>10.0}",
            t.name(),
            t.sw_cycles(),
            t.hw_cycles(),
            t.hw_area()
        );
    }

    let all_hw_time: u64 = graph.iter().map(|(_, t)| t.hw_cycles()).sum();
    let deadline = all_hw_time + (graph.total_sw_cycles() - all_hw_time) / 4;
    println!(
        "\nobjective: minimize hardware cost subject to deadline {deadline} cycles (all-SW {})",
        graph.total_sw_cycles()
    );

    let mut best: Option<(&str, Partition, f64)> = None;
    for (name, algo) in [
        ("sw-first (COSYMA-style)", Algorithm::SwFirst),
        ("hw-first (Vulcan-style)", Algorithm::HwFirst),
        ("Kernighan-Lin", Algorithm::KernighanLin),
        ("GCLP", Algorithm::Gclp),
    ] {
        let (p, e) = partition_app(&app, Objective::cost_driven(deadline), algo, true)?;
        println!(
            "  {:<24} cost {:>7.3}  makespan {:>9}  area {:>9.0}  hw tasks {}",
            name,
            e.cost,
            e.makespan,
            e.hw_area,
            p.hw_count()
        );
        if best.as_ref().is_none_or(|(_, _, c)| e.cost < *c) {
            best = Some((name, p, e.cost));
        }
    }

    let (winner, partition, _) = best.expect("at least one algorithm ran");
    println!("\nrealizing the `{winner}` partition end-to-end on the ISS:");
    let report = realize(&app, &partition, &tracer)?;
    for (name, side, cycles) in &report.per_task {
        let side = match side {
            Side::Sw => "SW",
            Side::Hw => "HW",
        };
        println!("  {name:<10} [{side}] {cycles:>12} cycles");
    }
    println!(
        "total {} cycles ({} in bus transactions); outputs verified against the interpreter: {}",
        report.total_cycles, report.bus_cycles, report.verified
    );
    assert!(report.verified, "mixed system must compute correct results");
    if let Some(path) = trace_path {
        tracer.save(&path)?;
        println!(
            "trace: {} events -> {path} (open in chrome://tracing)",
            tracer.event_count()
        );
    }
    Ok(())
}
