//! Quickstart: one specification, three views, one partitioned system.
//!
//! Parses a textual system specification, inspects its task-graph and
//! process-network views, partitions it under the paper's multi-factor
//! objective, and co-simulates the result at message level.
//!
//! Run with: `cargo run --example quickstart`

use codesign::ir::spec::SystemSpec;
use codesign::partition::algorithms::kernighan_lin;
use codesign::partition::area::NaiveArea;
use codesign::partition::cost::Objective;
use codesign::partition::eval::EvalConfig;
use codesign::sim::message::{self, MessageConfig, Placement, Resource};
use codesign::synth::mthread::{comm_aware, MthreadConfig};
use codesign::trace::Tracer;

const SPEC: &str = "\
system radio_link

# Coarse-grain view: the processing pipeline.
task sample   sw=2000  hw=250  area=18  par=0.3 mod=0.8
task filter   sw=24000 hw=1400 area=150 par=0.95 mod=0.2 kernel=fir
task packhdr  sw=3000  hw=700  area=25  par=0.2 mod=0.9
task crc      sw=9000  hw=600  area=40  par=0.6 mod=0.3 kernel=crc32
task transmit sw=5000  hw=900  area=45  par=0.5 mod=0.5
edge sample  -> filter   bytes=256
edge filter  -> packhdr  bytes=256
edge packhdr -> crc      bytes=288
edge crc     -> transmit bytes=292
deadline 30000

# Fine-grain concurrent view: the same system as processes.
channel samples cap=2
channel frames  cap=0
process frontend iter=32
  compute 2000
  send samples 256
end
process dsp iter=32
  recv samples
  compute 24000
  send frames 288
end
process mac iter=32
  recv frames
  compute 17000
end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SystemSpec::parse(SPEC)?;
    println!("system `{}`", spec.name());

    // --- Task-graph view: partition under the Section 3.3 objective ---
    let graph = spec.task_graph().expect("spec declares tasks");
    println!(
        "\ntask graph: {} tasks, deadline {:?}, all-SW time {} cycles",
        graph.len(),
        graph.deadline(),
        graph.total_sw_cycles()
    );
    let naive = NaiveArea;
    let objective = Objective::performance_driven(graph.deadline().expect("deadline set"));
    let config = EvalConfig::new(objective, &naive);
    let (partition, eval) = kernighan_lin(graph, &config)?;
    println!("partition (Kernighan-Lin):");
    for (id, task) in graph.iter() {
        println!("  {:<9} -> {:?}", task.name(), partition.side(id));
    }
    println!(
        "  makespan {} cycles (deadline met: {}), hw area {:.1}, {} bytes cross the boundary",
        eval.makespan, eval.meets_deadline, eval.hw_area, eval.cross_bytes
    );

    // --- Process-network view: co-simulate at message level -----------
    let net = spec.network().expect("spec declares processes");
    let all_sw = message::simulate(
        net,
        &Placement::all_software(net.len()),
        &MessageConfig::default(),
        &Tracer::off(),
    )?;
    println!(
        "\nprocess network, all-software: finishes at {} cycles",
        all_sw.finish_time
    );
    let outcome = comm_aware(net, &MthreadConfig::default(), &Tracer::off())?;
    let hw_names: Vec<&str> = outcome
        .hw_processes
        .iter()
        .map(|&i| {
            net.process(codesign::ir::process::ProcessId::from_index(i))
                .name()
        })
        .collect();
    println!(
        "multi-threaded co-processor flow moves {:?} to hardware: finishes at {} cycles ({}x)",
        hw_names,
        outcome.report.finish_time,
        all_sw.finish_time / outcome.report.finish_time.max(1)
    );
    let _ = Resource::Hardware(0); // silence unused-import pedantry in docs
    Ok(())
}
