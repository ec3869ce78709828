//! Integration: from one textual specification to analyzed systems in
//! both of the paper's views — the "common specification" thread
//! (Sections 3.2, 4.1) running through the whole stack.

use codesign::ir::spec::SystemSpec;
use codesign::partition::algorithms::sw_first;
use codesign::partition::area::NaiveArea;
use codesign::partition::cost::Objective;
use codesign::partition::eval::EvalConfig;
use codesign::sim::message::{simulate, MessageConfig, Placement};
use codesign::synth::mthread::{comm_aware, exhaustive, MthreadConfig};
use codesign::trace::Tracer;

const SPEC: &str = "\
system camera_node
task grab    sw=4000  hw=500  area=30 par=0.4 mod=0.7
task sobel   sw=30000 hw=1800 area=160 par=0.95 mod=0.2 kernel=sobel
task encode  sw=18000 hw=1500 area=120 par=0.8 mod=0.4
task ship    sw=6000  hw=1200 area=50 par=0.3 mod=0.8
edge grab  -> sobel  bytes=1024
edge sobel -> encode bytes=1024
edge encode -> ship  bytes=256
deadline 40000

channel pix cap=2
channel out cap=0
process sensor iter=24
  compute 4000
  send pix 1024
end
process vision iter=24
  recv pix
  compute 48000
  send out 256
end
process uplink iter=24
  recv out
  compute 6000
end
";

#[test]
fn one_spec_drives_both_views() {
    let spec = SystemSpec::parse(SPEC).expect("spec parses");
    assert_eq!(spec.name(), "camera_node");

    // Coarse view: partition the task graph against the deadline.
    let graph = spec.task_graph().expect("tasks declared");
    let naive = NaiveArea;
    let deadline = graph.deadline().expect("deadline declared");
    let cfg = EvalConfig::new(Objective::performance_driven(deadline), &naive);
    let (partition, eval) = sw_first(graph, &cfg).expect("partitioning runs");
    assert!(eval.meets_deadline, "{} > {deadline}", eval.makespan);
    // The parallel, heavy vision kernel is the natural hardware move.
    let sobel = graph.iter().find(|(_, t)| t.name() == "sobel").unwrap().0;
    assert_eq!(partition.side(sobel), codesign::partition::Side::Hw);

    // Concurrent view: multi-threaded co-processor partitioning.
    let net = spec.network().expect("processes declared");
    let all_sw = simulate(
        net,
        &Placement::all_software(net.len()),
        &MessageConfig::default(),
        &Tracer::off(),
    )
    .expect("baseline simulates");
    let outcome = comm_aware(net, &MthreadConfig::default(), &Tracer::off()).expect("flow runs");
    assert!(outcome.report.finish_time < all_sw.finish_time);
    // The greedy result matches the exhaustive optimum on this small net.
    let optimum = exhaustive(net, &MthreadConfig::default()).unwrap();
    assert_eq!(
        outcome.report.finish_time, optimum.report.finish_time,
        "greedy found the optimum here"
    );
}

#[test]
fn kernel_references_resolve_to_real_cdfgs() {
    let spec = SystemSpec::parse(SPEC).unwrap();
    let graph = spec.task_graph().unwrap();
    let sobel_task = graph.iter().find(|(_, t)| t.name() == "sobel").unwrap().1;
    let kernel = codesign::ir::workload::kernels::by_name(sobel_task.kernel().unwrap())
        .expect("kernel library has sobel");
    // The referenced kernel is executable and synthesizable.
    let out = kernel.evaluate(&vec![10; kernel.input_count()]).unwrap();
    assert_eq!(out.len(), 1);
    let hw = codesign::hls::synthesize(&kernel, &codesign::hls::Constraints::default()).unwrap();
    assert!(hw.latency > 0 && hw.area > 0.0);
}

#[test]
fn spec_round_trips_through_views_consistently() {
    let spec = SystemSpec::parse(SPEC).unwrap();
    let graph = spec.task_graph().unwrap();
    let net = spec.network().unwrap();
    // Both views describe the same pipeline shape: a source, a heavy
    // middle, a sink.
    assert_eq!(graph.len(), 4);
    assert_eq!(net.len(), 3);
    let heaviest_task = graph
        .iter()
        .max_by_key(|(_, t)| t.sw_cycles())
        .map(|(_, t)| t.name().to_string())
        .unwrap();
    assert_eq!(heaviest_task, "sobel");
    let heaviest_proc = net
        .iter()
        .max_by_key(|(_, p)| p.total_compute())
        .map(|(_, p)| p.name().to_string())
        .unwrap();
    assert_eq!(heaviest_proc, "vision");
}
