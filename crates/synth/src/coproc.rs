//! Application-specific co-processor co-synthesis (paper Section 4.5,
//! Figure 8).
//!
//! The complete Type II flow over a kernel application:
//!
//! 1. [`characterize`] — measure each kernel's *software* cost by
//!    compiling it with `codesign-isa` and executing it on the
//!    instruction-set simulator, and its *hardware* cost by synthesizing
//!    it with `codesign-hls`; build the task graph from those measured
//!    numbers (not estimates of estimates).
//! 2. [`partition_app`] — run any `codesign-partition` algorithm under
//!    any objective over the characterized graph.
//! 3. [`realize`] — build the partitioned system and run it: hardware
//!    kernels become FSMD co-processors behind bus ports driven by
//!    generated operand-marshalling stubs; software kernels run as
//!    compiled CR32 programs; every result is verified against the CDFG
//!    interpreter. The total measured cycles include the real MMIO
//!    traffic, so "communication overhead" is observed, not modeled.

use codesign_hls::{synthesize, Constraints, SynthesisResult};
use codesign_ir::cdfg::Cdfg;
use codesign_ir::task::{Task, TaskGraph, TaskId};
use codesign_isa::asm::assemble;
use codesign_isa::codegen::{compile, CompiledKernel};
use codesign_isa::cpu::{Cpu, MMIO_BASE};
use codesign_partition::algorithms::{
    gclp, hw_first, kernighan_lin, portfolio, simulated_annealing, sw_first, AnnealingSchedule,
};
use codesign_partition::area::{HwAreaModel, NaiveArea, SharedArea};
use codesign_partition::cost::Objective;
use codesign_partition::eval::{EvalConfig, Evaluation};
use codesign_partition::{Partition, Side};
use codesign_rtl::bus::{coproc_regs, BusTiming, CoprocessorPort, SystemBus};
use codesign_rtl::fsmd::FsmdSim;
use codesign_trace::{Arg, Tracer};

use crate::error::SynthError;

/// One kernel invocation pattern in the application.
#[derive(Debug, Clone)]
pub struct AppTask {
    /// The kernel.
    pub kernel: Cdfg,
    /// How many times it runs per application iteration.
    pub invocations: u64,
    /// Inputs used both for characterization and verification.
    pub inputs: Vec<i64>,
}

/// A kernel application: independent tasks invoked repeatedly (the
/// "computationally intensive tasks" the co-processor off-loads).
#[derive(Debug, Clone)]
pub struct Application {
    /// The tasks.
    pub tasks: Vec<AppTask>,
}

impl Application {
    /// The default DSP suite: every library kernel with deterministic
    /// small inputs (small enough to survive the 32-bit co-processor
    /// port unchanged).
    #[must_use]
    pub fn dsp_suite() -> Self {
        let tasks = codesign_ir::workload::kernels::all()
            .into_iter()
            .map(|kernel| {
                let inputs: Vec<i64> = (0..kernel.input_count())
                    .map(|i| (i as i64 * 7 - 11) % 50)
                    .collect();
                AppTask {
                    kernel,
                    invocations: 50,
                    inputs,
                }
            })
            .collect();
        Application { tasks }
    }
}

/// The application with measured software and synthesized hardware costs.
#[derive(Debug)]
pub struct CharacterizedApp {
    graph: TaskGraph,
    tasks: Vec<AppTask>,
    compiled: Vec<CompiledKernel>,
    synthesized: Vec<SynthesisResult>,
    /// Measured single-invocation software cycles per task.
    sw_cycles_once: Vec<u64>,
}

impl CharacterizedApp {
    /// The measured task graph.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The synthesized hardware implementation of one task.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn synthesized(&self, t: TaskId) -> &SynthesisResult {
        &self.synthesized[t.index()]
    }
}

/// Fixed per-invocation MMIO overhead estimate used during
/// characterization: one 32-bit write per input, start, one status poll,
/// one read per output, each a bus transaction.
fn mmio_overhead(kernel: &Cdfg, bus_cycles_per_txn: u64) -> u64 {
    (kernel.input_count() as u64 + 2 + kernel.output_count() as u64) * bus_cycles_per_txn
}

/// Measures software cost on the ISS and hardware cost through HLS for
/// every task; returns the characterized application.
///
/// # Errors
///
/// Propagates compilation, execution, and synthesis failures.
pub fn characterize(app: &Application) -> Result<CharacterizedApp, SynthError> {
    let bus_txn = BusTiming::default().transaction_cycles();
    let mut graph = TaskGraph::new("coproc_app");
    let mut compiled = Vec::new();
    let mut synthesized = Vec::new();
    let mut sw_once = Vec::new();
    for t in &app.tasks {
        let ck = compile(&t.kernel)?;
        let (out, stats) = ck.execute(&t.inputs)?;
        let expected = t.kernel.evaluate(&t.inputs)?;
        if out != expected {
            return Err(SynthError::BadSpec {
                reason: format!("kernel {} compiles incorrectly", t.kernel.name()),
            });
        }
        let hw = synthesize(&t.kernel, &Constraints::default())?;
        let hw_cycles = (hw.latency + mmio_overhead(&t.kernel, bus_txn)) * t.invocations;
        graph.add_task(
            Task::new(t.kernel.name(), stats.cycles * t.invocations)
                .with_hw_cycles(hw_cycles)
                .with_hw_area(hw.area)
                .with_kernel(t.kernel.name()),
        );
        sw_once.push(stats.cycles);
        compiled.push(ck);
        synthesized.push(hw);
    }
    Ok(CharacterizedApp {
        graph,
        tasks: app.tasks.clone(),
        compiled,
        synthesized,
        sw_cycles_once: sw_once,
    })
}

/// The characterized application as a message-level process network
/// (the top of the paper's Figure 3 applied to the Figure 8 scenario):
/// each kernel becomes a pipeline process that computes a frame of
/// `batch` back-to-back invocations at its *measured* software cost and
/// ships the batched outputs to a collector process, `invocations`
/// frames over buffered channels. Block processing is the usual DSP
/// pipeline shape — the batch amortizes per-message synchronization the
/// same way frames amortize interrupt overhead on real hardware.
/// Returns the network plus per-process hardware speedups (measured
/// software cycles over synthesized datapath latency, 1.0 for the
/// collector), so placing a process in hardware via
/// `MessageConfig::hw_speedups` reproduces the characterized speedup.
/// The co-simulation benchmarks mount this as a `MessageEngine` under a
/// `Coordinator`.
#[must_use]
pub fn process_network(
    app: &CharacterizedApp,
    invocations: u32,
    batch: u32,
) -> (codesign_ir::process::ProcessNetwork, Vec<f64>) {
    use codesign_ir::process::{Action, Process, ProcessNetwork};
    let batch = batch.max(1);
    let mut net = ProcessNetwork::new("dsp_coprocessor");
    let mut speedups = Vec::new();
    let mut collector_actions = Vec::new();
    for (i, t) in app.tasks.iter().enumerate() {
        let ch = net.add_channel(format!("out:{}", t.kernel.name()), 1);
        let bytes = 8 * u64::from(batch) * t.kernel.output_count() as u64;
        net.add_process(
            Process::new(
                t.kernel.name(),
                vec![
                    Action::Compute(app.sw_cycles_once[i] * u64::from(batch)),
                    Action::Send { channel: ch, bytes },
                ],
            )
            .with_iterations(invocations),
        );
        collector_actions.push(Action::Receive { channel: ch });
        let hw_latency = app.synthesized[i].latency.max(1);
        speedups.push((app.sw_cycles_once[i] as f64 / hw_latency as f64).max(1.0));
    }
    net.add_process(Process::new("collector", collector_actions).with_iterations(invocations));
    speedups.push(1.0);
    (net, speedups)
}

/// Which partitioning algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// COSYMA-style software-first greedy.
    SwFirst,
    /// Vulcan-style hardware-first greedy.
    HwFirst,
    /// Kernighan–Lin pass improvement.
    KernighanLin,
    /// Global criticality / local phase.
    Gclp,
    /// Simulated annealing with the given seed.
    Annealing(u64),
    /// Race every algorithm concurrently and keep the best result.
    Portfolio,
}

/// Partitions a characterized application.
///
/// `sharing_aware` selects the Vahid–Gajski shared-area estimator \[18\]
/// instead of the naive per-task sum — the E8 ablation.
///
/// # Errors
///
/// Propagates partitioning failures.
pub fn partition_app(
    app: &CharacterizedApp,
    objective: Objective,
    algorithm: Algorithm,
    sharing_aware: bool,
) -> Result<(Partition, Evaluation), SynthError> {
    let shared;
    let naive = NaiveArea;
    let model: &dyn HwAreaModel = if sharing_aware {
        shared = SharedArea::from_graph(&app.graph);
        &shared
    } else {
        &naive
    };
    let config = EvalConfig::new(objective, model);
    let result = match algorithm {
        Algorithm::SwFirst => sw_first(&app.graph, &config),
        Algorithm::HwFirst => hw_first(&app.graph, &config),
        Algorithm::KernighanLin => kernighan_lin(&app.graph, &config),
        Algorithm::Gclp => gclp(&app.graph, &config),
        Algorithm::Annealing(seed) => {
            simulated_annealing(&app.graph, &config, &AnnealingSchedule::default(), seed)
        }
        Algorithm::Portfolio => portfolio(&app.graph, &config),
    }?;
    Ok(result)
}

/// Measured outcome of executing the partitioned system.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedRunReport {
    /// Total cycles for one application iteration of every task,
    /// multiplied by invocation counts.
    pub total_cycles: u64,
    /// Cycles spent in bus transactions (hardware tasks only).
    pub bus_cycles: u64,
    /// Per task: `(name, side, cycles for all invocations)`.
    pub per_task: Vec<(String, Side, u64)>,
    /// Every task's outputs matched the CDFG interpreter.
    pub verified: bool,
}

/// Builds and executes the partitioned system: software tasks run as
/// compiled kernels, hardware tasks as bus-mounted FSMD co-processors
/// driven by generated marshalling stubs. Each task executes once on the
/// ISS for verification and cycle measurement; totals scale by
/// invocation counts.
///
/// Each task becomes a span on `tracer`'s `coproc` track — laid out end
/// to end in cumulative application cycles, with its side, bus cycles,
/// and invocation count as arguments — and hardware tasks additionally
/// trace their stub's real MMIO transactions on a per-task bus track.
/// Tracing is observational only.
///
/// # Errors
///
/// Propagates assembly/execution errors, and returns
/// [`SynthError::BadSpec`] if any output disagrees with the interpreter.
pub fn realize(
    app: &CharacterizedApp,
    partition: &Partition,
    tracer: &Tracer,
) -> Result<MixedRunReport, SynthError> {
    if partition.len() != app.graph.len() {
        return Err(SynthError::BadSpec {
            reason: "partition does not cover the application".to_string(),
        });
    }
    let mut report = MixedRunReport {
        total_cycles: 0,
        bus_cycles: 0,
        per_task: Vec::new(),
        verified: true,
    };
    let track = tracer.track("coproc");
    for (i, task) in app.tasks.iter().enumerate() {
        let id = TaskId::from_index(i);
        let expected = task.kernel.evaluate(&task.inputs)?;
        let (cycles_once, bus_once, got) = match partition.side(id) {
            Side::Sw => {
                let (out, stats) = app.compiled[i].execute(&task.inputs)?;
                debug_assert_eq!(stats.cycles, app.sw_cycles_once[i]);
                (stats.cycles, 0, out)
            }
            Side::Hw => run_hw_task(app, i, task, tracer)?,
        };
        if tracer.is_on() {
            tracer.span(
                track,
                task.kernel.name(),
                report.total_cycles,
                (cycles_once * task.invocations).max(1),
                &[
                    (
                        "side",
                        Arg::from(match partition.side(id) {
                            Side::Sw => "sw",
                            Side::Hw => "hw",
                        }),
                    ),
                    ("bus_cycles", Arg::from(bus_once * task.invocations)),
                    ("invocations", Arg::from(task.invocations)),
                ],
            );
        }
        // The co-processor port is 32 bits wide; verification compares
        // modulo 2^32 for hardware tasks (the software path is exact).
        let ok = match partition.side(id) {
            Side::Sw => got == expected,
            Side::Hw => got
                .iter()
                .zip(&expected)
                .all(|(a, b)| (*a as u32) == (*b as u32)),
        };
        if !ok {
            report.verified = false;
        }
        let total = cycles_once * task.invocations;
        report.total_cycles += total;
        report.bus_cycles += bus_once * task.invocations;
        report
            .per_task
            .push((task.kernel.name().to_string(), partition.side(id), total));
    }
    Ok(report)
}

/// Runs one hardware task: mounts the synthesized FSMD on a bus and
/// executes the generated operand-marshalling stub.
fn run_hw_task(
    app: &CharacterizedApp,
    index: usize,
    task: &AppTask,
    tracer: &Tracer,
) -> Result<(u64, u64, Vec<i64>), SynthError> {
    let fsmd = app.synthesized[index].fsmd.clone();
    let mut bus = SystemBus::new(BusTiming::default());
    bus.set_tracer(tracer, &format!("hw:{}:bus", task.kernel.name()));
    bus.map(
        0x0,
        0x10000,
        Box::new(CoprocessorPort::new(FsmdSim::new(fsmd)?)),
    )?;

    // Stub: load each input from memory, write to the port, start, poll,
    // read each output back to memory.
    use std::fmt::Write as _;
    let mut src = String::new();
    let _ = writeln!(src, "    li r10, {MMIO_BASE}");
    for i in 0..task.kernel.input_count() {
        let _ = writeln!(src, "    ld r11, r0, {}", 0x100 + 8 * i);
        let _ = writeln!(
            src,
            "    sw r11, r10, {}",
            coproc_regs::INPUT_BASE + 4 * i as u32
        );
    }
    let _ = writeln!(src, "    sw r10, r10, {}", coproc_regs::START);
    let _ = writeln!(src, "poll:");
    let _ = writeln!(src, "    lw r11, r10, {}", coproc_regs::STATUS);
    let _ = writeln!(src, "    beq r11, r0, poll");
    for j in 0..task.kernel.output_count() {
        let _ = writeln!(
            src,
            "    lw r11, r10, {}",
            coproc_regs::OUTPUT_BASE + 4 * j as u32
        );
        let _ = writeln!(src, "    sd r11, r0, {}", 0x800 + 8 * j);
    }
    let _ = writeln!(src, "    halt");
    let program = assemble(&src)?;

    let mut cpu = Cpu::new(0x10000);
    cpu.attach_bus(bus);
    cpu.load_program(&program);
    for (i, &v) in task.inputs.iter().enumerate() {
        cpu.store_word(0x100 + 8 * i as u64, v)?;
    }
    let stats = cpu.run(10_000_000)?;
    let out: Result<Vec<i64>, _> = (0..task.kernel.output_count())
        .map(|j| cpu.load_word(0x800 + 8 * j as u64))
        .collect();
    Ok((stats.cycles, stats.bus_cycles, out?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_app() -> Application {
        let mut app = Application::dsp_suite();
        app.tasks.truncate(5); // fir, iir, fft4, dct8, matmul
        app
    }

    #[test]
    fn characterization_measures_real_costs() {
        let app = characterize(&small_app()).unwrap();
        let g = app.graph();
        assert_eq!(g.len(), 5);
        for (_, t) in g.iter() {
            assert!(t.sw_cycles() > 0 && t.hw_cycles() > 0, "{}", t.name());
            assert!(t.hw_area() > 0.0);
        }
        // Compute-heavy kernels win in hardware even after paying MMIO…
        for name in ["dct8", "matmul3"] {
            let t = g.iter().find(|(_, t)| t.name() == name).unwrap().1;
            assert!(t.hw_cycles() < t.sw_cycles(), "{name}");
        }
        // …while tiny kernels can be communication-dominated (Section 3.3:
        // transfer overhead can erase the hardware advantage).
        let fft = g.iter().find(|(_, t)| t.name() == "fft4").unwrap().1;
        assert!(fft.hw_cycles() * 3 > fft.sw_cycles(), "fft4 is comm-bound");
    }

    #[test]
    fn all_sw_realization_matches_characterized_costs() {
        let app = characterize(&small_app()).unwrap();
        let report = realize(&app, &Partition::all_sw(5), &Tracer::off()).unwrap();
        assert!(report.verified);
        assert_eq!(report.total_cycles, app.graph().total_sw_cycles());
        assert_eq!(report.bus_cycles, 0);
    }

    #[test]
    fn all_hw_realization_is_faster_and_verified() {
        let app = characterize(&small_app()).unwrap();
        let sw = realize(&app, &Partition::all_sw(5), &Tracer::off()).unwrap();
        let hw = realize(&app, &Partition::all_hw(5), &Tracer::off()).unwrap();
        assert!(hw.verified, "hardware outputs must match the interpreter");
        assert!(
            hw.total_cycles < sw.total_cycles,
            "hw {} vs sw {}",
            hw.total_cycles,
            sw.total_cycles
        );
        assert!(hw.bus_cycles > 0, "hardware pays real MMIO traffic");
    }

    #[test]
    fn partitioned_system_meets_deadline_cheaper_than_all_hw() {
        let app = characterize(&small_app()).unwrap();
        let g = app.graph();
        let all_hw_time: u64 = g.iter().map(|(_, t)| t.hw_cycles()).sum();
        let deadline = all_hw_time + (g.total_sw_cycles() - all_hw_time) / 3;
        let (partition, eval) = partition_app(
            &app,
            Objective::cost_driven(deadline),
            Algorithm::HwFirst,
            false,
        )
        .unwrap();
        assert!(eval.meets_deadline);
        assert!(partition.hw_count() < 5, "some tasks moved back to sw");
        let report = realize(&app, &partition, &Tracer::off()).unwrap();
        assert!(report.verified);
    }

    #[test]
    fn sharing_aware_estimation_admits_more_hardware() {
        let app = characterize(&small_app()).unwrap();
        let g = app.graph();
        let all_hw_time: u64 = g.iter().map(|(_, t)| t.hw_cycles()).sum();
        let deadline = all_hw_time * 2;
        let objective = Objective::cost_driven(deadline);
        let (p_naive, _) =
            partition_app(&app, objective.clone(), Algorithm::KernighanLin, false).unwrap();
        let (p_shared, _) = partition_app(&app, objective, Algorithm::KernighanLin, true).unwrap();
        assert!(
            p_shared.hw_count() >= p_naive.hw_count(),
            "sharing makes hardware cheaper: {} vs {}",
            p_shared.hw_count(),
            p_naive.hw_count()
        );
    }

    #[test]
    fn traced_realization_matches_untraced() {
        let app = characterize(&small_app()).unwrap();
        let mut partition = Partition::all_sw(5);
        partition.flip(TaskId::from_index(3)); // one hw task
        let plain = realize(&app, &partition, &Tracer::off()).unwrap();
        let tracer = Tracer::on();
        let traced = realize(&app, &partition, &tracer).unwrap();
        assert_eq!(plain, traced);
        // One span per task plus the hw task's bus transactions.
        assert!(tracer.event_count() > 5);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    fn bad_partition_size_rejected() {
        let app = characterize(&small_app()).unwrap();
        assert!(matches!(
            realize(&app, &Partition::all_sw(2), &Tracer::off()),
            Err(SynthError::BadSpec { .. })
        ));
    }
}
