//! # codesign-bench
//!
//! Experiment harnesses regenerating every figure of Adams & Thomas,
//! DAC 1996. The paper is a taxonomy, so its "results" are its nine
//! conceptual figures plus the Section 5 criteria; each experiment below
//! turns one of them into measured rows whose *shape* the paper's prose
//! predicts (see `EXPERIMENTS.md` at the repository root for the
//! paper-vs-measured record).
//!
//! | experiment | paper anchor | harness |
//! |---|---|---|
//! | E1 | Fig. 1 + §5 criteria | [`e1_taxonomy`] |
//! | E2 | Fig. 2 task nesting | [`e2_coverage`] |
//! | E3 | Fig. 3 abstraction ladder | [`e3_ladder`] |
//! | E4 | Fig. 4 embedded micro | [`e4_interface`] |
//! | E5 | Fig. 5 multiprocessor | [`e5_multiproc`] |
//! | E6 | Fig. 6 ASIP | [`e6_asip`] |
//! | E7 | Fig. 7 reconfigurable FUs | [`e7_reconfig`] |
//! | E8 | Fig. 8 co-processor | [`e8_coproc`] |
//! | E9 | Fig. 9 multi-threaded co-processor | [`e9_mthread`] |
//! | E10 | \[18\] incremental estimation | [`e10_estimation`] |
//! | E11 | §2's open mixed-boundary case (beyond the paper) | [`e11_mixed_boundaries`] |
//! | E12 | pipelined streaming co-processors (beyond the paper) | [`e12_pipelining`] |
//!
//! Run them all with `cargo run -p codesign-bench --bin experiments`.
//! The `bench-*` binaries write the checked-in `BENCH_*.json` reports;
//! repeatable end-to-end and per-layer timings come from the separate
//! `perfbench` benchmark that `BENCHMARK.json` declares.

#![warn(missing_docs)]

use std::fmt::Write as _;

use codesign_trace::Tracer;

/// Shared plumbing for the `bench-*` binaries: the common
/// `[--smoke] [out.json]` argument convention and the standard
/// benchmark JSON document shape (a `"benchmark"` name, descriptive
/// header fields, and a `"results"` array of preformatted rows). Every
/// `BENCH_*.json` in the repository is rendered through this module, so
/// the artifact-collection glob and downstream tooling see one format.
pub mod jsonout {
    use std::fmt::Write as _;

    use codesign_trace::json::Json;

    /// Parses the standard bench CLI: an optional `--smoke` flag and an
    /// optional output path. Returns `(smoke, out_path)`, defaulting the
    /// path to `default_full`, or to `default_smoke` under `--smoke` so
    /// CI smoke runs never perturb a checked-in report.
    #[must_use]
    pub fn smoke_args(default_full: &str, default_smoke: &str) -> (bool, String) {
        let mut smoke = false;
        let mut out_path: Option<String> = None;
        for arg in std::env::args().skip(1) {
            if arg == "--smoke" {
                smoke = true;
            } else {
                out_path = Some(arg);
            }
        }
        let out_path =
            out_path.unwrap_or_else(|| (if smoke { default_smoke } else { default_full }).into());
        (smoke, out_path)
    }

    /// The host's available parallelism — every benchmark reports it so
    /// a reader can judge whether a scaling number had cores behind it.
    #[must_use]
    pub fn host_cores() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The commit the report was generated from (`git describe --always
    /// --dirty`), or `unknown` outside a git checkout — every benchmark
    /// records it next to `host_cores`.
    #[must_use]
    pub fn git_rev() -> String {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
    }

    /// Renders the standard benchmark document: the `"benchmark"` name,
    /// the typed `headers` in order (an array one element per line, like
    /// `"results"`), then `rows` (each a preformatted JSON object, no
    /// trailing comma) under `"results"`.
    #[must_use]
    pub fn render(benchmark: &str, headers: &[(&str, Json)], rows: &[String]) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"benchmark\": \"{benchmark}\",");
        for (key, value) in headers {
            if let Json::Array(items) = value {
                let items: Vec<String> = items.iter().map(ToString::to_string).collect();
                let _ = writeln!(json, "  \"{key}\": [\n    {}\n  ],", items.join(",\n    "));
            } else {
                let _ = writeln!(json, "  \"{key}\": {value},");
            }
        }
        json.push_str("  \"results\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {row}{}",
                if i + 1 < rows.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Writes a report, creating parent directories as needed, and
    /// prints the conventional `wrote {path}` line.
    pub fn write(path: &str, json: &str) {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("creates output directory");
            }
        }
        std::fs::write(path, json).expect("writes benchmark JSON");
        println!("wrote {path}");
    }
}

/// One regenerated figure/table.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id (`"E3"`).
    pub id: &'static str,
    /// Title naming the paper anchor.
    pub title: &'static str,
    /// The regenerated rows, as preformatted text.
    pub table: String,
    /// The shape the paper predicts, and whether it held.
    pub findings: Vec<String>,
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {}: {} ==\n", self.id, self.title)?;
        writeln!(f, "{}", self.table)?;
        for n in &self.findings {
            writeln!(f, "  * {n}")?;
        }
        Ok(())
    }
}

/// E1 — the Section 5 criteria table over the surveyed methodologies.
#[must_use]
pub fn e1_taxonomy() -> ExperimentReport {
    let survey = codesign::registry::surveyed_methodologies();
    for m in &survey {
        m.validate().expect("survey is consistent");
    }
    let table = codesign::report::comparison_table(&survey);
    ExperimentReport {
        id: "E1",
        title: "Section 5 criteria over the surveyed approaches (Fig. 1 types)",
        table,
        findings: vec![
            format!(
                "{} methodologies classified; all pass the taxonomy's structural rules",
                survey.len()
            ),
            "co-processor flows are the only Type II entries, as in the paper".to_string(),
        ],
    }
}

/// E2 — the Figure 2 design-task coverage of this repository's flows.
#[must_use]
pub fn e2_coverage() -> ExperimentReport {
    let flows = codesign::registry::implemented_flows();
    let mut table = codesign::report::coverage_matrix(&flows);
    table.push('\n');
    table.push_str(&codesign::report::factor_matrix(&flows));
    ExperimentReport {
        id: "E2",
        title: "Figure 2 task nesting over the implemented flows",
        table,
        findings: vec![
            "every flow that partitions also co-synthesizes (Fig. 2 nesting)".to_string(),
            "all six Section 3.3 considerations are exercised by some flow".to_string(),
        ],
    }
}

/// E3 — the Figure 3 abstraction ladder: accuracy vs simulation cost.
#[must_use]
pub fn e3_ladder() -> ExperimentReport {
    use codesign_sim::ladder::{run_ladder, timing_errors, LadderConfig};
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>6} | {:>9} | {:>10} | {:>12} | {:>9} | {:>8}",
        "bytes", "level", "sim cycles", "kernel events", "wall (us)", "error"
    );
    let mut pin_events = 0u64;
    let mut msg_events = 0u64;
    for bytes in [16u64, 64, 256, 1024] {
        let cfg = LadderConfig {
            message_bytes: bytes,
            ..LadderConfig::default()
        };
        let reports = run_ladder(&cfg, &Tracer::off()).expect("ladder runs");
        let errors = timing_errors(&reports);
        for (r, (_, err)) in reports.iter().zip(&errors) {
            let _ = writeln!(
                table,
                "{:>6} | {:>9} | {:>10} | {:>12} | {:>9} | {:>7.1}%",
                bytes,
                r.level.to_string(),
                r.simulated_cycles,
                r.kernel_events,
                r.wall.as_micros(),
                err * 100.0
            );
            if bytes == 256 {
                match r.level {
                    codesign_sim::ladder::AbstractionLevel::Pin => pin_events = r.kernel_events,
                    codesign_sim::ladder::AbstractionLevel::Message => msg_events = r.kernel_events,
                    _ => {}
                }
            }
        }
    }
    ExperimentReport {
        id: "E3",
        title: "Figure 3 interface-abstraction ladder (accuracy vs cost)",
        table,
        findings: vec![
            format!(
                "pin-level costs {}x the kernel events of message-level at 256 B — \"computationally expensive\" vs \"very efficient\"",
                pin_events / msg_events.max(1)
            ),
            "timing error is 0 at the pin reference and grows up the ladder".to_string(),
        ],
    }
}

/// E4 — Figure 4 embedded microprocessor: interface synthesis costs and
/// a verified end-to-end run.
#[must_use]
pub fn e4_interface() -> ExperimentReport {
    use codesign_rtl::bus::Uart;
    use codesign_synth::interface::{synthesize_interface, DeviceKind, DeviceSpec};
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>8} | {:>10} | {:>16} | {:>14}",
        "devices", "glue gates", "gate-equivalents", "driver instrs"
    );
    for n in 1..=5 {
        let mut specs = vec![DeviceSpec::new("console", DeviceKind::Uart)];
        let extra = [
            DeviceSpec::new("tick", DeviceKind::Timer),
            DeviceSpec::new("leds", DeviceKind::Gpio),
            DeviceSpec::new(
                "dma",
                DeviceKind::Fifo {
                    capacity: 8,
                    drain_period: 4,
                },
            ),
            DeviceSpec::new("aux", DeviceKind::Gpio),
        ];
        specs.extend(extra.into_iter().take(n - 1));
        let iface = synthesize_interface(specs).expect("synthesis succeeds");
        let drivers = codesign_isa::asm::assemble(&format!("halt\n{}", iface.driver_source()))
            .expect("drivers assemble")
            .len()
            - 1;
        let _ = writeln!(
            table,
            "{:>8} | {:>10} | {:>16} | {:>14}",
            n,
            iface.glue_gates(),
            iface.glue().gate_equivalents(),
            drivers
        );
    }

    // End-to-end verification run.
    let iface = synthesize_interface(vec![
        DeviceSpec::new("console", DeviceKind::Uart),
        DeviceSpec::new("tick", DeviceKind::Timer),
    ])
    .expect("synthesis succeeds");
    let (mut cpu, _) = iface
        .build_system(
            "li r1, 79\njal r15, drv_console_putc\nli r1, 75\njal r15, drv_console_putc\nhalt\n",
        )
        .expect("system builds");
    cpu.run(100_000).expect("application halts");
    let uart: &Uart = cpu.bus().unwrap().device().expect("uart mounted");
    let verified = uart.transmitted() == b"OK";

    ExperimentReport {
        id: "E4",
        title: "Figure 4 embedded microprocessor: interface synthesis",
        table,
        findings: vec![
            "glue gate count grows with integrated devices".to_string(),
            format!("generated drivers executed on the ISS transmit correctly: {verified}"),
        ],
    }
}

/// E5 — Figure 5 heterogeneous multiprocessors: exact vs heuristic
/// cost and search effort across graph sizes.
#[must_use]
pub fn e5_multiproc() -> ExperimentReport {
    use codesign_ir::workload::tgff::{random_task_graph, TgffConfig};
    use codesign_synth::multiproc::{
        bin_packing, branch_and_bound, sensitivity_driven, MultiprocConfig,
    };
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>5} | {:>12} | {:>10} | {:>12} | {:>12}",
        "tasks", "exact cost", "b&b nodes", "bin cost", "sens cost"
    );
    let mut findings = Vec::new();
    let mut prev_nodes = 0u64;
    for tasks in [4usize, 6, 8, 10] {
        let g = random_task_graph(&TgffConfig {
            tasks,
            seed: 0xE5,
            sw_cycles: (2_000, 10_000),
            ..TgffConfig::default()
        });
        let mut cfg = MultiprocConfig::new(g.total_sw_cycles() / 3);
        cfg.max_instances = 2;
        let exact = branch_and_bound(&g, &cfg).expect("feasible");
        let bin = bin_packing(&g, &cfg).expect("feasible");
        let sens = sensitivity_driven(&g, &cfg).expect("feasible");
        let _ = writeln!(
            table,
            "{:>5} | {:>12.1} | {:>10} | {:>12.1} | {:>12.1}",
            tasks, exact.cost, exact.explored, bin.cost, sens.cost
        );
        assert!(exact.cost <= bin.cost + 1e-9 && exact.cost <= sens.cost + 1e-9);
        if tasks == 10 {
            findings.push(format!(
                "exact search explodes: {}x more nodes at 10 tasks than at 4",
                exact.explored / prev_nodes.max(1)
            ));
        }
        if tasks == 4 {
            prev_nodes = exact.explored;
        }
    }
    findings.push("the exact (SOS-style) solver is never beaten on cost; heuristics stay feasible in polynomial time".to_string());
    ExperimentReport {
        id: "E5",
        title: "Figure 5 multiprocessor co-synthesis: optimality vs effort",
        table,
        findings,
    }
}

/// E6 — Figure 6 ASIP: speedup vs instruction-set extension budget.
#[must_use]
pub fn e6_asip() -> ExperimentReport {
    use codesign_ir::workload::kernels;
    use codesign_isa::asip::{measure_speedup, AsipExtension};
    let suite = [kernels::fir(8), kernels::dct8(), kernels::horner(6)];
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>10} | {:>6} | {:>10} | {:>16}",
        "budget", "units", "luts used", "geomean speedup"
    );
    let mut last_speedup = 0.0f64;
    let mut first_speedup = 0.0f64;
    for budget in [0u32, 700, 1_400, 2_800, 5_600, 11_200] {
        let refs: Vec<&codesign_ir::cdfg::Cdfg> = suite.iter().collect();
        let ext = AsipExtension::select(&refs, budget);
        let mut product = 1.0f64;
        for g in &suite {
            let inputs: Vec<i64> = (0..g.input_count()).map(|i| i as i64 % 17 - 8).collect();
            let (base, fused) = measure_speedup(&ext, g, &inputs).expect("verified speedup");
            product *= base as f64 / fused as f64;
        }
        let geomean = product.powf(1.0 / suite.len() as f64);
        let _ = writeln!(
            table,
            "{:>10} | {:>6} | {:>10} | {:>16.3}",
            budget,
            ext.units().len(),
            ext.total_luts(),
            geomean
        );
        if budget == 700 {
            first_speedup = geomean;
        }
        last_speedup = geomean;
    }
    ExperimentReport {
        id: "E6",
        title: "Figure 6 ASIP: speedup vs extension area budget",
        table,
        findings: vec![
            "speedup is monotone in budget with diminishing returns".to_string(),
            format!(
                "first 700 LUTs buy {:.2}x; the remaining 10.5k LUTs add only {:.2}x more",
                first_speedup,
                last_speedup / first_speedup.max(1e-9)
            ),
            "modifiability is preserved: the same binaries run (slower) without the units"
                .to_string(),
        ],
    }
}

/// E7 — Figure 7 reconfigurable functional units: static vs on-the-fly
/// repartitioning across phase lengths.
#[must_use]
pub fn e7_reconfig() -> ExperimentReport {
    use codesign_partition::reconfig::{run_all_software, run_dynamic, run_static, Phase};
    use codesign_rtl::fpga::{Bitstream, FpgaFabric};
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>12} | {:>12} | {:>12} | {:>12} | {:>7}",
        "invocations", "software", "static", "dynamic", "winner"
    );
    let mut crossover_seen = false;
    let mut prev_winner = "";
    for invocations in [2u64, 8, 32, 128, 512, 4096] {
        let phases: Vec<Phase> = (0..8)
            .map(|i| Phase {
                unit: Bitstream {
                    name: format!("u{}", i % 4),
                    luts: 300,
                    latency: 5,
                },
                sw_cycles: 80,
                invocations,
            })
            .collect();
        let sw = run_all_software(&phases);
        let mut fab = FpgaFabric::new(1, 512, 30);
        let st = run_static(&phases, &mut fab).expect("static runs");
        let mut fab = FpgaFabric::new(1, 512, 30);
        let dy = run_dynamic(&phases, &mut fab).expect("dynamic runs");
        let winner = if dy.total_cycles < st.total_cycles {
            "dynamic"
        } else {
            "static"
        };
        if !prev_winner.is_empty() && winner != prev_winner {
            crossover_seen = true;
        }
        prev_winner = winner;
        let _ = writeln!(
            table,
            "{:>12} | {:>12} | {:>12} | {:>12} | {:>7}",
            invocations, sw, st.total_cycles, dy.total_cycles, winner
        );
    }
    ExperimentReport {
        id: "E7",
        title: "Figure 7 special FUs on FPGA: static vs dynamic partition",
        table,
        findings: vec![
            format!("crossover observed: {crossover_seen} — dynamic wins once phase work dwarfs reconfiguration"),
            "with rapid phase switching the static partition avoids thrash, as the paper's \"adapted on the fly … to suit circumstances\" implies".to_string(),
        ],
    }
}

/// E8 — Figure 8 co-processor partitioning: algorithms and the
/// sharing-aware estimation ablation, realized end to end.
#[must_use]
pub fn e8_coproc() -> ExperimentReport {
    use codesign_partition::cost::Objective;
    use codesign_partition::Partition;
    use codesign_synth::coproc::{characterize, partition_app, realize, Algorithm, Application};
    let mut app_spec = Application::dsp_suite();
    app_spec.tasks.truncate(6);
    let app = characterize(&app_spec).expect("characterization");
    let g = app.graph();
    let all_hw_time: u64 = g.iter().map(|(_, t)| t.hw_cycles()).sum();
    let deadline = all_hw_time + (g.total_sw_cycles() - all_hw_time) / 3;

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>14} | {:>8} | {:>10} | {:>10} | {:>8} | {:>8}",
        "algorithm", "sharing", "makespan", "hw area", "hw tasks", "cost"
    );
    for (name, algo) in [
        ("sw-first", Algorithm::SwFirst),
        ("hw-first", Algorithm::HwFirst),
        ("kernighan-lin", Algorithm::KernighanLin),
        ("gclp", Algorithm::Gclp),
        ("annealing", Algorithm::Annealing(7)),
    ] {
        for sharing in [false, true] {
            let (p, e) = partition_app(&app, Objective::cost_driven(deadline), algo, sharing)
                .expect("partitioning");
            let _ = writeln!(
                table,
                "{:>14} | {:>8} | {:>10} | {:>10.0} | {:>8} | {:>8.3}",
                name,
                if sharing { "aware" } else { "naive" },
                e.makespan,
                e.hw_area,
                p.hw_count(),
                e.cost
            );
        }
    }
    let all_sw = realize(&app, &Partition::all_sw(g.len()), &Tracer::off()).expect("sw runs");
    let (best, _) = partition_app(
        &app,
        Objective::performance_driven(deadline),
        Algorithm::KernighanLin,
        true,
    )
    .expect("partitioning");
    let mixed = realize(&app, &best, &Tracer::off()).expect("mixed runs");
    ExperimentReport {
        id: "E8",
        title: "Figure 8 co-processor partitioning (+ sharing-aware ablation)",
        table,
        findings: vec![
            format!(
                "realized best partition: {} cycles vs all-software {} cycles ({:.1}x), outputs verified: {}",
                mixed.total_cycles,
                all_sw.total_cycles,
                all_sw.total_cycles as f64 / mixed.total_cycles as f64,
                mixed.verified
            ),
            "sharing-aware estimation lowers the marginal cost of hardware, admitting at least as many tasks".to_string(),
        ],
    }
}

/// E9 — Figure 9 multi-threaded co-processors: communication/concurrency
/// awareness vs the compute-only strategy.
#[must_use]
pub fn e9_mthread() -> ExperimentReport {
    use codesign_ir::process::{Action, Process, ProcessNetwork};
    use codesign_sim::message::{simulate, Placement};
    use codesign_synth::mthread::{comm_aware, compute_only, exhaustive, MthreadConfig};

    /// A network where communication placement matters: a chatty pair of
    /// medium-weight stages exchanging large frames, one heavy
    /// independent worker, and light helpers. The compute-only strategy
    /// takes the heavy worker plus *one* side of the chatty pair,
    /// splitting it across the boundary.
    fn chatty_scenario(seed: u64) -> ProcessNetwork {
        let mut net = ProcessNetwork::new(format!("chatty{seed}"));
        let scale = 1 + seed % 3;
        let feed = net.add_channel("feed", 0);
        let frames = net.add_channel("frames", 0);
        let done = net.add_channel("done", 0);
        net.add_process(
            Process::new(
                "src",
                vec![
                    Action::Compute(100),
                    Action::Send {
                        channel: feed,
                        bytes: 32,
                    },
                ],
            )
            .with_iterations(16),
        );
        net.add_process(
            Process::new(
                "chatty_a",
                vec![
                    Action::Receive { channel: feed },
                    Action::Compute(3_000 * scale),
                    Action::Send {
                        channel: frames,
                        bytes: 8_192,
                    },
                ],
            )
            .with_iterations(16),
        );
        net.add_process(
            Process::new(
                "chatty_b",
                vec![
                    Action::Receive { channel: frames },
                    Action::Compute(3_000 * scale),
                    Action::Send {
                        channel: done,
                        bytes: 16,
                    },
                ],
            )
            .with_iterations(16),
        );
        net.add_process(
            Process::new(
                "sink",
                vec![
                    Action::Receive { channel: done },
                    Action::Compute(7_000 + 500 * seed),
                ],
            )
            .with_iterations(16),
        );
        net
    }

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>5} | {:>10} | {:>12} | {:>12} | {:>12} | {:>12}",
        "seed", "all-sw", "compute-only", "comm-aware", "optimum", "cross-bytes aware/naive"
    );
    let mut aware_wins = 0;
    let cfg = MthreadConfig::default();
    for seed in 0..6u64 {
        let net = chatty_scenario(seed);
        let all_sw = simulate(
            &net,
            &Placement::all_software(net.len()),
            &cfg.sim,
            &Tracer::off(),
        )
        .expect("baseline");
        let naive = compute_only(&net, &cfg).expect("naive");
        let aware = comm_aware(&net, &cfg, &Tracer::off()).expect("aware");
        let opt = exhaustive(&net, &cfg).expect("optimum");
        if aware.report.finish_time < naive.report.finish_time {
            aware_wins += 1;
        }
        let _ = writeln!(
            table,
            "{:>5} | {:>10} | {:>12} | {:>12} | {:>12} | {:>10}/{}",
            seed,
            all_sw.finish_time,
            naive.report.finish_time,
            aware.report.finish_time,
            opt.report.finish_time,
            aware.report.cross_boundary_bytes,
            naive.report.cross_boundary_bytes,
        );
        assert!(aware.report.finish_time <= naive.report.finish_time);
    }
    ExperimentReport {
        id: "E9",
        title: "Figure 9 multi-threaded co-processor: comm/concurrency awareness",
        table,
        findings: vec![
            format!("comm-aware partitioning strictly beats compute-only on {aware_wins}/6 networks and never loses"),
            "the aware partitions localize traffic (fewer cross-boundary bytes)".to_string(),
        ],
    }
}

/// E10 — incremental sharing-aware estimation \[18\]: update cost vs full
/// recomputation across hardware-set sizes.
#[must_use]
pub fn e10_estimation() -> ExperimentReport {
    use codesign_hls::estimate::{AreaModel, HwRequirement, SharedAreaEstimator};
    use std::time::Instant;
    let model = AreaModel::default();
    let mk = |i: usize| HwRequirement {
        fu_counts: [i % 7 + 1, i % 3, i % 2, i % 5],
        registers: (i % 11 + 1) as u32,
        states: i % 13 + 2,
        ops: i % 17 + 3,
    };
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>8} | {:>18} | {:>18} | {:>8}",
        "set size", "incremental (ns/op)", "recompute (ns/op)", "ratio"
    );
    let mut final_ratio = 0.0;
    for n in [16usize, 64, 256, 1024] {
        let reqs: Vec<HwRequirement> = (0..n).map(mk).collect();
        let mut est = SharedAreaEstimator::new(model.clone());
        for r in &reqs {
            est.add(r);
        }
        // Incremental: remove + add + query, the partitioner's move probe.
        let iters = 2_000;
        let t0 = Instant::now();
        let mut acc = 0.0;
        for k in 0..iters {
            let r = &reqs[k % n];
            est.remove(r);
            acc += est.area();
            est.add(r);
        }
        let inc_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        // Recompute: price the same move from scratch.
        let t0 = Instant::now();
        for k in 0..iters {
            let skip = k % n;
            acc += SharedAreaEstimator::recompute(
                &model,
                reqs.iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, r)| r),
            );
        }
        let full_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        std::hint::black_box(acc);
        final_ratio = full_ns / inc_ns.max(1.0);
        let _ = writeln!(
            table,
            "{:>8} | {:>18.0} | {:>18.0} | {:>7.1}x",
            n, inc_ns, full_ns, final_ratio
        );
    }
    ExperimentReport {
        id: "E10",
        title: "[18] incremental vs from-scratch hardware estimation",
        table,
        findings: vec![
            format!("at 1024 hardware candidates the incremental estimator is {final_ratio:.0}x faster per move"),
            "incremental cost is ~flat in set size; recomputation grows linearly — what makes estimation viable in a partitioning inner loop".to_string(),
        ],
    }
}

/// E11 — *beyond the paper*: a mixed Type I + Type II system. Section 2
/// closes with "it is conceivable that a HW/SW system could represent a
/// mixture of Type I and Type II HW/SW boundaries, but to our knowledge,
/// no published work has addressed this situation." This experiment
/// builds one: a CR32 whose instruction set is ASIP-extended (the
/// logical, Type I boundary moves *into* the processor) driving an FSMD
/// co-processor over the bus (the physical, Type II boundary), and
/// measures all four boundary configurations.
#[must_use]
pub fn e11_mixed_boundaries() -> ExperimentReport {
    use codesign_hls::{synthesize, Constraints};
    use codesign_ir::workload::kernels;
    use codesign_isa::asip::AsipExtension;
    use codesign_isa::asm::assemble;
    use codesign_isa::codegen::compile;
    use codesign_isa::cpu::{Cpu, MMIO_BASE};
    use codesign_rtl::bus::{coproc_regs, BusTiming, CoprocessorPort, SystemBus};
    use codesign_rtl::fsmd::FsmdSim;

    // The application: FIR8 is the ASIP candidate (its multiply-by-
    // coefficient chains fuse into an immediate-carrying instruction),
    // MATMUL4 is the co-processor candidate (register x register
    // multiplies the fused instruction cannot cover, but a parallel
    // datapath can). Both verified against the interpreter.
    let fir = kernels::fir(8);
    let mm = kernels::matmul(4);
    let fir_inputs: Vec<i64> = (0..8).map(|i| i * 3 - 9).collect();
    let mm_inputs: Vec<i64> = (0..mm.input_count()).map(|i| (i as i64 % 9) - 4).collect();
    let fir_expected = fir.evaluate(&fir_inputs).expect("interpreter");
    let mm_expected = mm.evaluate(&mm_inputs).expect("interpreter");

    let ext = AsipExtension::select(&[&fir], 2_000);
    let mm_hw = synthesize(&mm, &Constraints::default()).expect("synthesizes");

    // Software cost of each kernel, with and without the ASIP boundary.
    let run_sw =
        |g: &codesign_ir::cdfg::Cdfg, inputs: &[i64], expected: &[i64], asip: bool| -> u64 {
            let (kernel, mut cpu) = if asip {
                (
                    ext.compile(g).expect("compiles"),
                    ext.make_cpu(codesign_isa::codegen::MEM_BYTES),
                )
            } else {
                (
                    compile(g).expect("compiles"),
                    Cpu::new(codesign_isa::codegen::MEM_BYTES),
                )
            };
            let (out, stats) = kernel.execute_on(&mut cpu, inputs).expect("runs");
            assert_eq!(out, expected, "{} software output", g.name());
            stats.cycles
        };

    // MATMUL through the Type II boundary: operand marshalling over MMIO.
    let run_coproc = || -> u64 {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(
            0x0,
            0x10000,
            Box::new(CoprocessorPort::new(
                FsmdSim::new(mm_hw.fsmd.clone()).expect("valid"),
            )),
        )
        .expect("maps");
        let mut src = format!("    li r10, {MMIO_BASE}\n");
        for i in 0..mm.input_count() {
            let _ = writeln!(src, "    ld r11, r0, {}", 0x100 + 8 * i);
            let _ = writeln!(
                src,
                "    sw r11, r10, {}",
                coproc_regs::INPUT_BASE + 4 * i as u32
            );
        }
        let _ = writeln!(src, "    sw r10, r10, {}", coproc_regs::START);
        let _ = writeln!(src, "poll:\n    lw r11, r10, {}", coproc_regs::STATUS);
        let _ = writeln!(src, "    beq r11, r0, poll");
        for j in 0..mm.output_count() {
            let _ = writeln!(
                src,
                "    lw r11, r10, {}",
                coproc_regs::OUTPUT_BASE + 4 * j as u32
            );
            let _ = writeln!(src, "    sd r11, r0, {}", 0x800 + 8 * j);
        }
        let _ = writeln!(src, "    halt");
        let program = assemble(&src).expect("assembles");
        let mut cpu = Cpu::new(0x10000);
        cpu.attach_bus(bus);
        cpu.load_program(&program);
        for (i, &v) in mm_inputs.iter().enumerate() {
            cpu.store_word(0x100 + 8 * i as u64, v).expect("writes");
        }
        let stats = cpu.run(10_000_000).expect("halts");
        for (j, &want) in mm_expected.iter().enumerate() {
            let got = cpu.load_word(0x800 + 8 * j as u64).expect("reads");
            assert_eq!(got as u32, want as u32, "matmul hardware output {j}");
        }
        stats.cycles
    };

    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>22} | {:>10} | {:>10} | {:>10}",
        "configuration", "fir8", "matmul4", "total"
    );
    let mut totals = Vec::new();
    for (name, asip, coproc) in [
        ("base (plain sw)", false, false),
        ("Type I only (asip)", true, false),
        ("Type II only (coproc)", false, true),
        ("mixed Type I + II", true, true),
    ] {
        let fir_cycles = run_sw(&fir, &fir_inputs, &fir_expected, asip);
        let mm_cycles = if coproc {
            run_coproc()
        } else {
            run_sw(&mm, &mm_inputs, &mm_expected, asip)
        };
        let total = fir_cycles + mm_cycles;
        totals.push(total);
        let _ = writeln!(
            table,
            "{name:>22} | {fir_cycles:>10} | {mm_cycles:>10} | {total:>10}"
        );
    }
    assert!(
        totals[3] <= totals[0] && totals[3] <= totals[1] && totals[3] <= totals[2],
        "the mixed configuration must dominate: {totals:?}"
    );
    ExperimentReport {
        id: "E11",
        title: "beyond the paper: a mixed Type I + Type II system (Section 2's open case)",
        table,
        findings: vec![
            format!(
                "the mixed system is the fastest configuration: {:.2}x over base, {:.2}x over the best single-boundary design",
                totals[0] as f64 / totals[3] as f64,
                totals[1].min(totals[2]) as f64 / totals[3] as f64,
            ),
            "the two boundaries compose without interference: ASIP custom instructions and MMIO co-processor traffic coexist on one core, all outputs verified".to_string(),
        ],
    }
}

/// E12 — *beyond the paper*: pipelined streaming co-processors. The
/// Figure 8 co-processors serve streaming DSP functions; modulo
/// scheduling overlaps invocations at a fixed initiation interval,
/// turning the latency-bound serial design into a throughput-bound one.
#[must_use]
pub fn e12_pipelining() -> ExperimentReport {
    use codesign_hls::pipeline::{min_initiation_interval, pipeline_schedule};
    use codesign_hls::schedule::list_schedule;
    use codesign_ir::workload::kernels;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:>8} | {:>14} | {:>4} | {:>8} | {:>14} | {:>14} | {:>8}",
        "kernel", "resources", "mii", "ii", "serial (1k)", "pipelined (1k)", "speedup"
    );
    let mut best_speedup: f64 = 0.0;
    for g in [kernels::fir(8), kernels::dct8(), kernels::sobel3x3()] {
        for res in [[1usize, 1, 1, 1], [2, 2, 1, 2], [8, 8, 1, 8]] {
            let serial_latency = list_schedule(&g, &res).expect("feasible").makespan();
            let p = pipeline_schedule(&g, &res).expect("feasible");
            let n = 1_000u64;
            let serial = serial_latency * n;
            let pipelined = p.streaming_cycles(n);
            let speedup = serial as f64 / pipelined as f64;
            best_speedup = best_speedup.max(speedup);
            let _ = writeln!(
                table,
                "{:>8} | {:>14} | {:>4} | {:>8} | {:>14} | {:>14} | {:>7.2}x",
                g.name(),
                format!("{res:?}"),
                min_initiation_interval(&g, &res),
                p.ii,
                serial,
                pipelined,
                speedup
            );
        }
    }
    ExperimentReport {
        id: "E12",
        title: "beyond the paper: pipelined streaming co-processors (modulo scheduling)",
        table,
        findings: vec![
            format!("overlapping invocations buys up to {best_speedup:.1}x throughput at 1000 invocations"),
            "the achieved II tracks the resource-constrained lower bound; more functional units buy a lower II, the streaming version of the paper's cost/performance dial".to_string(),
        ],
    }
}

/// Runs every experiment in order.
#[must_use]
pub fn run_all() -> Vec<ExperimentReport> {
    vec![
        e1_taxonomy(),
        e2_coverage(),
        e3_ladder(),
        e4_interface(),
        e5_multiproc(),
        e6_asip(),
        e7_reconfig(),
        e8_coproc(),
        e9_mthread(),
        e10_estimation(),
        e11_mixed_boundaries(),
        e12_pipelining(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_tables() {
        // Every experiment runs (well under a second even in a debug
        // build), so the asserts inside each one run in the suite too.
        let reports = run_all();
        assert_eq!(reports.len(), 12);
        for r in reports {
            assert!(!r.table.is_empty(), "{}", r.id);
            assert!(!r.findings.is_empty(), "{}", r.id);
            assert!(r.to_string().contains(r.id));
        }
    }
}
