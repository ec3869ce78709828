//! `bench-cosim` — before/after timings for lookahead-driven
//! co-simulation, emitted as `BENCH_cosim.json`.
//!
//! "Before" is the pure-lockstep coordinator
//! ([`Coordinator::lockstep`]): every synchronization round advances
//! exactly one quantum, whether or not any engine has work. "After" is
//! the lookahead coordinator ([`Coordinator::new`]), which collapses
//! guaranteed-quiet quanta using [`SimEngine::next_event_hint`]s. Both
//! run the same scenarios and are verified to reach bit-identical
//! end-states (final global time, per-engine local times, message
//! reports, FSMD outputs), so the speedup and round-reduction columns
//! compare equal work.
//!
//! Scenarios:
//!
//! - `ladder` — the paper's Figure 7 remote-control ladder as a
//!   producer/consumer process network mounted as a [`MessageEngine`].
//! - `dsp_coprocessor` — the Figure 8 DSP suite, characterized through
//!   the ISS and HLS, as a kernel-pipeline process network (hottest two
//!   kernels in hardware) co-simulating alongside a gate-accurate
//!   [`FsmdEngine`] running the synthesized `dct8` datapath.
//!
//! ```text
//! cargo run --release -p codesign-bench --bin bench-cosim [--smoke] [out.json]
//! ```
//!
//! A second table, `kernels`, reports host throughput of the simulators
//! under every pin- and register-level run, over one seeded script of
//! bus transactions:
//!
//! - `gate_events` — events per second of the gate-level kernel
//!   ([`Simulator`]) driving the full bus-interface netlist (address,
//!   data and handshake pins, the address decoder, the `ack` flop) clock
//!   by clock through the script;
//! - `pin_transactions` — transactions per second of the pin-level bus
//!   phy ([`PinPhy`]) over the same script, with its decode memo's hit
//!   rate;
//! - `iss_instructions` — CR32 instructions per second of the ladder's
//!   producer program against a bus carrying a draining FIFO and a free
//!   running timer. Both devices catch up in one call each before every
//!   FIFO access and when the run returns, not on every instruction.
//!
//! Each rate is the best of the timed iterations, because a shared host
//! can run a whole minute ~40% slow; compare rates only between runs on
//! a like host. Every run, `--smoke` included, checks that `PinPhy`
//! reports the full netlist's events after every transaction of the
//! script.
//!
//! `--smoke` runs one timing iteration per cell and defaults the output
//! under `target/`, so CI can exercise the full path without perturbing
//! the checked-in `BENCH_cosim.json`.

use std::fmt::Write as _;
use std::time::Instant;

use codesign_bench::jsonout;
use codesign_hls::{synthesize, Constraints};
use codesign_ir::workload::kernels;
use codesign_isa::asm::assemble;
use codesign_rtl::bus::{timer_regs, BusPhy, BusSlave, Timer};
use codesign_rtl::fsmd::FsmdSim;
use codesign_rtl::netlist::{GateKind, NetId, Netlist};
use codesign_rtl::sim::Simulator;
use codesign_sim::adapters::FsmdEngine;
use codesign_sim::engine::{Coordinator, CoordinatorStats, SimEngine};
use codesign_sim::ladder::{build_cpu, message_scenario, producer_program, LadderConfig};
use codesign_sim::message::{MessageConfig, MessageEngine};
use codesign_sim::pinproto::PinPhy;
use codesign_synth::coproc::{characterize, process_network, Application};
use codesign_synth::mthread::placement_for;
use codesign_trace::json::Json;

/// Synchronization quanta measured. 16 is the `codesign cosim` default
/// and the gated cell.
const QUANTA: &[u64] = &[4, 16, 64];
const DEFAULT_QUANTUM: u64 = 16;
/// Global cycle budget; generous, scenarios finish well under it.
const BUDGET: u64 = 50_000_000;
/// Frames per kernel in the dsp_coprocessor pipeline.
const INVOCATIONS: u32 = 12;
/// Kernel invocations batched per frame (block processing).
const BATCH: u32 = 8;

/// Transactions in the pin-level script.
const PIN_TRANSACTIONS: usize = 20_000;
/// Device regions the pin-level script decodes.
const PIN_REGIONS: [(u32, u32); 3] = [(0x0000, 0x100), (0x0100, 0x100), (0x1000, 0x1000)];
/// Producer iterations of the ISS program.
const ISS_ITERATIONS: u32 = 400;

/// A scenario's engine set, rebuilt fresh for every timed run.
type EngineSet = Vec<Box<dyn SimEngine>>;
/// A factory producing one scenario's engine set.
type Scenario = Box<dyn Fn() -> EngineSet>;

struct Row {
    scenario: &'static str,
    quantum: u64,
    before_ns: u128,
    after_ns: u128,
    rounds_before: u64,
    rounds_after: u64,
    rounds_skipped: u64,
}

/// Runs one coordinated simulation and returns its stats plus a
/// fingerprint of every observable end-state, for lockstep/lookahead
/// equivalence checking.
fn run_once(
    build: &dyn Fn() -> EngineSet,
    quantum: u64,
    lookahead: bool,
) -> (CoordinatorStats, String) {
    let mut coord = if lookahead {
        Coordinator::new(quantum)
    } else {
        Coordinator::lockstep(quantum)
    };
    for engine in build() {
        coord.add_engine(engine);
    }
    let stats = coord.run(BUDGET).expect("scenario completes within budget");
    let mut fp = String::new();
    let _ = write!(fp, "t={};", stats.time);
    for engine in coord.engines() {
        let _ = write!(fp, "{}@{}:", engine.name(), engine.local_time());
        if let Some(m) = engine.as_any().downcast_ref::<MessageEngine>() {
            let _ = write!(fp, "{:?};", m.report());
        } else if let Some(f) = engine.as_any().downcast_ref::<FsmdEngine>() {
            let _ = write!(fp, "{:?};", f.sim().outputs());
        } else {
            fp.push(';');
        }
    }
    (stats, fp)
}

/// One warm-up run (kept as the reference result), then the average of
/// `iterations` timed runs, each asserted to reproduce the reference.
fn time(
    iterations: u32,
    build: &dyn Fn() -> EngineSet,
    quantum: u64,
    lookahead: bool,
) -> (u128, CoordinatorStats, String) {
    let (warm_stats, warm_fp) = run_once(build, quantum, lookahead);
    let start = Instant::now();
    for _ in 0..iterations {
        let (stats, fp) = run_once(build, quantum, lookahead);
        assert_eq!(stats, warm_stats, "non-deterministic coordination");
        assert_eq!(fp, warm_fp, "non-deterministic engine end-state");
    }
    (
        start.elapsed().as_nanos() / u128::from(iterations),
        warm_stats,
        warm_fp,
    )
}

/// The Figure 8 DSP-coprocessor scenario: characterized kernel pipeline
/// (hottest two kernels in hardware) plus a gate-accurate `dct8` FSMD.
fn dsp_scenario() -> impl Fn() -> EngineSet {
    let app = characterize(&Application::dsp_suite()).expect("dsp suite characterizes");
    let (net, speedups) = process_network(&app, INVOCATIONS, BATCH);
    // Hottest two pipeline processes (by total software compute) go to
    // hardware; the collector and the rest share software processor 0.
    let mut by_compute: Vec<usize> = (0..net.len().saturating_sub(1)).collect();
    by_compute.sort_by_key(|&i| {
        std::cmp::Reverse(
            net.process(codesign_ir::process::ProcessId::from_index(i))
                .total_compute(),
        )
    });
    let hw: Vec<usize> = by_compute.into_iter().take(2).collect();
    let placement = placement_for(&net, &hw);
    let config = MessageConfig {
        hw_speedups: Some(speedups),
        ..MessageConfig::default()
    };
    let synth = synthesize(&kernels::dct8(), &Constraints::default()).expect("dct8 synthesizes");
    let mut fsmd = FsmdSim::new(synth.fsmd).expect("dct8 FSMD simulates");
    fsmd.start(&[1, 2, 3, 4, 5, 6, 7, 8]);
    move || {
        vec![
            Box::new(
                MessageEngine::new("dsp-net", net.clone(), placement.clone(), config.clone())
                    .expect("valid placement"),
            ) as Box<dyn SimEngine>,
            Box::new(FsmdEngine::new("dct8", fsmd.clone())),
        ]
    }
}

/// The Figure 7 ladder scenario as a single message-level engine.
fn ladder_scenario() -> impl Fn() -> EngineSet {
    let (net, placement, config) = message_scenario(&LadderConfig::default());
    move || {
        vec![Box::new(
            MessageEngine::new("ladder", net.clone(), placement.clone(), config.clone())
                .expect("valid placement"),
        ) as Box<dyn SimEngine>]
    }
}

/// Best-of-`iterations` host rate of `run`, which returns the work it
/// did; the work must be the same every time.
fn rate(iterations: u32, run: impl Fn() -> u64) -> (f64, u64) {
    let work = run();
    let mut best = f64::MAX;
    for _ in 0..iterations {
        let start = Instant::now();
        assert_eq!(run(), work, "non-deterministic kernel run");
        best = best.min(start.elapsed().as_secs_f64());
    }
    (work as f64 / best, work)
}

/// A seeded bus-transaction script: address, write, value, wait states.
fn pin_script(transactions: usize) -> Vec<(u32, bool, u32, u64)> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..transactions)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = state >> 16;
            let addr = [0x0000u32, 0x0104, 0x1000, 0x1FFC][(r & 3) as usize];
            (addr, r & 4 != 0, (r >> 8) as u32, (r >> 3) & 3)
        })
        .collect()
}

/// The full bus-interface netlist `PinPhy` accounts for, every pin a net
/// in one gate-level kernel.
struct BusInterface {
    sim: Simulator,
    req: NetId,
    we: NetId,
    ack: NetId,
    addr: Vec<NetId>,
    data: Vec<NetId>,
}

impl BusInterface {
    fn new(regions: &[(u32, u32)]) -> Self {
        let mut n = Netlist::new("bus_interface");
        let req = n.add_input("req");
        let we = n.add_input("we");
        let ack = n.add_input("ack");
        let addr: Vec<NetId> = (0..16).map(|i| n.add_input(format!("a{i}"))).collect();
        let data: Vec<NetId> = (0..32).map(|i| n.add_input(format!("d{i}"))).collect();
        for (i, &(base, size)) in regions.iter().enumerate() {
            let low_bits = (32 - (size.max(1) - 1).leading_zeros()) as usize;
            if low_bits >= addr.len() {
                continue;
            }
            let hit = n
                .equals_const(&addr[low_bits..], u64::from(base >> low_bits))
                .expect("decoder builds");
            let sel = n.add_net(format!("sel{i}"));
            n.add_gate(GateKind::And, &[hit, req], sel, 1)
                .expect("select builds");
        }
        let ack_q = n.add_net("ack_q");
        n.add_dff(ack, ack_q, false).expect("ack flop builds");
        BusInterface {
            sim: Simulator::new(&n).expect("interface simulates"),
            req,
            we,
            ack,
            addr,
            data,
        }
    }

    /// Drives one req/ack handshake clock by clock; returns the kernel's
    /// cumulative events.
    fn transaction(&mut self, addr: u32, write: bool, value: u32, wait_states: u64) -> u64 {
        let clock = |sim: &mut Simulator| sim.clock_cycle(10).expect("interface settles");
        self.sim.set_bus(&self.addr, u64::from(addr & 0xFFFF));
        self.sim.set_input(self.we, write);
        if write {
            self.sim.set_bus(&self.data, u64::from(value));
        }
        self.sim.set_input(self.req, true);
        clock(&mut self.sim);
        for _ in 0..wait_states {
            clock(&mut self.sim);
        }
        self.sim.set_input(self.ack, true);
        if !write {
            self.sim.set_bus(&self.data, u64::from(value));
        }
        clock(&mut self.sim);
        self.sim.set_input(self.req, false);
        self.sim.set_input(self.ack, false);
        clock(&mut self.sim);
        self.sim.events_processed()
    }
}

/// Cumulative events after every transaction of `script`, from the full
/// netlist.
fn gate_run(script: &[(u32, bool, u32, u64)]) -> Vec<u64> {
    let mut bus = BusInterface::new(&PIN_REGIONS);
    script
        .iter()
        .map(|&(addr, write, value, waits)| bus.transaction(addr, write, value, waits))
        .collect()
}

/// Cumulative events after every transaction of `script`, from `PinPhy`,
/// and its memo's hit rate.
fn pin_run(script: &[(u32, bool, u32, u64)]) -> (Vec<u64>, f64) {
    let mut phy = PinPhy::new(&PIN_REGIONS).expect("decoder builds");
    let events = script
        .iter()
        .map(|&(addr, write, value, waits)| {
            phy.transaction(addr, write, value, waits);
            phy.events()
        })
        .collect();
    let memo = phy.memo_stats();
    (
        events,
        memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
    )
}

/// Instructions the ladder's producer program retires against a bus
/// with a draining FIFO and a free-running auto-reload timer.
fn iss_run(iterations: u32) -> u64 {
    let cfg = LadderConfig {
        iterations,
        ..LadderConfig::default()
    };
    let spec = cfg.spec().expect("a valid ladder config");
    let program = assemble(&producer_program(&cfg)).expect("producer assembles");
    let mut cpu = build_cpu(&spec, &program, false).expect("producer builds");
    let mut timer = Timer::new();
    timer.write(timer_regs::LOAD, 1_000);
    timer.write(timer_regs::CTRL, 0b101); // enable, auto-reload, no irq
    cpu.bus_mut()
        .expect("bus attached")
        .map(0x100, 0x10, Box::new(timer))
        .expect("timer maps");
    cpu.run(u64::MAX).expect("producer halts").instructions
}

fn main() {
    let (smoke, out_path) =
        jsonout::smoke_args("BENCH_cosim.json", "target/BENCH_cosim_smoke.json");
    let iterations: u32 = if smoke { 1 } else { 30 };

    let scenarios: [(&'static str, Scenario); 2] = [
        ("ladder", Box::new(ladder_scenario())),
        ("dsp_coprocessor", Box::new(dsp_scenario())),
    ];

    let mut rows: Vec<Row> = Vec::new();
    for (scenario, build) in &scenarios {
        for &quantum in QUANTA {
            let (before_ns, before, before_fp) = time(iterations, build.as_ref(), quantum, false);
            let (after_ns, after, after_fp) = time(iterations, build.as_ref(), quantum, true);
            assert_eq!(
                before_fp, after_fp,
                "{scenario} q={quantum}: lookahead end-state differs from lockstep"
            );
            assert_eq!(
                before.sync_rounds,
                after.sync_rounds + after.rounds_skipped,
                "{scenario} q={quantum}: skipped-round accounting broken"
            );
            eprintln!(
                "{scenario:>16} q={quantum:>3}: {before_ns:>12} ns -> {after_ns:>12} ns  \
                 ({:.1}x wall, {} -> {} rounds)",
                before_ns as f64 / after_ns.max(1) as f64,
                before.sync_rounds,
                after.sync_rounds,
            );
            rows.push(Row {
                scenario,
                quantum,
                before_ns,
                after_ns,
                rounds_before: before.sync_rounds,
                rounds_after: after.sync_rounds,
                rounds_skipped: after.rounds_skipped,
            });
        }
    }

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            let speedup = r.before_ns as f64 / r.after_ns.max(1) as f64;
            let reduction = r.rounds_before as f64 / r.rounds_after.max(1) as f64;
            format!(
                "{{\"scenario\": \"{}\", \"quantum\": {}, \"before_ns\": {}, \"after_ns\": {}, \
                 \"speedup\": {:.2}, \"rounds_before\": {}, \"rounds_after\": {}, \
                 \"rounds_skipped\": {}, \"round_reduction\": {:.2}}}",
                r.scenario,
                r.quantum,
                r.before_ns,
                r.after_ns,
                speedup,
                r.rounds_before,
                r.rounds_after,
                r.rounds_skipped,
                reduction
            )
        })
        .collect();
    // The phy must report the full netlist's events transaction by
    // transaction before either is timed.
    let script = pin_script(if smoke { 500 } else { PIN_TRANSACTIONS });
    let reference = gate_run(&script);
    let (pin_events, hit_rate) = pin_run(&script);
    for (i, (pin, full)) in pin_events.iter().zip(&reference).enumerate() {
        assert_eq!(pin, full, "PinPhy vs full netlist after {:?}", script[i]);
    }
    let throughput: [(&str, &str, (f64, u64)); 3] = [
        (
            "gate_events",
            "events_per_s",
            rate(iterations, || {
                gate_run(&script).last().copied().unwrap_or(0)
            }),
        ),
        (
            "pin_transactions",
            "transactions_per_s",
            rate(iterations, || pin_run(&script).0.len() as u64),
        ),
        (
            "iss_instructions",
            "instructions_per_s",
            rate(iterations, || {
                iss_run(if smoke { 8 } else { ISS_ITERATIONS })
            }),
        ),
    ];
    let kernels = throughput
        .iter()
        .map(|&(kernel, unit, (per_s, work))| {
            eprintln!("{kernel:>16}: {per_s:.3e} {unit}, work {work}");
            let mut row = vec![
                ("kernel".to_string(), kernel.into()),
                ("unit".to_string(), unit.into()),
                ("work".to_string(), work.into()),
                ("rate".to_string(), Json::Num(format!("{per_s:.0}"))),
            ];
            if kernel == "pin_transactions" {
                row.push(("memo_hit_rate".to_string(), hit_rate.into()));
            }
            Json::Object(row)
        })
        .collect();
    let json = jsonout::render(
        "cosim_lookahead",
        &[
            ("units", "ns_per_run".into()),
            ("host_cores", jsonout::host_cores().into()),
            ("git_rev", jsonout::git_rev().as_str().into()),
            (
                "before",
                "pure-lockstep coordinator (one quantum per round, hints ignored)".into(),
            ),
            (
                "after",
                "lookahead coordinator (adaptive horizons, idle-skip, batched advancement)".into(),
            ),
            ("kernels", Json::Array(kernels)),
        ],
        &rendered,
    );
    jsonout::write(&out_path, &json);

    // Gate: at the default quantum both scenarios must collapse at least
    // 3x of their synchronization rounds. Round counts are deterministic,
    // so the gate holds in smoke mode too.
    for scenario in ["ladder", "dsp_coprocessor"] {
        let r = rows
            .iter()
            .find(|r| r.scenario == scenario && r.quantum == DEFAULT_QUANTUM)
            .expect("default-quantum cell measured");
        let reduction = r.rounds_before as f64 / r.rounds_after.max(1) as f64;
        println!(
            "{scenario} @ q={DEFAULT_QUANTUM}: {} -> {} sync rounds ({reduction:.1}x, gate: >= 3x)",
            r.rounds_before, r.rounds_after
        );
        assert!(
            reduction >= 3.0,
            "lookahead reduces {scenario} sync rounds only {reduction:.1}x at the default quantum"
        );
    }
}
