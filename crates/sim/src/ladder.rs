//! The Figure 3 abstraction ladder: one realization per level.
//!
//! A system is a [`SystemSpec`] — memory map, FIFO channels, optional
//! IRQ-wired UART — and each of the four interface abstraction levels
//! the paper names realizes it once:
//!
//! | level | HW/SW interaction modeled as | realization |
//! |---|---|---|
//! | [`AbstractionLevel::Pin`] | bus pin activity | [`realize_iss`]: [`system_program`] on the ISS + gate-level [`crate::pinproto::PinPhy`] |
//! | [`AbstractionLevel::Register`] | register reads/writes | [`realize_iss`]: [`system_program`] on the ISS + transaction-level bus |
//! | [`AbstractionLevel::Driver`] | device-driver calls | [`realize_driver`]: the [`DriverEngine`] cost model run to completion |
//! | [`AbstractionLevel::Message`] | `send`/`receive`/`wait` | [`realize_message`]: [`system_network`] on the [`crate::message`] rendezvous kernel |
//!
//! One program generator, one process-network builder and one driver
//! model serve every system. [`realize_system`] realizes a spec at all
//! four levels; it is what `codesign-conform` checks generated specs
//! with. The E3 experiment ([`run_level`], [`run_ladder`]) is
//! [`LadderConfig::spec`] — one FIFO, one channel, no UART — realized
//! through the same functions.
//!
//! Each level reports simulated cycles and kernel events (the
//! computational cost of simulating). The paper's predicted shape:
//! accuracy decreases and speed increases as you climb the ladder —
//! pin-level is the reference ("most accurate … but computationally
//! expensive"), message-level is "very efficient computationally, but may
//! not be useful for evaluating performance".

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use codesign_ir::process::{Action, Process, ProcessNetwork};
use codesign_ir::workload::sysgen::{ChannelSpec, DeviceKind, MemRegion, SystemSpec, REGION_SIZE};
use codesign_isa::asm::{assemble, Program};
use codesign_isa::cpu::{Cpu, MMIO_BASE};
use codesign_rtl::bus::{
    fifo_regs, uart_regs, BusSlave, BusTiming, DrainFifo, Gpio, Ram, SystemBus, Timer, Uart,
};
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;
use codesign_trace::{Arg, Tracer};

use crate::engine::SimEngine;
use crate::error::SimError;
use crate::fingerprint::cpu_state_digest;
use crate::message::{self, MessageConfig, Placement, Resource};
use crate::pinproto::PinPhy;

/// The four interface-abstraction levels of the paper's Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbstractionLevel {
    /// Bus pin / signal activity (Becker et al. \[4\]).
    Pin,
    /// Register reads and writes (transaction level).
    Register,
    /// Device-driver calls with calibrated costs.
    Driver,
    /// OS-level send/receive/wait (Coumeri & Thomas \[3\]).
    Message,
}

impl AbstractionLevel {
    /// All levels, bottom (most accurate) to top (fastest).
    pub const ALL: [AbstractionLevel; 4] = [
        AbstractionLevel::Pin,
        AbstractionLevel::Register,
        AbstractionLevel::Driver,
        AbstractionLevel::Message,
    ];
}

impl std::fmt::Display for AbstractionLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AbstractionLevel::Pin => "pin",
            AbstractionLevel::Register => "register",
            AbstractionLevel::Driver => "driver",
            AbstractionLevel::Message => "message",
        };
        f.write_str(s)
    }
}

/// The producer/consumer scenario parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderConfig {
    /// Producer iterations (messages sent).
    pub iterations: u32,
    /// Bytes per message.
    pub message_bytes: u64,
    /// Producer compute cycles per iteration.
    pub compute_cycles: u64,
    /// FIFO capacity in 32-bit words.
    pub fifo_capacity: usize,
    /// Consumer drain rate: cycles per word.
    pub drain_period: u64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            iterations: 16,
            message_bytes: 64,
            compute_cycles: 480,
            fifo_capacity: 16,
            drain_period: 12,
        }
    }
}

impl LadderConfig {
    /// The scenario as a system: one FIFO region at `0x0`, one channel
    /// carrying each message as whole 32-bit words, no UART.
    ///
    /// # Errors
    ///
    /// [`SimError::Spec`] when [`SystemSpec::validate`] rejects it: zero
    /// iterations, message bytes, FIFO capacity or drain period.
    pub fn spec(&self) -> Result<SystemSpec, SimError> {
        let spec = SystemSpec {
            name: "ladder".to_string(),
            regions: vec![MemRegion {
                kind: DeviceKind::Fifo {
                    capacity: self.fifo_capacity,
                    drain_period: self.drain_period,
                },
                base: 0x0,
                size: REGION_SIZE,
            }],
            channels: vec![ChannelSpec {
                region: 0,
                words: self.message_bytes.div_ceil(4),
                compute: self.compute_cycles,
                hw_unit: 0,
            }],
            iterations: self.iterations,
            seed: 0,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Results of simulating the scenario at one level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelReport {
    /// The level simulated.
    pub level: AbstractionLevel,
    /// End-to-end simulated time in cycles.
    pub simulated_cycles: u64,
    /// Simulation-kernel events processed (instructions, transactions,
    /// pin events, or scheduler actions — the cost currency of Figure 3).
    pub kernel_events: u64,
    /// Host wall-clock time spent simulating.
    pub wall: Duration,
}

/// Cycle budget of one ISS-level run.
const RUN_BUDGET: u64 = 1_000_000_000;

/// Driver-level cycles per driver call.
pub const DRIVER_CALL_OVERHEAD: u64 = 25;

/// Driver-level cycles per 32-bit word moved: the polling driver's poll
/// (`lw` + `bge`), store and loop when the FIFO never back-pressures.
pub const DRIVER_PER_WORD: u64 = 13;

/// Driver-level cycles per serviced interrupt: entry overhead (4) plus
/// the five-instruction handler with one bus read (≈ 12 cycles on the
/// CR32).
pub const DRIVER_IRQ_COST: u64 = 16;

/// One level's realization of a system.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRun {
    /// The level realized.
    pub level: AbstractionLevel,
    /// End-to-end simulated cycles (including residual FIFO drain at
    /// the ISS levels).
    pub cycles: u64,
    /// Payload bytes that crossed each channel, in spec channel order.
    pub per_channel_bytes: Vec<u64>,
    /// Interrupts taken (ISS levels only).
    pub irqs: Option<u64>,
    /// FNV-1a digest of the final architectural state — register file
    /// plus data memory (ISS levels only).
    pub digest: Option<u64>,
    /// Channel indices ordered by when each received its last bus write
    /// (ISS levels only).
    pub write_order: Option<Vec<usize>>,
    /// Messages delivered (message level only).
    pub messages: Option<u64>,
    /// Simulation-kernel events processed — the Figure 3 cost currency.
    pub kernel_events: u64,
}

/// A system realized at all four levels.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemRun {
    /// Pin-level (reference) realization.
    pub pin: LevelRun,
    /// Register-level realization.
    pub register: LevelRun,
    /// Driver-level realization.
    pub driver: LevelRun,
    /// Message-level realization.
    pub message: LevelRun,
}

impl SystemRun {
    /// The four runs, bottom (reference) to top.
    #[must_use]
    pub fn levels(&self) -> [&LevelRun; 4] {
        [&self.pin, &self.register, &self.driver, &self.message]
    }
}

/// The spec's UART region (base, preloaded rx bytes), if wired.
fn uart_of(spec: &SystemSpec) -> Option<(u32, &[u8])> {
    spec.regions.iter().find_map(|r| match &r.kind {
        DeviceKind::Uart { irq_rx } if !irq_rx.is_empty() => Some((r.base, irq_rx.as_slice())),
        _ => None,
    })
}

/// The CR32 producer program realizing a validated `spec` at the ISS
/// levels (public so fault campaigns, the debugger and the benchmarks can
/// rerun the same software against an instrumented bus).
///
/// Shape: (1) if a UART is wired, enable its rx interrupt and spin until
/// the handler has drained every preloaded byte (the count, not the
/// timing, is architected); (2) for each outer iteration, per channel:
/// spin the channel's compute, then push its words through the FIFO with
/// occupancy polling; (3) normalize the poll scratch register and halt.
/// The handler accumulates a byte checksum in `r11`, so the IRQ payload
/// reaches the architectural-state digest.
///
/// The program is *timing-closed in its final state*: the only register
/// that can legitimately differ between the pin and register levels (the
/// FIFO-occupancy poll scratch `r5`) is zeroed before `halt`, so the
/// final architectural state is an architected observable.
#[must_use]
pub fn system_program(spec: &SystemSpec) -> String {
    let mut s = String::new();
    let uart = uart_of(spec);
    if uart.is_some() {
        s.push_str(".vector isr\n");
    }
    if let Some((base, rx)) = uart {
        let _ = writeln!(s, "    li r1, {}", MMIO_BASE + u64::from(base));
        s.push_str("    li r2, 1\n");
        let _ = writeln!(s, "    sw r2, r1, {}", uart_regs::IRQ_ENABLE);
        let _ = writeln!(s, "    li r8, {}", rx.len());
        s.push_str("    ei\nirqwait:\n    bne r9, r8, irqwait\n    di\n");
    }
    let _ = writeln!(s, "    li r7, {}", spec.iterations);
    s.push_str("outer:\n");
    for (ci, ch) in spec.channels.iter().enumerate() {
        if ch.compute > 0 {
            let _ = writeln!(s, "    li r2, {}", (ch.compute / 3).max(1));
            let _ = writeln!(
                s,
                "spin{ci}:\n    addi r2, r2, -1\n    bne r2, r0, spin{ci}"
            );
        }
        let region = &spec.regions[ch.region];
        let DeviceKind::Fifo { capacity, .. } = region.kind else {
            unreachable!("validated: channel regions are fifos");
        };
        let _ = writeln!(s, "    li r1, {}", MMIO_BASE + u64::from(region.base));
        let _ = writeln!(s, "    li r6, {capacity}");
        let _ = writeln!(s, "    li r3, {}", ch.words);
        let _ = writeln!(s, "    li r4, {}", 0x5A5A + ci);
        let _ = writeln!(s, "w{ci}:\npoll{ci}:");
        let _ = writeln!(s, "    lw r5, r1, {}", fifo_regs::COUNT);
        let _ = writeln!(s, "    bge r5, r6, poll{ci}");
        let _ = writeln!(s, "    sw r4, r1, {}", fifo_regs::DATA);
        s.push_str("    add r4, r4, r3\n    addi r3, r3, -1\n");
        let _ = writeln!(s, "    bne r3, r0, w{ci}");
    }
    s.push_str("    addi r7, r7, -1\n    bne r7, r0, outer\n");
    // Normalize the only timing-dependent register before halting, so
    // the final state digests agree across levels.
    s.push_str("    li r5, 0\n    halt\n");
    if let Some((base, _)) = uart {
        let _ = writeln!(s, "isr:\n    li r12, {}", MMIO_BASE + u64::from(base));
        let _ = writeln!(s, "    lw r10, r12, {}", uart_regs::RX);
        s.push_str("    add r11, r11, r10\n    addi r9, r9, 1\n    rti\n");
    }
    s
}

/// Builds the CR32 that realizes `spec` at an ISS level: the spec's
/// memory map on a fresh bus, the gate-level [`PinPhy`] over every region
/// when `pin_level`, and `program` loaded into 4 KiB of memory. The
/// program comes assembled, so one assembly serves both ISS levels.
/// Callers that need more on the bus — a timer, a fault-injecting phy —
/// add it through [`Cpu::bus_mut`].
///
/// # Errors
///
/// [`SimError::Spec`] if `spec` fails [`SystemSpec::validate`], and
/// bus-mapping and pin-protocol errors.
pub fn build_cpu(spec: &SystemSpec, program: &Program, pin_level: bool) -> Result<Cpu, SimError> {
    spec.validate()?;
    let mut bus = SystemBus::new(BusTiming::default());
    for (i, region) in spec.regions.iter().enumerate() {
        let slave: Box<dyn BusSlave> = match &region.kind {
            DeviceKind::Fifo {
                capacity,
                drain_period,
            } => Box::new(DrainFifo::new(*capacity, *drain_period)),
            DeviceKind::Ram => Box::new(Ram::new(format!("ram{i}"), region.size)),
            DeviceKind::Gpio => Box::new(Gpio::new()),
            DeviceKind::Timer => Box::new(Timer::new()),
            DeviceKind::Uart { irq_rx } => {
                let mut uart = Uart::new();
                for &b in irq_rx {
                    uart.inject_rx(b);
                }
                Box::new(uart)
            }
        };
        bus.map(region.base, region.size, slave)?;
    }
    if pin_level {
        let regions: Vec<(u32, u32)> = spec.regions.iter().map(|r| (r.base, r.size)).collect();
        bus.set_phy(Box::new(PinPhy::new(&regions)?));
    }
    let mut cpu = Cpu::new(4096);
    cpu.attach_bus(bus);
    cpu.load_program(program);
    Ok(cpu)
}

/// Realizes `spec` at the pin (`pin_level`) or register level: runs
/// `program` on [`build_cpu`]'s CR32 to `halt`, then reads the
/// observables. With `tracer` on, the bus traces transactions and FIFO
/// occupancy and the CPU its counters, on tracks prefixed `pin:`/`reg:`
/// and timestamped in simulated cycles; tracing is observational only.
///
/// # Errors
///
/// As for [`build_cpu`], plus ISS failures (including a run that does
/// not halt within the cycle budget).
pub fn realize_iss(
    spec: &SystemSpec,
    program: &Program,
    pin_level: bool,
    tracer: &Tracer,
) -> Result<LevelRun, SimError> {
    let mut cpu = build_cpu(spec, program, pin_level)?;
    let (level, bus_track, cpu_track) = if pin_level {
        (AbstractionLevel::Pin, "pin:bus", "pin:cpu")
    } else {
        (AbstractionLevel::Register, "reg:bus", "reg:cpu")
    };
    cpu.bus_mut()
        .expect("bus attached")
        .set_tracer(tracer, bus_track);
    cpu.set_tracer(tracer, cpu_track);
    let stats = cpu.run(RUN_BUDGET)?;
    // The replay subsystem digests CPUs the same way: its time-travel
    // restores must land on exactly the digests conformance pins.
    let digest = cpu_state_digest(&cpu);
    let bus = cpu.bus().expect("bus attached");

    // Observables after the producer halts. Two regressions hide here:
    //
    // * every observable is read through typed device handles and the
    //   bus's bookkeeping, never a bus `read()` — a bus read perturbs the
    //   transaction stats and pin-phy events that feed `kernel_events`,
    //   so observing the result used to change the measurement;
    // * a FIFO's residual drain is `countdown + (n-1)*drain_period` (the
    //   first word is already mid-drain), not `n * drain_period` — the
    //   naive formula overestimates by up to `drain_period - 1` cycles, a
    //   divergence the conformance sweep pins against tick-level ground
    //   truth. The run ends when the slowest FIFO is empty.
    //
    // Channel completion order ranks channels by the global write-
    // sequence stamp of their FIFO's last write.
    let accesses = bus.device_accesses();
    let mut per_channel_bytes = Vec::with_capacity(spec.channels.len());
    let mut tail = 0u64;
    let mut stamped = Vec::with_capacity(spec.channels.len());
    for (ci, ch) in spec.channels.iter().enumerate() {
        let base = spec.regions[ch.region].base;
        let fifo = bus
            .device_at::<DrainFifo>(base)
            .expect("channel fifo mapped");
        per_channel_bytes.push((fifo.drained() + fifo.occupancy() as u64) * 4);
        tail = tail.max(fifo.cycles_to_drain());
        let seq = accesses
            .iter()
            .find(|a| a.base == base)
            .map_or(0, |a| a.last_write_seq);
        stamped.push((seq, ci));
    }
    stamped.sort_unstable();
    let write_order = stamped.into_iter().map(|(_, ci)| ci).collect();

    let bus_stats = bus.stats();
    let kernel_events = if pin_level {
        stats.instructions + bus.phy_events()
    } else {
        stats.instructions + bus_stats.reads + bus_stats.writes
    };
    Ok(LevelRun {
        level,
        cycles: stats.cycles + tail,
        per_channel_bytes,
        irqs: Some(stats.irqs_taken),
        digest: Some(digest),
        write_order: Some(write_order),
        messages: None,
        kernel_events,
    })
}

/// Realizes `spec` at the driver level: runs its [`DriverEngine`] to
/// completion, the way [`message::simulate`] runs a
/// [`message::MessageEngine`].
#[must_use]
pub fn realize_driver(spec: &SystemSpec) -> LevelRun {
    let mut engine = DriverEngine::new("driver", spec);
    engine.run_until(u64::MAX);
    LevelRun {
        level: AbstractionLevel::Driver,
        cycles: engine.time,
        per_channel_bytes: (0..spec.channels.len())
            .map(|c| spec.channel_bytes(c))
            .collect(),
        irqs: None,
        digest: None,
        write_order: None,
        messages: None,
        kernel_events: engine.events,
    }
}

/// The driver-level cost model of a system, as a coordinator-mountable
/// phase machine. It charges one segment at a time, in this order:
///
/// 1. the interrupt service: [`DRIVER_IRQ_COST`] per interrupt, one
///    kernel event each;
/// 2. on every iteration, every channel in spec order: its compute (one
///    event), then one driver call — [`DRIVER_CALL_OVERHEAD`] plus
///    [`DRIVER_PER_WORD`] per word (one event);
/// 3. the tail drain of the slowest FIFO's final message (no event).
///
/// The model does not see FIFO back-pressure at all. [`realize_driver`]
/// runs it to completion; under a
/// [`Coordinator`](crate::engine::Coordinator) it is checkpointed,
/// fingerprinted, and replayed like the other ladder levels.
#[derive(Debug)]
pub struct DriverEngine {
    name: String,
    /// Interrupts serviced before the first iteration.
    irqs: u64,
    /// Per channel, in spec order: (compute cycles, driver-call cycles).
    channels: Vec<(u64, u64)>,
    iterations: u32,
    /// Drain cycles of the slowest FIFO's final message.
    tail: u64,
    /// Segments charged so far, counted in the order above.
    charged: u64,
    time: u64,
    floor: u64,
    events: u64,
}

impl DriverEngine {
    /// Builds the engine over `spec`.
    #[must_use]
    pub fn new(name: impl Into<String>, spec: &SystemSpec) -> Self {
        let drain_period = |region: usize| match spec.regions.get(region).map(|r| &r.kind) {
            Some(DeviceKind::Fifo { drain_period, .. }) => Some(*drain_period),
            _ => None,
        };
        DriverEngine {
            name: name.into(),
            irqs: spec.irq_count(),
            channels: spec
                .channels
                .iter()
                .map(|ch| {
                    (
                        ch.compute,
                        DRIVER_CALL_OVERHEAD + ch.words * DRIVER_PER_WORD,
                    )
                })
                .collect(),
            iterations: spec.iterations,
            tail: spec
                .channels
                .iter()
                .filter_map(|ch| Some(ch.words * drain_period(ch.region)?))
                .max()
                .unwrap_or(0),
            charged: 0,
            time: 0,
            floor: 0,
            events: 0,
        }
    }

    /// Kernel events charged so far (the Figure 3 cost currency).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Simulated cycles charged so far.
    #[must_use]
    pub fn simulated_cycles(&self) -> u64 {
        self.time
    }

    /// Iterations fully completed (every channel's compute and driver
    /// call charged).
    #[must_use]
    pub fn iterations_done(&self) -> u32 {
        let per_iteration = 2 * self.channels.len() as u64;
        let done = self.charged.saturating_sub(self.irqs).min(self.calls());
        u32::try_from(done / per_iteration.max(1)).unwrap_or(u32::MAX)
    }

    /// Compute and driver-call segments over the whole run.
    fn calls(&self) -> u64 {
        2 * u64::from(self.iterations) * self.channels.len() as u64
    }

    /// Every segment of the run, the tail included.
    fn segments(&self) -> u64 {
        self.irqs + self.calls() + 1
    }

    /// The next segment's cycles and kernel events; `None` once done.
    fn next_segment(&self) -> Option<(u64, u64)> {
        let Some(k) = self.charged.checked_sub(self.irqs) else {
            return Some((DRIVER_IRQ_COST, 1));
        };
        if k < self.calls() {
            let (compute, call) = self.channels[(k / 2) as usize % self.channels.len()];
            return Some((if k % 2 == 0 { compute } else { call }, 1));
        }
        (k == self.calls()).then_some((self.tail, 0))
    }

    /// Charges whole segments until the clock reaches `t` or the run
    /// ends. Segments are atomic (like instructions on the ISS), so the
    /// clock may overshoot `t` by at most one segment.
    fn run_until(&mut self, t: u64) {
        while self.time < t {
            let Some((cycles, events)) = self.next_segment() else {
                break;
            };
            self.time += cycles;
            self.events += events;
            self.charged += 1;
        }
    }
}

impl SimEngine for DriverEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn local_time(&self) -> u64 {
        self.time.max(self.floor)
    }

    fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
        self.run_until(t);
        self.floor = self.floor.max(t);
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.charged == self.segments()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }

    fn next_event_hint(&self) -> Option<u64> {
        // Nothing happens between segment boundaries, and a finished
        // engine parks forever.
        Some(
            self.next_segment()
                .map_or(u64::MAX, |(cycles, _)| self.time + cycles),
        )
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.charged);
        w.u64(self.time);
        w.u64(self.floor);
        w.u64(self.events);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SimError> {
        let charged = r.u64()?;
        if charged > self.segments() {
            return Err(SimError::Hardware(RtlError::State {
                reason: format!(
                    "driver segment {charged} beyond the run's {}",
                    self.segments()
                ),
            }));
        }
        self.charged = charged;
        self.time = r.u64()?;
        self.floor = r.u64()?;
        self.events = r.u64()?;
        Ok(())
    }
}

/// A validated spec as a message-level process network: one software
/// producer interleaving every channel's traffic (matching the order of
/// [`system_program`]), one hardware consumer per channel draining at
/// its FIFO's rate. Public so the fault campaign and the co-simulation
/// benchmarks can mount the same network as a
/// [`message::MessageEngine`] under a coordinator.
#[must_use]
pub fn system_network(spec: &SystemSpec) -> (ProcessNetwork, Placement, MessageConfig) {
    let mut net = ProcessNetwork::new(&spec.name);
    let mut producer_actions = Vec::new();
    let mut consumers = Vec::new();
    for (ci, ch) in spec.channels.iter().enumerate() {
        let DeviceKind::Fifo {
            capacity,
            drain_period,
        } = spec.regions[ch.region].kind
        else {
            unreachable!("validated: channel regions are fifos");
        };
        // One message per iteration; buffering mirrors how many whole
        // messages the FIFO can hold.
        let depth = (capacity as u64 / ch.words).max(1) as usize;
        let channel = net.add_channel(format!("ch{ci}"), depth);
        if ch.compute > 0 {
            producer_actions.push(Action::Compute(ch.compute));
        }
        producer_actions.push(Action::Send {
            channel,
            bytes: ch.words * 4,
        });
        consumers.push((ci, channel, ch.words * drain_period, ch.hw_unit));
    }
    net.add_process(Process::new("producer", producer_actions).with_iterations(spec.iterations));
    let mut placement = vec![Resource::Software(0)];
    for (ci, channel, drain, hw_unit) in consumers {
        net.add_process(
            Process::new(
                format!("consumer{ci}"),
                vec![Action::Receive { channel }, Action::Compute(drain)],
            )
            .with_iterations(spec.iterations),
        );
        placement.push(Resource::Hardware(hw_unit));
    }
    let config = MessageConfig {
        hw_speedup: 1.0, // consumer Compute is already hardware time
        ..MessageConfig::default()
    };
    (net, Placement::from_assignment(placement), config)
}

/// Realizes a system's process network at the message level through
/// [`message::simulate`], reporting to `tracer`.
///
/// # Errors
///
/// As for [`message::simulate`].
pub fn realize_message(
    network: &(ProcessNetwork, Placement, MessageConfig),
    tracer: &Tracer,
) -> Result<LevelRun, SimError> {
    let (net, placement, config) = network;
    let report = message::simulate(net, placement, config, tracer)?;
    Ok(LevelRun {
        level: AbstractionLevel::Message,
        cycles: report.finish_time,
        per_channel_bytes: report.per_channel_bytes,
        irqs: None,
        digest: None,
        write_order: None,
        messages: Some(report.messages),
        kernel_events: report.events,
    })
}

/// Realizes `spec` at all four levels, reporting to `tracer`:
/// [`system_program`] assembled once for both ISS levels,
/// [`realize_driver`], and [`system_network`].
///
/// # Errors
///
/// [`SimError::Spec`] if `spec` fails [`SystemSpec::validate`], and the
/// assembler, bus, ISS and message-kernel failures of the levels.
pub fn realize_system(spec: &SystemSpec, tracer: &Tracer) -> Result<SystemRun, SimError> {
    spec.validate()?;
    let program = assemble(&system_program(spec))?;
    Ok(SystemRun {
        pin: realize_iss(spec, &program, true, tracer)?,
        register: realize_iss(spec, &program, false, tracer)?,
        driver: realize_driver(spec),
        message: realize_message(&system_network(spec), tracer)?,
    })
}

/// Realizes the E3 scenario at one level, reporting to `tracer`.
fn level_report(
    level: AbstractionLevel,
    cfg: &LadderConfig,
    tracer: &Tracer,
) -> Result<LevelReport, SimError> {
    let start = Instant::now();
    let spec = cfg.spec()?;
    let run = match level {
        AbstractionLevel::Pin | AbstractionLevel::Register => realize_iss(
            &spec,
            &assemble(&system_program(&spec))?,
            level == AbstractionLevel::Pin,
            tracer,
        )?,
        AbstractionLevel::Driver => realize_driver(&spec),
        AbstractionLevel::Message => realize_message(&system_network(&spec), tracer)?,
    };
    Ok(LevelReport {
        level,
        simulated_cycles: run.cycles,
        kernel_events: run.kernel_events,
        wall: start.elapsed(),
    })
}

/// Simulates the E3 scenario at one abstraction level.
///
/// # Errors
///
/// [`SimError::Spec`] for a degenerate config (see
/// [`LadderConfig::spec`]), and the level's engine failures.
pub fn run_level(level: AbstractionLevel, cfg: &LadderConfig) -> Result<LevelReport, SimError> {
    level_report(level, cfg, &Tracer::off())
}

/// Simulates the E3 scenario at every level, bottom to top. With
/// `tracer` on, each level's engines trace as in [`realize_iss`] and
/// [`realize_message`], and the harness emits one span per level on the
/// `ladder` track — timestamped in host wall-clock microseconds, with the
/// level's simulated cycles and kernel events as arguments — so the
/// Figure 3 speed/accuracy trade-off is visible on a single timeline.
///
/// # Errors
///
/// As for [`run_level`]; the first failure stops the ladder.
pub fn run_ladder(cfg: &LadderConfig, tracer: &Tracer) -> Result<Vec<LevelReport>, SimError> {
    let ladder_track = tracer.track("ladder");
    let mut wall_offset = 0u64;
    AbstractionLevel::ALL
        .iter()
        .map(|&l| {
            let report = level_report(l, cfg, tracer)?;
            if tracer.is_on() {
                let micros = u64::try_from(report.wall.as_micros()).unwrap_or(u64::MAX);
                tracer.span(
                    ladder_track,
                    &l.to_string(),
                    wall_offset,
                    micros.max(1),
                    &[
                        ("simulated_cycles", Arg::from(report.simulated_cycles)),
                        ("kernel_events", Arg::from(report.kernel_events)),
                    ],
                );
                wall_offset += micros.max(1);
            }
            Ok(report)
        })
        .collect()
}

/// Relative cycle error of `cycles` against a `reference`: `0.0` when
/// both read zero cycles and [`f64::INFINITY`] for a zero reference
/// otherwise, never `NaN`.
#[must_use]
pub fn rel_err(reference: u64, cycles: u64) -> f64 {
    if reference == 0 {
        if cycles == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cycles as f64 - reference as f64).abs() / reference as f64
    }
}

/// Relative timing error ([`rel_err`]) of each report against the
/// pin-level reference: the first [`AbstractionLevel::Pin`] entry
/// wherever it appears in `reports` ([`run_ladder`] puts it first);
/// without one, the result is empty.
#[must_use]
pub fn timing_errors(reports: &[LevelReport]) -> Vec<(AbstractionLevel, f64)> {
    let Some(reference) = reports
        .iter()
        .find(|r| r.level == AbstractionLevel::Pin)
        .map(|r| r.simulated_cycles)
    else {
        return Vec::new();
    };
    reports
        .iter()
        .map(|r| (r.level, rel_err(reference, r.simulated_cycles)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::workload::sysgen::{random_system, SysConfig};
    use codesign_rtl::bus::uart_regs;

    #[test]
    fn ladder_runs_at_all_levels() {
        let cfg = LadderConfig::default();
        let reports = run_ladder(&cfg, &Tracer::off()).unwrap();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.simulated_cycles > 0, "{}", r.level);
            assert!(r.kernel_events > 0, "{}", r.level);
        }
    }

    #[test]
    fn event_cost_decreases_up_the_ladder() {
        let cfg = LadderConfig::default();
        let reports = run_ladder(&cfg, &Tracer::off()).unwrap();
        let events: Vec<u64> = reports.iter().map(|r| r.kernel_events).collect();
        // pin >> register > driver; message is also far below register.
        assert!(
            events[0] > 2 * events[1],
            "pin {} vs register {}",
            events[0],
            events[1]
        );
        assert!(
            events[1] > events[2],
            "register {} vs driver {}",
            events[1],
            events[2]
        );
        assert!(
            events[1] > events[3],
            "register {} vs message {}",
            events[1],
            events[3]
        );
    }

    #[test]
    fn pin_level_is_the_slowest_but_reference_timing() {
        let cfg = LadderConfig::default();
        let reports = run_ladder(&cfg, &Tracer::off()).unwrap();
        // Pin sees wait states the register level hides.
        assert!(
            reports[0].simulated_cycles >= reports[1].simulated_cycles,
            "pin {} vs register {}",
            reports[0].simulated_cycles,
            reports[1].simulated_cycles
        );
    }

    #[test]
    fn timing_error_grows_up_the_ladder() {
        let cfg = LadderConfig {
            drain_period: 40, // heavy congestion: abstraction hides a lot
            ..LadderConfig::default()
        };
        let reports = run_ladder(&cfg, &Tracer::off()).unwrap();
        let errors = timing_errors(&reports);
        assert_eq!(errors[0].1, 0.0, "pin is the reference");
        // Every abstraction above register has a larger error than
        // register itself under congestion.
        assert!(errors[2].1 >= errors[1].1, "driver vs register");
        assert!(errors[3].1 >= errors[1].1, "message vs register");
    }

    #[test]
    fn errors_without_reference_are_empty() {
        assert!(timing_errors(&[]).is_empty());
    }

    #[test]
    fn zero_cycle_reference_yields_no_nan() {
        // Regression: a zero-cycle pin reference used to produce NaN
        // errors (0/0) that poisoned every comparison downstream.
        let report = |level, cycles| LevelReport {
            level,
            simulated_cycles: cycles,
            kernel_events: 1,
            wall: Duration::ZERO,
        };
        let errors = timing_errors(&[
            report(AbstractionLevel::Pin, 0),
            report(AbstractionLevel::Driver, 0),
            report(AbstractionLevel::Message, 100),
        ]);
        assert_eq!(errors[0].1, 0.0);
        assert_eq!(errors[1].1, 0.0);
        assert_eq!(errors[2].1, f64::INFINITY);
        assert!(errors.iter().all(|(_, e)| !e.is_nan()));
    }

    #[test]
    fn reference_found_anywhere_in_reports() {
        let report = |level, cycles| LevelReport {
            level,
            simulated_cycles: cycles,
            kernel_events: 1,
            wall: Duration::ZERO,
        };
        // Pin is not first; the doc promises it is still the reference.
        let errors = timing_errors(&[
            report(AbstractionLevel::Message, 50),
            report(AbstractionLevel::Pin, 100),
        ]);
        assert_eq!(errors[0].1, 0.5);
        assert_eq!(errors[1].1, 0.0);
    }

    #[test]
    fn traced_ladder_matches_untraced() {
        let cfg = LadderConfig {
            iterations: 4,
            ..LadderConfig::default()
        };
        let plain = run_ladder(&cfg, &Tracer::off()).unwrap();
        let tracer = Tracer::on();
        let traced = run_ladder(&cfg, &tracer).unwrap();
        for (a, b) in plain.iter().zip(&traced) {
            assert_eq!(a.level, b.level);
            assert_eq!(a.simulated_cycles, b.simulated_cycles, "{}", a.level);
            assert_eq!(a.kernel_events, b.kernel_events, "{}", a.level);
        }
        assert!(tracer.event_count() > 0);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    /// A three-channel generated system with an IRQ-wired UART, and a
    /// program that takes every UART interrupt, then writes each channel's
    /// FIFO up to its capacity without polling (unlike
    /// [`system_program`], which polls before every write). The seed is
    /// one whose FIFOs all still hold words at `halt`, each with a
    /// different tail, the longest in the middle channel.
    fn multi_channel_system() -> (SystemSpec, Program) {
        let spec = random_system(&SysConfig {
            max_irq_bytes: 6,
            seed: 1686,
            ..SysConfig::default()
        })
        .unwrap();
        assert_eq!(spec.channels.len(), 3);
        let (uart, irqs) = spec
            .regions
            .iter()
            .find_map(|r| match &r.kind {
                DeviceKind::Uart { irq_rx } if !irq_rx.is_empty() => {
                    Some((MMIO_BASE + u64::from(r.base), irq_rx.len()))
                }
                _ => None,
            })
            .expect("the seed wires a uart");
        let mut p = format!(
            ".vector isr\n    li r1, {uart}\n    li r2, 1\n    sw r2, r1, {}\n    \
             li r8, {irqs}\n    ei\nwait:\n    bne r9, r8, wait\n    di\n",
            uart_regs::IRQ_ENABLE
        );
        for (ci, ch) in spec.channels.iter().enumerate() {
            let region = &spec.regions[ch.region];
            let DeviceKind::Fifo { capacity, .. } = region.kind else {
                unreachable!("channels map fifos");
            };
            p += &format!(
                "    li r1, {}\n    li r4, {}\n",
                MMIO_BASE + u64::from(region.base),
                0x5A5A + ci
            );
            p += &format!("    sw r4, r1, {}\n", fifo_regs::DATA).repeat(capacity);
        }
        p += &format!(
            "    halt\nisr:\n    li r12, {uart}\n    lw r10, r12, {}\n    \
             add r11, r11, r10\n    addi r9, r9, 1\n    rti\n",
            uart_regs::RX
        );
        (spec, assemble(&p).unwrap())
    }

    /// The ladder's one-FIFO system with its [`system_program`], then
    /// [`multi_channel_system`].
    fn iss_inputs(cfg: &LadderConfig) -> [(SystemSpec, Program); 2] {
        let spec = cfg.spec().unwrap();
        let program = assemble(&system_program(&spec)).unwrap();
        [(spec, program), multi_channel_system()]
    }

    #[test]
    fn tail_drain_is_exact_against_tick_ground_truth() {
        // Regression: the residual drain after the producer halts used
        // to be charged as `occupancy * drain_period`, but the first
        // queued word is already mid-countdown — the exact tail is
        // `countdown + (occupancy-1) * drain_period`, and with several
        // channels the run ends when the slowest FIFO is empty. Replay
        // the same program and tick the bus to empty to get ground truth.
        let cfg = LadderConfig {
            iterations: 3,
            drain_period: 17, // coprime-ish with the loop cost: nonzero countdown at halt
            ..LadderConfig::default()
        };
        for (spec, program) in iss_inputs(&cfg) {
            let run = realize_iss(&spec, &program, false, &Tracer::off()).unwrap();

            let mut cpu = build_cpu(&spec, &program, false).unwrap();
            let stats = cpu.run(RUN_BUDGET).unwrap();
            let bus = cpu.bus_mut().unwrap();
            let fifos: Vec<u32> = spec
                .channels
                .iter()
                .map(|ch| spec.regions[ch.region].base)
                .collect();
            let queued = |bus: &SystemBus| {
                fifos
                    .iter()
                    .filter(|&&base| bus.device_at::<DrainFifo>(base).unwrap().occupancy() > 0)
                    .count()
            };
            assert_eq!(
                queued(bus),
                fifos.len(),
                "{}: every FIFO must hold words at halt",
                spec.name
            );
            let mut tail = 0u64;
            while queued(bus) > 0 {
                bus.tick(1);
                tail += 1;
            }
            assert_eq!(run.cycles, stats.cycles + tail, "{}", spec.name);
        }
    }

    #[test]
    fn observable_extraction_does_not_perturb_kernel_events() {
        // Regression: the residual occupancy was read with `bus.read()`,
        // which bumped the transaction counters (and, at pin level, the
        // phy event count) that make up `kernel_events` — observing the
        // result changed the measurement. Re-run the same software
        // manually and compare against the realization's events and
        // state digest, after it has read every channel's bytes, write
        // stamp and tail.
        let cfg = LadderConfig {
            iterations: 4,
            ..LadderConfig::default()
        };
        for (spec, program) in iss_inputs(&cfg) {
            for pin_level in [false, true] {
                let run = realize_iss(&spec, &program, pin_level, &Tracer::off()).unwrap();

                let mut cpu = build_cpu(&spec, &program, pin_level).unwrap();
                let stats = cpu.run(RUN_BUDGET).unwrap();
                let bus = cpu.bus().unwrap();
                let expected = if pin_level {
                    stats.instructions + bus.phy_events()
                } else {
                    stats.instructions + bus.stats().reads + bus.stats().writes
                };
                assert_eq!(run.kernel_events, expected, "{} {}", spec.name, run.level);
                assert_eq!(run.digest, Some(cpu_state_digest(&cpu)), "{}", spec.name);
                assert_eq!(run.irqs, Some(spec.irq_count()), "{}", spec.name);
            }
        }
    }

    /// The driver model in closed form, `(cycles, kernel events)`: the
    /// oracle [`DriverEngine`] must reproduce segment by segment.
    fn closed_form_driver(spec: &SystemSpec) -> (u64, u64) {
        let irqs = spec.irq_count();
        let mut time = irqs * DRIVER_IRQ_COST;
        let mut events = irqs;
        for _ in 0..spec.iterations {
            for ch in &spec.channels {
                time += ch.compute + DRIVER_CALL_OVERHEAD + ch.words * DRIVER_PER_WORD;
                events += 2;
            }
        }
        time += spec
            .channels
            .iter()
            .filter_map(|ch| match spec.regions[ch.region].kind {
                DeviceKind::Fifo { drain_period, .. } => Some(ch.words * drain_period),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        (time, events)
    }

    #[test]
    fn driver_engine_matches_closed_form_model() {
        use crate::engine::Coordinator;
        let mut specs: Vec<SystemSpec> = [
            LadderConfig::default(),
            LadderConfig {
                iterations: 5,
                message_bytes: 17,
                drain_period: 40,
                ..LadderConfig::default()
            },
        ]
        .iter()
        .map(|cfg| cfg.spec().unwrap())
        .collect();
        specs.push(multi_channel_system().0);
        // Generated systems: several channels, UART interrupts, and
        // zero-compute channels among them.
        specs.extend((0..24).map(|seed| {
            random_system(&SysConfig {
                max_irq_bytes: 6,
                seed,
                ..SysConfig::default()
            })
            .unwrap()
        }));
        assert!(specs.iter().any(|s| s.irq_count() > 0));
        assert!(specs.iter().any(|s| s.channels.len() > 1));
        for spec in &specs {
            let (cycles, events) = closed_form_driver(spec);
            let run = realize_driver(spec);
            assert_eq!(
                (run.cycles, run.kernel_events),
                (cycles, events),
                "{}",
                spec.name
            );

            let mut coord = Coordinator::lockstep(16);
            coord.add_engine(Box::new(DriverEngine::new("driver", spec)));
            coord.run(u64::MAX).unwrap();
            assert!(coord.is_done());
            let eng = coord.engines()[0]
                .as_any()
                .downcast_ref::<DriverEngine>()
                .unwrap();
            assert_eq!(eng.simulated_cycles(), cycles, "{}", spec.name);
            assert_eq!(eng.events(), events, "{}", spec.name);
            assert_eq!(eng.iterations_done(), spec.iterations, "{}", spec.name);
        }
    }

    #[test]
    fn driver_state_past_the_last_segment_is_rejected() {
        let spec = LadderConfig::default().spec().unwrap();
        let mut engine = DriverEngine::new("driver", &spec);
        let mut w = StateWriter::new();
        w.u64(engine.segments() + 1);
        for _ in 0..3 {
            w.u64(0);
        }
        let bytes = w.into_bytes();
        let err = engine
            .restore_state(&mut StateReader::new(&bytes))
            .unwrap_err();
        assert!(
            matches!(err, SimError::Hardware(RtlError::State { .. })),
            "{err}"
        );
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        // Regression: zero bytes or iterations spun the ISS levels to the
        // 10^9-cycle budget, and a zero capacity or drain period panicked
        // inside `DrainFifo::new`.
        let d = LadderConfig::default;
        for cfg in [
            LadderConfig {
                message_bytes: 0,
                ..d()
            },
            LadderConfig {
                iterations: 0,
                ..d()
            },
            LadderConfig {
                fifo_capacity: 0,
                ..d()
            },
            LadderConfig {
                drain_period: 0,
                ..d()
            },
        ] {
            for level in AbstractionLevel::ALL {
                let err = run_level(level, &cfg).unwrap_err();
                assert!(matches!(err, SimError::Spec(_)), "{level} {cfg:?}: {err}");
            }
            let err = run_ladder(&cfg, &Tracer::off()).unwrap_err();
            assert!(matches!(err, SimError::Spec(_)), "{cfg:?}: {err}");
        }
        // `build_cpu` checks a hand-made spec before mapping its FIFOs.
        let mut spec = d().spec().unwrap();
        spec.regions[0].kind = DeviceKind::Fifo {
            capacity: 0,
            drain_period: 12,
        };
        assert!(matches!(
            build_cpu(&spec, &assemble("halt").unwrap(), false),
            Err(SimError::Spec(_))
        ));
    }

    #[test]
    fn driver_level_is_deterministic() {
        let cfg = LadderConfig::default();
        let a = run_level(AbstractionLevel::Driver, &cfg).unwrap();
        let b = run_level(AbstractionLevel::Driver, &cfg).unwrap();
        assert_eq!(a.simulated_cycles, b.simulated_cycles);
    }

    #[test]
    fn message_size_sweep_scales_all_levels() {
        for bytes in [16u64, 256] {
            let cfg = LadderConfig {
                message_bytes: bytes,
                ..LadderConfig::default()
            };
            let reports = run_ladder(&cfg, &Tracer::off()).unwrap();
            assert!(reports.iter().all(|r| r.simulated_cycles > 0));
        }
    }
}
