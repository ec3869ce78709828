//! Transaction-level system bus with memory-mapped slaves.
//!
//! The bus is the physical HW/SW boundary of the paper's Type II systems
//! (Figure 3 bottom): the processor issues register reads/writes and
//! receives interrupts; devices and co-processors sit behind an address
//! map. Every transaction reports its cost in bus cycles, so the
//! instruction-set simulator can account for communication overhead — the
//! Section 3.3 consideration that "favors partitions that localize
//! communication".
//!
//! `codesign-sim`'s pin-level engine expands each transaction into a
//! cycle-by-cycle req/ack pin protocol through the event-driven kernel;
//! this module is the behavioral reference those pins implement.

use codesign_trace::{Arg, Tracer, TrackId};

use crate::error::RtlError;
use crate::fsmd::{FsmdSim, FsmdStatus};
use crate::state::{StateReader, StateWriter};

/// A device mapped on the [`SystemBus`].
pub trait BusSlave: std::fmt::Debug {
    /// Device name, for address-map reports.
    fn name(&self) -> &str;
    /// Reads the 32-bit register at a byte offset within the device.
    fn read(&mut self, offset: u32) -> u32;
    /// Writes the 32-bit register at a byte offset within the device.
    fn write(&mut self, offset: u32, value: u32);
    /// Advances the device by one bus-clock cycle.
    fn tick(&mut self) {}
    /// Advances the device by `n` bus-clock cycles, leaving exactly the
    /// state `n` calls of [`BusSlave::tick`] would (the default). Devices
    /// with a closed form override it so catching up costs one call.
    fn advance(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }
    /// Whether the device is requesting an interrupt.
    fn irq_pending(&self) -> bool {
        false
    }
    /// Extra wait states the device would insert on its next access.
    ///
    /// Only a pin-level physical layer ([`BusPhy`]) observes these;
    /// transaction-level simulation assumes the fixed [`BusTiming`] —
    /// which is precisely the timing error the abstraction-ladder
    /// experiment measures.
    fn wait_states(&self) -> u64 {
        0
    }
    /// The device as [`std::any::Any`], for typed inspection through
    /// [`SystemBus::device`] in test benches and harnesses.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable counterpart of [`BusSlave::as_any`], for typed test-bench
    /// stimulus through [`SystemBus::device_mut`] (e.g. injecting UART
    /// receive data or driving GPIO input pins).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
    /// Serializes the device's mutable state for checkpointing (see
    /// [`crate::state`]). The default writes nothing, which is correct
    /// only for stateless devices; every stateful slave must override
    /// this and [`BusSlave::restore_state`] as a matched pair, or
    /// restored runs will silently diverge from uninterrupted ones.
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }
    /// Restores state captured by [`BusSlave::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncated or mismatched bytes.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        let _ = r;
        Ok(())
    }
}

/// A physical layer for the bus: when installed via
/// [`SystemBus::set_phy`], every transaction is realized by this layer
/// (e.g. as a cycle-by-cycle pin protocol through the event-driven gate
/// simulator), and its returned cycle count — including device wait
/// states — replaces the fixed [`BusTiming`] estimate.
pub trait BusPhy: std::fmt::Debug {
    /// Performs one transaction at the physical level and returns the bus
    /// cycles it took.
    fn transaction(&mut self, addr: u32, write: bool, value: u32, wait_states: u64) -> u64;
    /// Cumulative low-level simulation events processed by this layer.
    fn events(&self) -> u64;
    /// Serializes the layer's mutable state for checkpointing. Same
    /// contract as [`BusSlave::save_state`]: the default writes nothing
    /// and is correct only for stateless layers.
    fn save_state(&self, w: &mut StateWriter) {
        let _ = w;
    }
    /// Restores state captured by [`BusPhy::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncated or mismatched bytes.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        let _ = r;
        Ok(())
    }
}

/// Per-transaction timing of the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusTiming {
    /// Cycles for the address phase.
    pub addr_cycles: u64,
    /// Cycles for the data phase.
    pub data_cycles: u64,
    /// Extra wait states per transaction.
    pub wait_states: u64,
}

impl Default for BusTiming {
    fn default() -> Self {
        BusTiming {
            addr_cycles: 1,
            data_cycles: 1,
            wait_states: 1,
        }
    }
}

impl BusTiming {
    /// Cycles one transaction occupies the bus.
    #[must_use]
    pub fn transaction_cycles(&self) -> u64 {
        self.addr_cycles + self.data_cycles + self.wait_states
    }
}

/// Cumulative bus activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Completed read transactions.
    pub reads: u64,
    /// Completed write transactions.
    pub writes: u64,
    /// Total bus cycles consumed by transactions.
    pub busy_cycles: u64,
}

#[derive(Debug)]
struct Mapping {
    base: u32,
    size: u32,
    slave: Box<dyn BusSlave>,
    reads: u64,
    writes: u64,
    last_write_seq: u64,
}

/// Per-device access statistics, the bus-side architected observables a
/// conformance harness compares across abstraction levels: how often
/// each device was touched and *when* (in transaction order) it last
/// received a write — which is what makes per-channel completion order
/// measurable without instrumenting the software.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAccess {
    /// Device name.
    pub name: String,
    /// Mapped base address.
    pub base: u32,
    /// Read transactions this device served.
    pub reads: u64,
    /// Write transactions this device served.
    pub writes: u64,
    /// Global transaction sequence number of the most recent write
    /// (1-based; 0 = never written).
    pub last_write_seq: u64,
}

/// The shared system bus: an address map over [`BusSlave`]s plus timing
/// and statistics.
#[derive(Debug)]
pub struct SystemBus {
    timing: BusTiming,
    mappings: Vec<Mapping>,
    stats: BusStats,
    write_seq: u64,
    phy: Option<Box<dyn BusPhy>>,
    tracer: Tracer,
    track: TrackId,
}

impl SystemBus {
    /// Creates an empty bus with the given timing.
    #[must_use]
    pub fn new(timing: BusTiming) -> Self {
        let tracer = Tracer::off();
        let track = tracer.track("bus");
        SystemBus {
            timing,
            mappings: Vec::new(),
            stats: BusStats::default(),
            write_seq: 0,
            phy: None,
            tracer,
            track,
        }
    }

    /// Attaches a tracer: each transaction becomes a span on the `label`
    /// track — timestamped in cumulative bus-busy cycles, with address,
    /// value, and device name as arguments — and accesses to a
    /// [`DrainFifo`] also emit its occupancy as a counter. Tracing is
    /// observational only; timing and results are identical either way.
    pub fn set_tracer(&mut self, tracer: &Tracer, label: &str) {
        self.tracer = tracer.clone();
        self.track = self.tracer.track(label);
    }

    fn trace_transaction(&self, name: &str, i: usize, addr: u32, value: u32, cycles: u64) {
        if !self.tracer.is_on() {
            return;
        }
        let start = self.stats.busy_cycles - cycles;
        self.tracer.span(
            self.track,
            name,
            start,
            cycles,
            &[
                ("addr", Arg::from(u64::from(addr))),
                ("value", Arg::from(u64::from(value))),
                ("device", Arg::from(self.mappings[i].slave.name())),
            ],
        );
        if let Some(fifo) = self.mappings[i].slave.as_any().downcast_ref::<DrainFifo>() {
            self.tracer.counter(
                self.track,
                "fifo_occupancy",
                self.stats.busy_cycles,
                fifo.occupancy() as u64,
            );
        }
    }

    /// Installs a physical layer; subsequent transactions are realized
    /// (and timed) by it instead of the fixed [`BusTiming`].
    pub fn set_phy(&mut self, phy: Box<dyn BusPhy>) {
        self.phy = Some(phy);
    }

    /// Low-level events processed by the installed physical layer, if
    /// any.
    #[must_use]
    pub fn phy_events(&self) -> u64 {
        self.phy.as_ref().map_or(0, |p| p.events())
    }

    /// The bus timing parameters.
    #[must_use]
    pub fn timing(&self) -> BusTiming {
        self.timing
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Maps `slave` at `[base, base + size)`.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::MapOverlap`] naming both devices and ranges
    /// if the range overlaps an existing mapping, or if it wraps past
    /// the end of the 32-bit address space.
    pub fn map(&mut self, base: u32, size: u32, slave: Box<dyn BusSlave>) -> Result<(), RtlError> {
        let Some(end) = base.checked_add(size) else {
            return Err(RtlError::MapOverlap {
                device: slave.name().to_string(),
                base,
                size,
                conflict: "range wraps the 32-bit address space".to_string(),
            });
        };
        for m in &self.mappings {
            let m_end = m.base + m.size;
            if base < m_end && m.base < end {
                return Err(RtlError::MapOverlap {
                    device: slave.name().to_string(),
                    base,
                    size,
                    conflict: format!(
                        "overlaps {} at [{:#010x}, {m_end:#010x})",
                        m.slave.name(),
                        m.base
                    ),
                });
            }
        }
        self.mappings.push(Mapping {
            base,
            size,
            slave,
            reads: 0,
            writes: 0,
            last_write_seq: 0,
        });
        Ok(())
    }

    /// Typed access to the first mapped device of type `T`, for
    /// test-bench inspection (e.g. a UART's transmit log).
    #[must_use]
    pub fn device<T: 'static>(&self) -> Option<&T> {
        self.mappings
            .iter()
            .find_map(|m| m.slave.as_any().downcast_ref::<T>())
    }

    /// Mutable typed access to the first mapped device of type `T`, for
    /// test-bench stimulus.
    #[must_use]
    pub fn device_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.mappings
            .iter_mut()
            .find_map(|m| m.slave.as_any_mut().downcast_mut::<T>())
    }

    /// Typed access to the device mapped at exactly `base`, for
    /// harnesses with several devices of the same type (e.g. one FIFO
    /// per channel). Non-perturbing: unlike a bus [`SystemBus::read`],
    /// inspection through this accessor costs no transaction and leaves
    /// every statistic untouched.
    #[must_use]
    pub fn device_at<T: 'static>(&self, base: u32) -> Option<&T> {
        self.mappings
            .iter()
            .find(|m| m.base == base)
            .and_then(|m| m.slave.as_any().downcast_ref::<T>())
    }

    /// Mutable counterpart of [`SystemBus::device_at`], for per-device
    /// test-bench stimulus (e.g. preloading one specific UART).
    #[must_use]
    pub fn device_at_mut<T: 'static>(&mut self, base: u32) -> Option<&mut T> {
        self.mappings
            .iter_mut()
            .find(|m| m.base == base)
            .and_then(|m| m.slave.as_any_mut().downcast_mut::<T>())
    }

    /// Per-device access statistics in mapping order (see
    /// [`DeviceAccess`]). Non-perturbing, like [`SystemBus::device_at`].
    #[must_use]
    pub fn device_accesses(&self) -> Vec<DeviceAccess> {
        self.mappings
            .iter()
            .map(|m| DeviceAccess {
                name: m.slave.name().to_string(),
                base: m.base,
                reads: m.reads,
                writes: m.writes,
                last_write_seq: m.last_write_seq,
            })
            .collect()
    }

    /// The address map as `(name, base, size)` triples.
    #[must_use]
    pub fn address_map(&self) -> Vec<(String, u32, u32)> {
        self.mappings
            .iter()
            .map(|m| (m.slave.name().to_string(), m.base, m.size))
            .collect()
    }

    fn resolve(&mut self, addr: u32) -> Result<(usize, u32), RtlError> {
        for (i, m) in self.mappings.iter().enumerate() {
            if addr >= m.base && addr - m.base < m.size {
                return Ok((i, addr - m.base));
            }
        }
        Err(RtlError::BusFault { addr })
    }

    /// Performs a read transaction; returns the value and the cycles the
    /// transaction occupied the bus.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::BusFault`] if no slave claims `addr`.
    pub fn read(&mut self, addr: u32) -> Result<(u32, u64), RtlError> {
        let (i, off) = self.resolve(addr)?;
        let waits = self.mappings[i].slave.wait_states();
        let value = self.mappings[i].slave.read(off);
        let cycles = match self.phy.as_mut() {
            Some(phy) => phy.transaction(addr, false, value, waits),
            None => self.timing.transaction_cycles(),
        };
        self.stats.reads += 1;
        self.stats.busy_cycles += cycles;
        self.mappings[i].reads += 1;
        self.trace_transaction("read", i, addr, value, cycles);
        Ok((value, cycles))
    }

    /// Performs a write transaction; returns the cycles it occupied the
    /// bus.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::BusFault`] if no slave claims `addr`.
    pub fn write(&mut self, addr: u32, value: u32) -> Result<u64, RtlError> {
        let (i, off) = self.resolve(addr)?;
        let waits = self.mappings[i].slave.wait_states();
        self.mappings[i].slave.write(off, value);
        let cycles = match self.phy.as_mut() {
            Some(phy) => phy.transaction(addr, true, value, waits),
            None => self.timing.transaction_cycles(),
        };
        self.stats.writes += 1;
        self.stats.busy_cycles += cycles;
        self.write_seq += 1;
        self.mappings[i].writes += 1;
        self.mappings[i].last_write_seq = self.write_seq;
        self.trace_transaction("write", i, addr, value, cycles);
        Ok(cycles)
    }

    /// Advances every mapped device by `cycles` bus-clock cycles. Devices
    /// do not interact between accesses, so each catches up on its own
    /// through [`BusSlave::advance`].
    pub fn tick(&mut self, cycles: u64) {
        for m in &mut self.mappings {
            m.slave.advance(cycles);
        }
    }

    /// Whether any device is requesting an interrupt.
    #[must_use]
    pub fn irq_pending(&self) -> bool {
        self.mappings.iter().any(|m| m.slave.irq_pending())
    }

    /// Serializes the bus's mutable state: transaction statistics,
    /// per-mapping access counters, every slave's state (as opaque
    /// length-prefixed blobs), and the physical layer's state if one is
    /// installed. The address map and timing are static and not
    /// written; a checkpoint restores into a bus rebuilt with identical
    /// mappings.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.stats.reads);
        w.u64(self.stats.writes);
        w.u64(self.stats.busy_cycles);
        w.u64(self.write_seq);
        w.seq(self.mappings.len());
        for m in &self.mappings {
            w.u64(m.reads);
            w.u64(m.writes);
            w.u64(m.last_write_seq);
            w.nested(|w| m.slave.save_state(w));
        }
        w.nested(|w| {
            if let Some(phy) = &self.phy {
                phy.save_state(w);
            }
        });
    }

    /// Restores state captured by [`SystemBus::save_state`] into a bus
    /// with the same mappings (and the same phy installed, if any).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation or a mapping-count
    /// mismatch.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.stats.reads = r.u64()?;
        self.stats.writes = r.u64()?;
        self.stats.busy_cycles = r.u64()?;
        self.write_seq = r.u64()?;
        let n = r.seq(Some(self.mappings.len()))?;
        for i in 0..n {
            self.mappings[i].reads = r.u64()?;
            self.mappings[i].writes = r.u64()?;
            self.mappings[i].last_write_seq = r.u64()?;
            let blob = r.bytes()?;
            let mut sr = StateReader::new(blob);
            self.mappings[i].slave.restore_state(&mut sr)?;
            sr.finish()?;
        }
        let blob = r.bytes()?;
        let mut pr = StateReader::new(blob);
        if let Some(phy) = &mut self.phy {
            phy.restore_state(&mut pr)?;
        }
        pr.finish()
    }
}

// ---------------------------------------------------------------------------
// Devices
// ---------------------------------------------------------------------------

/// Word-addressable RAM.
#[derive(Debug)]
pub struct Ram {
    name: String,
    words: Vec<u32>,
}

impl Ram {
    /// Creates a zeroed RAM of `size_bytes` (rounded up to a word).
    #[must_use]
    pub fn new(name: impl Into<String>, size_bytes: u32) -> Self {
        Ram {
            name: name.into(),
            words: vec![0; (size_bytes as usize).div_ceil(4)],
        }
    }

    /// Direct (non-bus) access for loaders and tests.
    #[must_use]
    pub fn peek(&self, offset: u32) -> u32 {
        self.words.get((offset / 4) as usize).copied().unwrap_or(0)
    }

    /// Direct (non-bus) mutation for loaders and tests.
    pub fn poke(&mut self, offset: u32, value: u32) {
        let idx = (offset / 4) as usize;
        if idx < self.words.len() {
            self.words[idx] = value;
        }
    }
}

impl BusSlave for Ram {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn read(&mut self, offset: u32) -> u32 {
        self.peek(offset)
    }

    fn write(&mut self, offset: u32, value: u32) {
        self.poke(offset, value);
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.seq(self.words.len());
        for &word in &self.words {
            w.u32(word);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        let n = r.seq(Some(self.words.len()))?;
        for i in 0..n {
            self.words[i] = r.u32()?;
        }
        Ok(())
    }
}

/// UART register offsets.
pub mod uart_regs {
    /// Write: transmit one byte (low 8 bits).
    pub const TX: u32 = 0x0;
    /// Read: bit 0 = tx ready (always), bit 1 = rx byte available,
    /// bit 2 = rx overrun (sticky; cleared by reading STATUS).
    pub const STATUS: u32 = 0x4;
    /// Read: pop the next received byte.
    pub const RX: u32 = 0x8;
    /// Read/write: bit 0 enables the rx interrupt.
    pub const IRQ_ENABLE: u32 = 0xC;
}

/// A simple UART: transmitted bytes accumulate in a log; received bytes
/// are injected by the test bench via [`Uart::inject_rx`] into a
/// bounded receive FIFO ([`Uart::RX_CAPACITY`] bytes). Bytes arriving
/// into a full FIFO are lost and latch the sticky overrun bit in
/// STATUS, like a real UART's overrun error flag.
#[derive(Debug, Default)]
pub struct Uart {
    tx_log: Vec<u8>,
    rx_queue: std::collections::VecDeque<u8>,
    irq_enable: bool,
    overrun: bool,
}

impl Uart {
    /// Receive-FIFO depth in bytes; arrivals beyond this are dropped.
    pub const RX_CAPACITY: usize = 16;

    /// Creates an idle UART.
    #[must_use]
    pub fn new() -> Self {
        Uart::default()
    }

    /// Everything transmitted so far.
    #[must_use]
    pub fn transmitted(&self) -> &[u8] {
        &self.tx_log
    }

    /// Injects a byte into the receive queue (as if it arrived on the
    /// line). A byte arriving into a full FIFO is dropped and latches
    /// the sticky overrun flag.
    pub fn inject_rx(&mut self, byte: u8) {
        if self.rx_queue.len() >= Self::RX_CAPACITY {
            self.overrun = true;
        } else {
            self.rx_queue.push_back(byte);
        }
    }

    /// Whether receive bytes have been lost to a full FIFO since the
    /// last STATUS read.
    #[must_use]
    pub fn overrun(&self) -> bool {
        self.overrun
    }
}

impl BusSlave for Uart {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "uart"
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            uart_regs::STATUS => {
                let status = 1
                    | (u32::from(!self.rx_queue.is_empty()) << 1)
                    | (u32::from(self.overrun) << 2);
                self.overrun = false; // read-to-clear, like a real LSR
                status
            }
            uart_regs::RX => self.rx_queue.pop_front().map_or(0, u32::from),
            uart_regs::IRQ_ENABLE => u32::from(self.irq_enable),
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        match offset {
            uart_regs::TX => self.tx_log.push((value & 0xff) as u8),
            uart_regs::IRQ_ENABLE => self.irq_enable = value & 1 == 1,
            _ => {}
        }
    }

    fn irq_pending(&self) -> bool {
        self.irq_enable && !self.rx_queue.is_empty()
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.bytes(&self.tx_log);
        w.seq(self.rx_queue.len());
        for &b in &self.rx_queue {
            w.u8(b);
        }
        w.bool(self.irq_enable);
        w.bool(self.overrun);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.tx_log = r.bytes()?.to_vec();
        let n = r.seq(None)?;
        self.rx_queue.clear();
        for _ in 0..n {
            self.rx_queue.push_back(r.u8()?);
        }
        self.irq_enable = r.bool()?;
        self.overrun = r.bool()?;
        Ok(())
    }
}

/// Timer register offsets.
pub mod timer_regs {
    /// Read/write: reload value in bus cycles.
    pub const LOAD: u32 = 0x0;
    /// Read: current countdown value.
    pub const VALUE: u32 = 0x4;
    /// Read/write: bit 0 enable, bit 1 irq enable, bit 2 auto-reload.
    pub const CTRL: u32 = 0x8;
    /// Write: any value acknowledges (clears) a pending interrupt.
    pub const ACK: u32 = 0xC;
}

/// A countdown timer raising an interrupt at zero.
#[derive(Debug, Default)]
pub struct Timer {
    load: u32,
    value: u32,
    enabled: bool,
    irq_enable: bool,
    auto_reload: bool,
    irq: bool,
}

impl Timer {
    /// Creates a stopped timer.
    #[must_use]
    pub fn new() -> Self {
        Timer::default()
    }
}

impl BusSlave for Timer {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "timer"
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            timer_regs::LOAD => self.load,
            timer_regs::VALUE => self.value,
            timer_regs::CTRL => {
                u32::from(self.enabled)
                    | (u32::from(self.irq_enable) << 1)
                    | (u32::from(self.auto_reload) << 2)
            }
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        match offset {
            timer_regs::LOAD => {
                self.load = value;
                self.value = value;
            }
            timer_regs::CTRL => {
                self.enabled = value & 1 == 1;
                self.irq_enable = value & 2 == 2;
                self.auto_reload = value & 4 == 4;
            }
            timer_regs::ACK => self.irq = false,
            _ => {}
        }
    }

    fn tick(&mut self) {
        if self.enabled && self.value > 0 {
            self.value -= 1;
            if self.value == 0 {
                self.irq = true;
                if self.auto_reload {
                    self.value = self.load;
                }
            }
        }
    }

    fn advance(&mut self, n: u64) {
        if !self.enabled || self.value == 0 {
            return;
        }
        let value = u64::from(self.value);
        if n < value {
            self.value -= n as u32;
            return;
        }
        // The countdown expires at tick `value`, then every `load` ticks
        // while auto-reload refills it.
        self.irq = true;
        self.value = if self.auto_reload && self.load > 0 {
            let load = u64::from(self.load);
            (load - (n - value) % load) as u32
        } else {
            0
        };
    }

    fn irq_pending(&self) -> bool {
        self.irq_enable && self.irq
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u32(self.load);
        w.u32(self.value);
        w.bool(self.enabled);
        w.bool(self.irq_enable);
        w.bool(self.auto_reload);
        w.bool(self.irq);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.load = r.u32()?;
        self.value = r.u32()?;
        self.enabled = r.bool()?;
        self.irq_enable = r.bool()?;
        self.auto_reload = r.bool()?;
        self.irq = r.bool()?;
        Ok(())
    }
}

/// GPIO register offsets.
pub mod gpio_regs {
    /// Read/write: output pin latch.
    pub const OUT: u32 = 0x0;
    /// Read: input pin state.
    pub const IN: u32 = 0x4;
}

/// A 32-pin general-purpose I/O block.
#[derive(Debug, Default)]
pub struct Gpio {
    out: u32,
    pins_in: u32,
}

impl Gpio {
    /// Creates a GPIO block with all pins low.
    #[must_use]
    pub fn new() -> Self {
        Gpio::default()
    }

    /// Drives the external input pins (test bench side).
    pub fn set_pins(&mut self, pins: u32) {
        self.pins_in = pins;
    }

    /// The current output latch (test bench side).
    #[must_use]
    pub fn out_pins(&self) -> u32 {
        self.out
    }
}

impl BusSlave for Gpio {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "gpio"
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            gpio_regs::OUT => self.out,
            gpio_regs::IN => self.pins_in,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        if offset == gpio_regs::OUT {
            self.out = value;
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u32(self.out);
        w.u32(self.pins_in);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.out = r.u32()?;
        self.pins_in = r.u32()?;
        Ok(())
    }
}

/// Co-processor port register offsets.
pub mod coproc_regs {
    /// Write: operand registers start here, one 32-bit word each.
    pub const INPUT_BASE: u32 = 0x000;
    /// Write: any value starts the FSMD on the latched operands.
    pub const START: u32 = 0x100;
    /// Read: bit 0 = done.
    pub const STATUS: u32 = 0x104;
    /// Read/write: bit 0 enables the done interrupt.
    pub const IRQ_ENABLE: u32 = 0x108;
    /// Read: result registers start here, one 32-bit word each.
    pub const OUTPUT_BASE: u32 = 0x200;
}

/// A memory-mapped co-processor: an [`FsmdSim`] behind operand/result
/// registers and a start/done handshake — the paper's Figure 8
/// "instruction set processor with a custom co-processor" attachment.
///
/// Operands are 32-bit on the bus and sign-extended into the 64-bit
/// datapath; results are truncated to 32 bits.
#[derive(Debug)]
pub struct CoprocessorPort {
    sim: FsmdSim,
    operands: Vec<i64>,
    irq_enable: bool,
    started: bool,
}

impl CoprocessorPort {
    /// Wraps a synthesized FSMD as a bus device.
    #[must_use]
    pub fn new(sim: FsmdSim) -> Self {
        let n = sim.fsmd().input_count() as usize;
        CoprocessorPort {
            sim,
            operands: vec![0; n],
            irq_enable: false,
            started: false,
        }
    }

    /// Access to the wrapped simulator (e.g. for cycle counts).
    #[must_use]
    pub fn sim(&self) -> &FsmdSim {
        &self.sim
    }
}

impl BusSlave for CoprocessorPort {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "coproc"
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            coproc_regs::STATUS => u32::from(self.started && self.sim.status() == FsmdStatus::Done),
            coproc_regs::IRQ_ENABLE => u32::from(self.irq_enable),
            o if o >= coproc_regs::OUTPUT_BASE => {
                let idx = ((o - coproc_regs::OUTPUT_BASE) / 4) as usize;
                self.sim.outputs().get(idx).map_or(0, |&v| v as u32)
            }
            o if o < coproc_regs::START => {
                let idx = (o / 4) as usize;
                self.operands.get(idx).map_or(0, |&v| v as u32)
            }
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        match offset {
            coproc_regs::START => {
                self.sim.start(&self.operands.clone());
                self.started = true;
            }
            coproc_regs::IRQ_ENABLE => self.irq_enable = value & 1 == 1,
            o if o < coproc_regs::START => {
                let idx = (o / 4) as usize;
                if idx < self.operands.len() {
                    self.operands[idx] = i64::from(value as i32);
                }
            }
            _ => {}
        }
    }

    fn tick(&mut self) {
        self.sim.tick();
    }

    fn advance(&mut self, n: u64) {
        self.sim.run_ticks(n);
    }

    fn irq_pending(&self) -> bool {
        self.irq_enable && self.started && self.sim.status() == FsmdStatus::Done
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.sim.save_state(w);
        w.seq(self.operands.len());
        for &v in &self.operands {
            w.i64(v);
        }
        w.bool(self.irq_enable);
        w.bool(self.started);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.sim.restore_state(r)?;
        let n = r.seq(Some(self.operands.len()))?;
        for i in 0..n {
            self.operands[i] = r.i64()?;
        }
        self.irq_enable = r.bool()?;
        self.started = r.bool()?;
        Ok(())
    }
}

/// FIFO register offsets.
pub mod fifo_regs {
    /// Write: push one word. Read: pop one word.
    pub const DATA: u32 = 0x0;
    /// Read: current occupancy in words.
    pub const COUNT: u32 = 0x4;
}

/// A hardware FIFO that drains itself: a consumer engine pops one word
/// every `drain_period` cycles. Its wait states grow with occupancy, so
/// pin-level simulation sees congestion that transaction-level
/// simulation's fixed timing cannot.
#[derive(Debug)]
pub struct DrainFifo {
    queue: std::collections::VecDeque<u32>,
    capacity: usize,
    drain_period: u64,
    countdown: u64,
    drained: u64,
}

impl DrainFifo {
    /// Creates a FIFO of `capacity` words draining one word every
    /// `drain_period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `drain_period == 0`.
    #[must_use]
    pub fn new(capacity: usize, drain_period: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(drain_period > 0, "drain period must be positive");
        DrainFifo {
            queue: std::collections::VecDeque::new(),
            capacity,
            drain_period,
            countdown: drain_period,
            drained: 0,
        }
    }

    /// Words consumed by the drain engine so far.
    #[must_use]
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Current occupancy in words.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Exact cycles until the FIFO finishes draining its current
    /// contents, assuming no further pushes: the in-flight countdown to
    /// the next pop plus one full period per remaining word.
    ///
    /// This is the tail-drain model the abstraction ladder uses after
    /// the producer halts. The naive `occupancy * drain_period` estimate
    /// ignores the countdown already elapsed toward the next pop, and so
    /// overestimates the tail by up to `drain_period - 1` cycles — a
    /// divergence the conformance harness caught against tick-level
    /// ground truth.
    #[must_use]
    pub fn cycles_to_drain(&self) -> u64 {
        match self.queue.len() {
            0 => 0,
            n => self.countdown + (n as u64 - 1) * self.drain_period,
        }
    }
}

impl BusSlave for DrainFifo {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        "fifo"
    }

    fn read(&mut self, offset: u32) -> u32 {
        match offset {
            fifo_regs::DATA => self.queue.pop_front().unwrap_or(0),
            fifo_regs::COUNT => self.queue.len() as u32,
            _ => 0,
        }
    }

    fn write(&mut self, offset: u32, value: u32) {
        if offset == fifo_regs::DATA && self.queue.len() < self.capacity {
            self.queue.push_back(value);
        }
    }

    fn tick(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.drain_period;
            if self.queue.pop_front().is_some() {
                self.drained += 1;
            }
        }
    }

    fn advance(&mut self, n: u64) {
        if n < self.countdown {
            self.countdown -= n;
            return;
        }
        // The drain engine fires at tick `countdown`, then every period.
        let fired = 1 + (n - self.countdown) / self.drain_period;
        self.countdown = self.drain_period - (n - self.countdown) % self.drain_period;
        let popped = usize::try_from(fired).map_or(self.queue.len(), |f| f.min(self.queue.len()));
        self.queue.drain(..popped);
        self.drained += popped as u64;
    }

    fn wait_states(&self) -> u64 {
        // Congestion-dependent ready delay.
        let fill = self.queue.len() * 4 / self.capacity.max(1);
        match fill {
            0 | 1 => 0,
            2 => 1,
            _ => 3,
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.seq(self.queue.len());
        for &word in &self.queue {
            w.u32(word);
        }
        w.u64(self.countdown);
        w.u64(self.drained);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        let n = r.seq(None)?;
        self.queue.clear();
        for _ in 0..n {
            self.queue.push_back(r.u32()?);
        }
        let countdown = r.u64()?;
        if countdown == 0 || countdown > self.drain_period {
            return Err(RtlError::State {
                reason: format!(
                    "fifo countdown {countdown} outside 1..={}",
                    self.drain_period
                ),
            });
        }
        self.countdown = countdown;
        self.drained = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsmd::{Fsmd, MicroOp, Next, Operand, RegId, State};
    use codesign_ir::cdfg::OpKind;

    fn bus_with_ram() -> SystemBus {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0000, 0x1000, Box::new(Ram::new("ram", 0x1000)))
            .unwrap();
        bus
    }

    #[test]
    fn ram_read_write_roundtrip() {
        let mut bus = bus_with_ram();
        bus.write(0x10, 0xDEADBEEF).unwrap();
        let (v, cycles) = bus.read(0x10).unwrap();
        assert_eq!(v, 0xDEADBEEF);
        assert_eq!(cycles, BusTiming::default().transaction_cycles());
    }

    #[test]
    fn unmapped_address_faults() {
        let mut bus = bus_with_ram();
        assert_eq!(
            bus.read(0x9999_0000),
            Err(RtlError::BusFault { addr: 0x9999_0000 })
        );
    }

    #[test]
    fn overlapping_mapping_rejected() {
        let mut bus = bus_with_ram();
        let err = bus
            .map(0x0800, 0x1000, Box::new(Ram::new("ram2", 16)))
            .unwrap_err();
        // The error names both devices and both ranges — enough to fix
        // the address map without a debugger.
        assert_eq!(
            err,
            RtlError::MapOverlap {
                device: "ram2".to_string(),
                base: 0x0800,
                size: 0x1000,
                conflict: "overlaps ram at [0x00000000, 0x00001000)".to_string(),
            }
        );
        assert_eq!(
            err.to_string(),
            "cannot map ram2 at [0x00000800, 0x00001800): \
             overlaps ram at [0x00000000, 0x00001000)"
        );
        // Adjacent is fine.
        bus.map(0x1000, 0x100, Box::new(Ram::new("ram3", 16)))
            .unwrap();
    }

    #[test]
    fn wrapping_mapping_rejected() {
        let mut bus = SystemBus::new(BusTiming::default());
        let err = bus
            .map(0xFFFF_FF00, 0x1000, Box::new(Ram::new("high", 16)))
            .unwrap_err();
        assert!(matches!(err, RtlError::MapOverlap { .. }));
        assert!(err.to_string().contains("wraps"), "{err}");
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = bus_with_ram();
        bus.write(0, 1).unwrap();
        bus.write(4, 2).unwrap();
        bus.read(0).unwrap();
        let s = bus.stats();
        assert_eq!((s.reads, s.writes), (1, 2));
        assert_eq!(s.busy_cycles, 3 * BusTiming::default().transaction_cycles());
    }

    #[test]
    fn uart_transmits_and_receives() {
        let mut bus = SystemBus::new(BusTiming::default());
        let mut uart = Uart::new();
        uart.inject_rx(b'!');
        bus.map(0x100, 0x10, Box::new(uart)).unwrap();

        bus.write(0x100 + uart_regs::TX, u32::from(b'h')).unwrap();
        bus.write(0x100 + uart_regs::TX, u32::from(b'i')).unwrap();
        let (status, _) = bus.read(0x100 + uart_regs::STATUS).unwrap();
        assert_eq!(status & 0b11, 0b11, "tx ready and rx available");
        let (rx, _) = bus.read(0x100 + uart_regs::RX).unwrap();
        assert_eq!(rx, u32::from(b'!'));
        let (status, _) = bus.read(0x100 + uart_regs::STATUS).unwrap();
        assert_eq!(status & 0b10, 0, "rx drained");
    }

    #[test]
    fn uart_irq_gated_by_enable() {
        let mut bus = SystemBus::new(BusTiming::default());
        let mut uart = Uart::new();
        uart.inject_rx(7);
        bus.map(0x0, 0x10, Box::new(uart)).unwrap();
        assert!(!bus.irq_pending(), "irq disabled by default");
        bus.write(uart_regs::IRQ_ENABLE, 1).unwrap();
        assert!(bus.irq_pending());
        bus.read(uart_regs::RX).unwrap();
        assert!(!bus.irq_pending(), "queue drained");
    }

    #[test]
    fn uart_rx_overflow_drops_bytes_and_latches_overrun() {
        let mut uart = Uart::new();
        for b in 0..=Uart::RX_CAPACITY {
            uart.inject_rx(b as u8);
        }
        assert!(uart.overrun(), "17th byte into a 16-deep FIFO is lost");
        let status = uart.read(uart_regs::STATUS);
        assert_eq!(status & 0b111, 0b111, "tx ready, rx avail, overrun");
        // Read-to-clear: the sticky bit reports once per read.
        assert_eq!(uart.read(uart_regs::STATUS) & 0b100, 0);
        // The FIFO kept the oldest RX_CAPACITY bytes intact.
        for b in 0..Uart::RX_CAPACITY {
            assert_eq!(uart.read(uart_regs::RX), b as u32);
        }
        assert_eq!(uart.read(uart_regs::STATUS) & 0b10, 0, "drained");
        // With space available again, injection resumes normally.
        uart.inject_rx(0xAB);
        assert_eq!(uart.read(uart_regs::RX), 0xAB);
        assert_eq!(uart.read(uart_regs::STATUS) & 0b100, 0, "no new overrun");
    }

    #[test]
    fn timer_counts_down_and_interrupts() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x10, Box::new(Timer::new())).unwrap();
        bus.write(timer_regs::LOAD, 5).unwrap();
        bus.write(timer_regs::CTRL, 0b111).unwrap(); // enable, irq, reload
        bus.tick(4);
        assert!(!bus.irq_pending());
        bus.tick(1);
        assert!(bus.irq_pending());
        let (v, _) = bus.read(timer_regs::VALUE).unwrap();
        assert_eq!(v, 5, "auto reloaded");
        bus.write(timer_regs::ACK, 1).unwrap();
        assert!(!bus.irq_pending());
    }

    #[test]
    fn timer_zero_period_never_fires() {
        // LOAD = 0 is a configuration corner: the countdown has nothing
        // to count, so enabling the timer must not wedge it at "always
        // about to fire" or spin the IRQ line.
        let mut timer = Timer::new();
        timer.write(timer_regs::LOAD, 0);
        timer.write(timer_regs::CTRL, 0b111); // enable, irq, auto-reload
        for _ in 0..100 {
            timer.tick();
        }
        assert!(!timer.irq_pending(), "zero-period timer stays silent");
        assert_eq!(timer.read(timer_regs::VALUE), 0);
    }

    #[test]
    fn timer_ack_race_with_auto_reload_keeps_future_irqs() {
        // The classic ack race: software acknowledges the pending IRQ
        // while the auto-reloaded countdown is already running again. The
        // ack must clear only the *current* pending flag — the next
        // zero-crossing must still raise a fresh interrupt.
        let mut timer = Timer::new();
        timer.write(timer_regs::LOAD, 3);
        timer.write(timer_regs::CTRL, 0b111);
        for _ in 0..3 {
            timer.tick();
        }
        assert!(timer.irq_pending(), "first expiry");
        // Countdown reloaded and already past one cycle when the ack
        // lands.
        timer.tick();
        timer.write(timer_regs::ACK, 1);
        assert!(!timer.irq_pending(), "ack clears the pending flag");
        for _ in 0..2 {
            timer.tick();
        }
        assert!(timer.irq_pending(), "next expiry still fires");
    }

    #[test]
    fn timer_pending_irq_survives_until_acked() {
        // Without an ack, the flag stays latched across further ticks —
        // a level interrupt, not a pulse.
        let mut timer = Timer::new();
        timer.write(timer_regs::LOAD, 2);
        timer.write(timer_regs::CTRL, 0b111);
        for _ in 0..20 {
            timer.tick();
        }
        assert!(timer.irq_pending());
        timer.write(timer_regs::ACK, 0xFFFF);
        assert!(!timer.irq_pending());
    }

    #[test]
    fn gpio_latches_output() {
        let mut bus = SystemBus::new(BusTiming::default());
        let mut gpio = Gpio::new();
        gpio.set_pins(0xA5);
        bus.map(0x0, 0x10, Box::new(gpio)).unwrap();
        let (pins, _) = bus.read(gpio_regs::IN).unwrap();
        assert_eq!(pins, 0xA5);
        bus.write(gpio_regs::OUT, 0x3C).unwrap();
        let (out, _) = bus.read(gpio_regs::OUT).unwrap();
        assert_eq!(out, 0x3C);
    }

    fn adder_fsmd() -> FsmdSim {
        let mut f = Fsmd::new("adder", 1, 2, vec![RegId(0)]);
        f.add_state(State {
            ops: vec![MicroOp {
                dst: RegId(0),
                op: OpKind::Add,
                args: vec![Operand::Input(0), Operand::Input(1)],
            }],
            next: Next::Done,
        })
        .unwrap();
        FsmdSim::new(f).unwrap()
    }

    #[test]
    fn coprocessor_handshake_over_bus() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x8000, 0x1000, Box::new(CoprocessorPort::new(adder_fsmd())))
            .unwrap();
        // Write operands, start, poll, read result: the exact driver
        // sequence interface synthesis generates.
        bus.write(0x8000 + coproc_regs::INPUT_BASE, 33).unwrap();
        bus.write(0x8000 + coproc_regs::INPUT_BASE + 4, 9).unwrap();
        bus.write(0x8000 + coproc_regs::START, 1).unwrap();
        let (status, _) = bus.read(0x8000 + coproc_regs::STATUS).unwrap();
        assert_eq!(status, 0, "not done before any cycle elapses");
        bus.tick(1);
        let (status, _) = bus.read(0x8000 + coproc_regs::STATUS).unwrap();
        assert_eq!(status, 1);
        let (result, _) = bus.read(0x8000 + coproc_regs::OUTPUT_BASE).unwrap();
        assert_eq!(result, 42);
    }

    #[test]
    fn coprocessor_irq_on_done() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x1000, Box::new(CoprocessorPort::new(adder_fsmd())))
            .unwrap();
        bus.write(coproc_regs::IRQ_ENABLE, 1).unwrap();
        assert!(!bus.irq_pending(), "not started yet");
        bus.write(coproc_regs::START, 1).unwrap();
        bus.tick(1);
        assert!(bus.irq_pending());
    }

    #[test]
    fn coprocessor_sign_extends_operands() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x1000, Box::new(CoprocessorPort::new(adder_fsmd())))
            .unwrap();
        bus.write(coproc_regs::INPUT_BASE, (-5i32) as u32).unwrap();
        bus.write(coproc_regs::INPUT_BASE + 4, 3).unwrap();
        bus.write(coproc_regs::START, 1).unwrap();
        bus.tick(1);
        let (result, _) = bus.read(coproc_regs::OUTPUT_BASE).unwrap();
        assert_eq!(result as i32, -2);
    }

    #[test]
    fn address_map_reports_devices() {
        let mut bus = bus_with_ram();
        bus.map(0x2000, 0x10, Box::new(Uart::new())).unwrap();
        let map = bus.address_map();
        assert_eq!(map.len(), 2);
        assert_eq!(map[1], ("uart".to_string(), 0x2000, 0x10));
    }

    #[test]
    fn drain_fifo_consumes_over_time() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x10, Box::new(DrainFifo::new(8, 10))).unwrap();
        for v in 0..4 {
            bus.write(fifo_regs::DATA, v).unwrap();
        }
        let (count, _) = bus.read(fifo_regs::COUNT).unwrap();
        assert_eq!(count, 4);
        bus.tick(40);
        let (count, _) = bus.read(fifo_regs::COUNT).unwrap();
        assert_eq!(count, 0);
    }

    #[test]
    fn drain_fifo_wait_states_grow_with_occupancy() {
        let mut fifo = DrainFifo::new(8, 1_000_000);
        assert_eq!(fifo.wait_states(), 0);
        for v in 0..8 {
            fifo.write(fifo_regs::DATA, v);
        }
        assert_eq!(fifo.wait_states(), 3);
    }

    #[test]
    fn drain_fifo_rejects_overflow_writes() {
        let mut fifo = DrainFifo::new(2, 1_000_000);
        for v in 0..5 {
            fifo.write(fifo_regs::DATA, v);
        }
        assert_eq!(fifo.occupancy(), 2);
    }

    #[test]
    fn cycles_to_drain_matches_tick_level_ground_truth() {
        // Regression (conformance harness): the tail-drain estimate must
        // equal the exact number of ticks until the FIFO empties, for
        // any in-flight countdown state — `occupancy * drain_period`
        // does not.
        for pre_ticks in 0..12u64 {
            let mut fifo = DrainFifo::new(8, 5);
            for v in 0..4 {
                fifo.write(fifo_regs::DATA, v);
            }
            for _ in 0..pre_ticks {
                fifo.tick();
            }
            let predicted = fifo.cycles_to_drain();
            let mut actual = 0u64;
            while fifo.occupancy() > 0 {
                fifo.tick();
                actual += 1;
            }
            assert_eq!(predicted, actual, "after {pre_ticks} pre-ticks");
        }
        assert_eq!(DrainFifo::new(4, 7).cycles_to_drain(), 0, "empty fifo");
    }

    #[test]
    fn device_accesses_track_counts_and_write_order() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x000, 0x100, Box::new(DrainFifo::new(8, 1_000)))
            .unwrap();
        bus.map(0x100, 0x100, Box::new(DrainFifo::new(8, 1_000)))
            .unwrap();
        // Write fifo B last, read fifo A twice.
        bus.write(fifo_regs::DATA, 1).unwrap();
        bus.write(0x100 + fifo_regs::DATA, 2).unwrap();
        bus.read(fifo_regs::COUNT).unwrap();
        bus.read(fifo_regs::COUNT).unwrap();
        let acc = bus.device_accesses();
        assert_eq!(acc.len(), 2);
        assert_eq!((acc[0].reads, acc[0].writes), (2, 1));
        assert_eq!((acc[1].reads, acc[1].writes), (0, 1));
        assert!(
            acc[1].last_write_seq > acc[0].last_write_seq,
            "fifo B written after fifo A"
        );
        // Inspection is non-perturbing.
        let again = bus.device_accesses();
        assert_eq!(acc, again);
        assert_eq!(bus.stats().reads, 2);
    }

    #[test]
    fn device_at_selects_by_base() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x000, 0x100, Box::new(DrainFifo::new(8, 1_000)))
            .unwrap();
        bus.map(0x100, 0x100, Box::new(DrainFifo::new(8, 1_000)))
            .unwrap();
        bus.write(0x100 + fifo_regs::DATA, 42).unwrap();
        assert_eq!(bus.device_at::<DrainFifo>(0x000).unwrap().occupancy(), 0);
        assert_eq!(bus.device_at::<DrainFifo>(0x100).unwrap().occupancy(), 1);
        assert!(bus.device_at::<DrainFifo>(0x200).is_none());
        bus.device_at_mut::<DrainFifo>(0x100).unwrap().tick();
    }

    #[test]
    fn traced_bus_behaves_identically() {
        let run = |tracer: Option<&Tracer>| {
            let mut bus = SystemBus::new(BusTiming::default());
            if let Some(t) = tracer {
                bus.set_tracer(t, "bus");
            }
            bus.map(0x0, 0x10, Box::new(DrainFifo::new(8, 10))).unwrap();
            for v in 0..4 {
                bus.write(fifo_regs::DATA, v).unwrap();
            }
            bus.tick(20);
            let (count, _) = bus.read(fifo_regs::COUNT).unwrap();
            (count, bus.stats())
        };
        let plain = run(None);
        let tracer = Tracer::on();
        let traced = run(Some(&tracer));
        assert_eq!(plain, traced);
        // 5 transactions, each a span; the 4 FIFO data writes and the
        // count read also emit an occupancy counter.
        assert_eq!(tracer.event_count(), 10);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    #[derive(Debug)]
    struct CountingPhy {
        events: u64,
    }

    impl BusPhy for CountingPhy {
        fn transaction(&mut self, _addr: u32, _write: bool, _value: u32, waits: u64) -> u64 {
            self.events += 10;
            5 + waits
        }
        fn events(&self) -> u64 {
            self.events
        }
    }

    #[test]
    fn phy_overrides_transaction_timing() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x10, Box::new(DrainFifo::new(4, 1_000_000)))
            .unwrap();
        bus.set_phy(Box::new(CountingPhy { events: 0 }));
        // Fill to trigger wait states visible only through the phy.
        for v in 0..3 {
            bus.write(fifo_regs::DATA, v).unwrap();
        }
        let cycles = bus.write(fifo_regs::DATA, 99).unwrap();
        assert!(cycles > 5, "wait states included: {cycles}");
        assert_eq!(bus.phy_events(), 40);
    }
}
