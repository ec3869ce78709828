//! Cycle-accurate CR32 instruction-set simulator.
//!
//! The CPU is the software side of every Type I system in the paper
//! (Figure 4): it executes an assembled [`Program`] against internal data
//! memory, and routes accesses at or above [`MMIO_BASE`] to an attached
//! `codesign-rtl` [`SystemBus`]. Each device access pays real bus cycles,
//! and devices catch up with instruction execution before anything can
//! observe them — a bus access, an interrupt sample, or a return to the
//! caller — so interrupts arrive at cycle-accurate times, giving the
//! co-simulation engines the register-read/write and interrupt
//! abstraction levels of the paper's Figure 3 for free.
//!
//! Custom functional units ([`CustomUnit`]) can be attached to the eight
//! `custom` opcode slots, which is how the ASIP flow (Section 4.3) moves
//! work across the HW/SW boundary without changing the program structure.

use std::collections::{BTreeMap, BTreeSet};

use codesign_rtl::bus::SystemBus;
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;
use codesign_trace::{Arg, Tracer, TrackId};

use crate::asm::Program;
use crate::error::IsaError;
use crate::instr::{AluOp, Instr, Reg, UnaryOp, NUM_REGS};

/// Data addresses at or above this value are routed to the system bus.
pub const MMIO_BASE: u64 = 0x8000_0000;

/// A hardware functional unit attached to a `custom` opcode slot.
pub trait CustomUnit: std::fmt::Debug {
    /// Unit name (for reports).
    fn name(&self) -> &str;
    /// Invocation latency in cycles (replaces the instruction's base
    /// cost).
    fn latency(&self) -> u64;
    /// Area in LUTs, the implementation cost of the extension.
    fn area_luts(&self) -> u32;
    /// Combinational function of the unit over the two register operands
    /// and the instruction's immediate field.
    fn eval(&self, a: i64, b: i64, imm: i64) -> i64;
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles, including bus transaction cycles.
    pub cycles: u64,
    /// Cycles spent in bus transactions (communication overhead).
    pub bus_cycles: u64,
    /// Interrupts taken.
    pub irqs_taken: u64,
    /// `custom` instructions retired.
    pub custom_invocations: u64,
}

/// Why a debug-controlled run ([`Cpu::run_debug`] / [`Cpu::step_debug`])
/// stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugStop {
    /// The CPU executed `halt`.
    Halted,
    /// The cycle horizon was reached without any debug event.
    Horizon,
    /// Execution reached a breakpointed instruction index (stopped
    /// *before* executing it).
    Breakpoint {
        /// The breakpointed instruction index.
        pc: usize,
    },
    /// A watched data address was accessed (stopped *after* the access).
    Watchpoint {
        /// The watched address.
        addr: u64,
        /// `true` for a store, `false` for a load.
        write: bool,
    },
    /// A single [`Cpu::step_debug`] completed with no other event.
    Step,
}

/// Debugger session state: breakpoints, watchpoints, and the pending
/// watch hit latched by the last instruction. Not part of the
/// architectural state — checkpoints ignore it.
#[derive(Debug, Default)]
struct DebugCtl {
    breakpoints: BTreeSet<usize>,
    watchpoints: BTreeSet<u64>,
    watch_hit: Option<(u64, bool)>,
}

/// The CR32 processor model.
#[derive(Debug)]
pub struct Cpu {
    regs: [i64; NUM_REGS],
    pc: usize,
    program: Program,
    mem: Vec<u8>,
    bus: Option<SystemBus>,
    custom: BTreeMap<u8, Box<dyn CustomUnit>>,
    interrupts_enabled: bool,
    in_interrupt: bool,
    epc: usize,
    halted: bool,
    stats: CpuStats,
    /// Cycles retired since the bus was last ticked. Devices catch up
    /// (`pay`) only where something can observe them, so the debt is 0
    /// whenever a public call returns.
    owed: u64,
    tracer: Tracer,
    track: TrackId,
    debug: DebugCtl,
}

/// How many instructions between `instructions` counter samples on the
/// trace, so long runs stay viewable.
const TRACE_SAMPLE_INSTRS: u64 = 1024;

impl Cpu {
    /// Creates a CPU with `mem_bytes` of zeroed internal data memory and
    /// no program.
    #[must_use]
    pub fn new(mem_bytes: usize) -> Self {
        let tracer = Tracer::off();
        let track = tracer.track("cpu");
        Cpu {
            regs: [0; NUM_REGS],
            pc: 0,
            program: Program::from_instrs(Vec::new()),
            mem: vec![0; mem_bytes],
            bus: None,
            custom: BTreeMap::new(),
            interrupts_enabled: false,
            in_interrupt: false,
            epc: 0,
            halted: true,
            stats: CpuStats::default(),
            owed: 0,
            tracer,
            track,
            debug: DebugCtl::default(),
        }
    }

    /// Attaches a tracer: the CPU emits an `instructions` counter every
    /// [`TRACE_SAMPLE_INSTRS`] retired instructions (and at halt) plus an
    /// instant event per interrupt taken, on the `label` track,
    /// timestamped in CPU cycles. Tracing is observational only;
    /// execution and statistics are identical either way.
    pub fn set_tracer(&mut self, tracer: &Tracer, label: &str) {
        self.tracer = tracer.clone();
        self.track = self.tracer.track(label);
    }

    /// Attaches the system bus carrying the memory-mapped devices.
    pub fn attach_bus(&mut self, bus: SystemBus) {
        self.bus = Some(bus);
    }

    /// The attached bus, if any.
    #[must_use]
    pub fn bus(&self) -> Option<&SystemBus> {
        self.bus.as_ref()
    }

    /// Mutable access to the attached bus (e.g. to inspect devices).
    #[must_use]
    pub fn bus_mut(&mut self) -> Option<&mut SystemBus> {
        self.bus.as_mut()
    }

    /// Attaches a custom functional unit to `custom<slot>` instructions.
    pub fn attach_custom_unit(&mut self, slot: u8, unit: Box<dyn CustomUnit>) {
        self.custom.insert(slot, unit);
    }

    /// Loads a program and resets the processor state (registers, pc,
    /// statistics; memory contents are preserved).
    pub fn load_program(&mut self, program: &Program) {
        self.program = program.clone();
        self.reset();
    }

    /// Resets registers, pc, and statistics; memory is preserved.
    pub fn reset(&mut self) {
        self.regs = [0; NUM_REGS];
        self.pc = self.program.entry;
        self.interrupts_enabled = false;
        self.in_interrupt = false;
        self.epc = 0;
        self.halted = self.program.is_empty();
        self.stats = CpuStats::default();
    }

    /// Whether the CPU has executed `halt` (or has no program).
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Current value of a register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Sets a register (test benches and harnesses; `r0` stays zero).
    pub fn set_reg(&mut self, r: Reg, value: i64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Current program counter (instruction index).
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Snapshot of the architectural register file, for differential
    /// harnesses that compare per-retired-instruction state.
    #[must_use]
    pub fn regs(&self) -> [i64; NUM_REGS] {
        self.regs
    }

    /// The internal data memory, for architectural-state digests.
    #[must_use]
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// Reads a 64-bit word from internal data memory.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::MemFault`] / [`IsaError::Misaligned`] for bad
    /// addresses.
    pub fn load_word(&self, addr: u64) -> Result<i64, IsaError> {
        self.check(addr, 8)?;
        let i = addr as usize;
        let bytes: [u8; 8] = self.mem[i..i + 8].try_into().expect("checked");
        Ok(i64::from_le_bytes(bytes))
    }

    /// Writes a 64-bit word to internal data memory.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::MemFault`] / [`IsaError::Misaligned`] for bad
    /// addresses.
    pub fn store_word(&mut self, addr: u64, value: i64) -> Result<(), IsaError> {
        self.check(addr, 8)?;
        let i = addr as usize;
        self.mem[i..i + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn check(&self, addr: u64, align: u64) -> Result<(), IsaError> {
        if !addr.is_multiple_of(align) {
            return Err(IsaError::Misaligned { addr, align });
        }
        if addr + align > self.mem.len() as u64 {
            return Err(IsaError::MemFault { addr });
        }
        Ok(())
    }

    fn write_reg(&mut self, r: Reg, value: i64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = value;
        }
    }

    /// Executes one instruction, advancing devices by its cycle cost.
    /// Returns `true` while the CPU is still running.
    ///
    /// # Errors
    ///
    /// Propagates memory, bus, decode, and divide faults; see
    /// [`IsaError`].
    pub fn step(&mut self) -> Result<bool, IsaError> {
        let running = self.step_unpaid();
        self.pay();
        running
    }

    /// Advances every device by the cycles owed since the bus was last
    /// ticked. `BusSlave::advance(a); advance(b)` equals `advance(a + b)`,
    /// so paying late is exact.
    fn pay(&mut self) {
        let owed = std::mem::take(&mut self.owed);
        if owed > 0 {
            if let Some(bus) = self.bus.as_mut() {
                bus.tick(owed);
            }
        }
    }

    /// Executes one instruction, adding its cycles to the debt. Devices
    /// catch up only before a bus access or an interrupt sample.
    fn step_unpaid(&mut self) -> Result<bool, IsaError> {
        if self.halted {
            return Ok(false);
        }
        let Some(&instr) = self.program.instrs.get(self.pc) else {
            return Err(IsaError::PcFault { pc: self.pc });
        };
        let pc_at_fetch = self.pc;
        let mut cycles = instr.base_cycles();
        let mut next_pc = self.pc + 1;

        match instr {
            Instr::Alu(op, rd, rs1, rs2) => {
                let (a, b) = (self.regs[rs1.index()], self.regs[rs2.index()]);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div => {
                        if b == 0 {
                            return Err(IsaError::DivideByZero { pc: pc_at_fetch });
                        }
                        a.wrapping_div(b)
                    }
                    AluOp::Rem => {
                        if b == 0 {
                            return Err(IsaError::DivideByZero { pc: pc_at_fetch });
                        }
                        a.wrapping_rem(b)
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Sll => a.wrapping_shl((b & 0x3f) as u32),
                    AluOp::Sra => a.wrapping_shr((b & 0x3f) as u32),
                    AluOp::Slt => i64::from(a < b),
                    AluOp::Sle => i64::from(a <= b),
                    AluOp::Seq => i64::from(a == b),
                    AluOp::Sne => i64::from(a != b),
                    AluOp::Min => a.min(b),
                    AluOp::Max => a.max(b),
                };
                self.write_reg(rd, v);
            }
            Instr::Unary(op, rd, rs1) => {
                let a = self.regs[rs1.index()];
                let v = match op {
                    UnaryOp::Neg => a.wrapping_neg(),
                    UnaryOp::Not => !a,
                    UnaryOp::Abs => a.wrapping_abs(),
                };
                self.write_reg(rd, v);
            }
            Instr::Cmovnz(rd, rc, rs) => {
                if self.regs[rc.index()] != 0 {
                    let v = self.regs[rs.index()];
                    self.write_reg(rd, v);
                }
            }
            Instr::Addi(rd, rs1, imm) => {
                let v = self.regs[rs1.index()].wrapping_add(i64::from(imm));
                self.write_reg(rd, v);
            }
            Instr::Li(rd, imm) => self.write_reg(rd, imm),
            Instr::Ld(rd, rs1, imm) => {
                let addr = self.effective(rs1, imm);
                if addr >= MMIO_BASE {
                    return Err(IsaError::MemFault { addr });
                }
                self.note_watch(addr, false);
                let v = self.load_word(addr)?;
                self.write_reg(rd, v);
            }
            Instr::Sd(rs2, rs1, imm) => {
                let addr = self.effective(rs1, imm);
                if addr >= MMIO_BASE {
                    return Err(IsaError::MemFault { addr });
                }
                self.note_watch(addr, true);
                let v = self.regs[rs2.index()];
                self.store_word(addr, v)?;
            }
            Instr::Lw(rd, rs1, imm) => {
                let addr = self.effective(rs1, imm);
                self.note_watch(addr, false);
                let v = if addr >= MMIO_BASE {
                    // The bus reads the device's wait states and register.
                    self.pay();
                    let bus = self.bus.as_mut().ok_or(IsaError::MemFault { addr })?;
                    let (value, bus_cycles) = bus.read((addr - MMIO_BASE) as u32)?;
                    cycles += bus_cycles;
                    self.stats.bus_cycles += bus_cycles;
                    i64::from(value as i32)
                } else {
                    self.check(addr, 4)?;
                    let i = addr as usize;
                    let bytes: [u8; 4] = self.mem[i..i + 4].try_into().expect("checked");
                    i64::from(i32::from_le_bytes(bytes))
                };
                self.write_reg(rd, v);
            }
            Instr::Sw(rs2, rs1, imm) => {
                let addr = self.effective(rs1, imm);
                self.note_watch(addr, true);
                let v = self.regs[rs2.index()] as u32;
                if addr >= MMIO_BASE {
                    self.pay();
                    let bus = self.bus.as_mut().ok_or(IsaError::MemFault { addr })?;
                    let bus_cycles = bus.write((addr - MMIO_BASE) as u32, v)?;
                    cycles += bus_cycles;
                    self.stats.bus_cycles += bus_cycles;
                } else {
                    self.check(addr, 4)?;
                    let i = addr as usize;
                    self.mem[i..i + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            Instr::Branch(cond, rs1, rs2, off) => {
                if cond.taken(self.regs[rs1.index()], self.regs[rs2.index()]) {
                    next_pc = (self.pc as i64 + 1 + i64::from(off)) as usize;
                }
            }
            Instr::Jal(rd, target) => {
                self.write_reg(rd, (self.pc + 1) as i64);
                next_pc = target as usize;
            }
            Instr::Jalr(rd, rs1) => {
                let t = self.regs[rs1.index()];
                self.write_reg(rd, (self.pc + 1) as i64);
                next_pc = t as usize;
            }
            Instr::Custom(slot, rd, rs1, rs2, imm) => {
                let unit = self
                    .custom
                    .get(&slot)
                    .ok_or(IsaError::UnknownCustomUnit { unit: slot })?;
                let v = unit.eval(self.regs[rs1.index()], self.regs[rs2.index()], imm);
                cycles = unit.latency().max(1);
                self.stats.custom_invocations += 1;
                self.write_reg(rd, v);
            }
            Instr::Ei => self.interrupts_enabled = true,
            Instr::Di => self.interrupts_enabled = false,
            Instr::Rti => {
                next_pc = self.epc;
                self.interrupts_enabled = true;
                self.in_interrupt = false;
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
            }
        }

        self.pc = next_pc;
        self.stats.instructions += 1;
        self.stats.cycles += cycles;
        self.owed += cycles;
        // Interrupt sampling happens between instructions, on devices
        // caught up to this one's end. It stays per instruction: an armed
        // `FaultySlave` draws randomness on every sample.
        if !self.halted && self.interrupts_enabled && !self.in_interrupt {
            self.pay();
            if self.bus.as_ref().is_some_and(SystemBus::irq_pending) {
                let Some(ivec) = self.program.ivec else {
                    return Err(IsaError::NoInterruptVector);
                };
                self.epc = self.pc;
                self.pc = ivec;
                self.interrupts_enabled = false;
                self.in_interrupt = true;
                self.stats.irqs_taken += 1;
                // Interrupt entry overhead. It is real time: devices must
                // see it too, or every taken interrupt silently skews the
                // CPU clock 4 cycles ahead of the bus clock.
                self.stats.cycles += 4;
                self.owed += 4;
                if self.tracer.is_on() {
                    self.tracer.instant(
                        self.track,
                        "irq",
                        self.stats.cycles,
                        &[
                            ("vector", Arg::from(ivec as u64)),
                            ("epc", Arg::from(self.epc as u64)),
                        ],
                    );
                }
            }
        }
        if self.tracer.is_on()
            && (self.halted || self.stats.instructions.is_multiple_of(TRACE_SAMPLE_INSTRS))
        {
            self.tracer.counter(
                self.track,
                "instructions",
                self.stats.cycles,
                self.stats.instructions,
            );
        }
        Ok(!self.halted)
    }

    fn effective(&self, base: Reg, imm: i16) -> u64 {
        (self.regs[base.index()].wrapping_add(i64::from(imm))) as u64
    }

    #[inline]
    fn note_watch(&mut self, addr: u64, write: bool) {
        if !self.debug.watchpoints.is_empty() && self.debug.watchpoints.contains(&addr) {
            self.debug.watch_hit = Some((addr, write));
        }
    }

    /// Sets the program counter (debugger jumps, reverse execution).
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
    }

    /// Installs a breakpoint at an instruction index. Execution under
    /// [`Cpu::run_debug`] stops before executing a breakpointed
    /// instruction.
    pub fn add_breakpoint(&mut self, pc: usize) {
        self.debug.breakpoints.insert(pc);
    }

    /// Removes a breakpoint; removing an absent one is a no-op.
    pub fn remove_breakpoint(&mut self, pc: usize) {
        self.debug.breakpoints.remove(&pc);
    }

    /// Installs a watchpoint on a data address (internal memory or a
    /// [`MMIO_BASE`]-relative bus address given absolute). Loads and
    /// stores that touch it stop a [`Cpu::run_debug`] loop.
    pub fn add_watchpoint(&mut self, addr: u64) {
        self.debug.watchpoints.insert(addr);
    }

    /// Removes a watchpoint; removing an absent one is a no-op.
    pub fn remove_watchpoint(&mut self, addr: u64) {
        self.debug.watchpoints.remove(&addr);
    }

    /// Executes exactly one instruction under debugger control,
    /// reporting why it stopped. Ignores breakpoints at the current pc
    /// (the standard way to resume *past* a breakpoint is one step,
    /// then continue).
    ///
    /// # Errors
    ///
    /// Propagates any fault from [`Cpu::step`].
    pub fn step_debug(&mut self) -> Result<DebugStop, IsaError> {
        if self.halted {
            return Ok(DebugStop::Halted);
        }
        self.debug.watch_hit = None;
        let running = self.step()?;
        if let Some((addr, write)) = self.debug.watch_hit.take() {
            return Ok(DebugStop::Watchpoint { addr, write });
        }
        if running {
            Ok(DebugStop::Step)
        } else {
            Ok(DebugStop::Halted)
        }
    }

    /// Runs until `halt`, the cycle horizon `t`, a breakpoint, or a
    /// watchpoint — the debugger's `continue` within one co-simulation
    /// horizon. A breakpoint at the *current* pc stops immediately
    /// without executing; callers resume past it with
    /// [`Cpu::step_debug`] first.
    ///
    /// # Errors
    ///
    /// Propagates any fault from [`Cpu::step`].
    pub fn run_debug(&mut self, t: u64) -> Result<DebugStop, IsaError> {
        while self.stats.cycles < t {
            if self.halted {
                return Ok(DebugStop::Halted);
            }
            if self.debug.breakpoints.contains(&self.pc) {
                return Ok(DebugStop::Breakpoint { pc: self.pc });
            }
            match self.step_debug()? {
                DebugStop::Step => {}
                stop => return Ok(stop),
            }
        }
        Ok(DebugStop::Horizon)
    }

    /// Reads `len` bytes of internal data memory (debugger `m` packets).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::MemFault`] if the range leaves memory.
    pub fn read_mem_bytes(&self, addr: u64, len: usize) -> Result<&[u8], IsaError> {
        let start = addr as usize;
        let end = start.checked_add(len).ok_or(IsaError::MemFault { addr })?;
        self.mem.get(start..end).ok_or(IsaError::MemFault { addr })
    }

    /// Writes raw bytes into internal data memory (debugger `M`
    /// packets).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::MemFault`] if the range leaves memory.
    pub fn write_mem_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), IsaError> {
        let start = addr as usize;
        let end = start
            .checked_add(bytes.len())
            .ok_or(IsaError::MemFault { addr })?;
        self.mem
            .get_mut(start..end)
            .ok_or(IsaError::MemFault { addr })?
            .copy_from_slice(bytes);
        Ok(())
    }

    /// Serializes the architectural state: registers, pc, data memory,
    /// interrupt machinery, halt flag, statistics, and the attached
    /// bus's mutable state as a nested blob. The program, custom units,
    /// tracer, and debugger session state are static or observational
    /// and are not serialized.
    pub fn save_state(&self, w: &mut StateWriter) {
        debug_assert_eq!(self.owed, 0, "devices lag the CPU between public calls");
        for &r in &self.regs {
            w.i64(r);
        }
        w.usize(self.pc);
        w.bytes(&self.mem);
        w.bool(self.interrupts_enabled);
        w.bool(self.in_interrupt);
        w.usize(self.epc);
        w.bool(self.halted);
        w.u64(self.stats.instructions);
        w.u64(self.stats.cycles);
        w.u64(self.stats.bus_cycles);
        w.u64(self.stats.irqs_taken);
        w.u64(self.stats.custom_invocations);
        match &self.bus {
            Some(bus) => {
                w.bool(true);
                w.nested(|w| bus.save_state(w));
            }
            None => w.bool(false),
        }
    }

    /// Restores state saved by [`Cpu::save_state`] into a structurally
    /// identical CPU (same program, memory size, and bus topology).
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncation or shape mismatch
    /// (memory size or bus presence differs).
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        for i in 0..NUM_REGS {
            self.regs[i] = r.i64()?;
        }
        self.pc = r.usize()?;
        let mem = r.bytes()?;
        if mem.len() != self.mem.len() {
            return Err(RtlError::State {
                reason: format!(
                    "memory size {} does not match structure ({})",
                    mem.len(),
                    self.mem.len()
                ),
            });
        }
        self.mem.copy_from_slice(mem);
        self.interrupts_enabled = r.bool()?;
        self.in_interrupt = r.bool()?;
        self.epc = r.usize()?;
        self.halted = r.bool()?;
        self.stats.instructions = r.u64()?;
        self.stats.cycles = r.u64()?;
        self.stats.bus_cycles = r.u64()?;
        self.stats.irqs_taken = r.u64()?;
        self.stats.custom_invocations = r.u64()?;
        let has_bus = r.bool()?;
        if has_bus != self.bus.is_some() {
            return Err(RtlError::State {
                reason: "bus presence does not match structure".into(),
            });
        }
        if let Some(bus) = self.bus.as_mut() {
            let blob = r.bytes()?;
            let mut br = StateReader::new(blob);
            bus.restore_state(&mut br)?;
            br.finish()?;
        }
        Ok(())
    }

    /// Runs until `halt` or the cycle budget expires; returns the final
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Timeout`] when the budget expires, or any fault
    /// from [`Cpu::step`].
    pub fn run(&mut self, max_cycles: u64) -> Result<CpuStats, IsaError> {
        self.run_until(max_cycles)?;
        if self.halted {
            Ok(self.stats)
        } else {
            Err(IsaError::Timeout {
                cycles: self.stats.cycles,
            })
        }
    }

    /// Runs until `halt` or the cycle counter reaches `t`, whichever comes
    /// first — the co-simulation hot path. Unlike [`Cpu::run`], reaching
    /// `t` is not an error: a co-simulation horizon is a rendezvous point,
    /// not a timeout. The last instruction may overshoot `t` by its own
    /// latency (instructions are atomic).
    ///
    /// # Errors
    ///
    /// Propagates any fault from [`Cpu::step`]; devices have caught up
    /// to the fault either way.
    pub fn run_until(&mut self, t: u64) -> Result<CpuStats, IsaError> {
        // Devices catch up inside the loop only where the program can
        // observe them, and once here, so callers see them current.
        let mut running = Ok(true);
        while self.stats.cycles < t && matches!(running, Ok(true)) {
            running = self.step_unpaid();
        }
        self.pay();
        running.map(|_| self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use codesign_rtl::bus::{timer_regs, uart_regs, BusSlave, BusTiming, SystemBus, Timer, Uart};

    fn run_src(src: &str) -> Cpu {
        let p = assemble(src).unwrap();
        let mut cpu = Cpu::new(4096);
        cpu.load_program(&p);
        cpu.run(1_000_000).unwrap();
        cpu
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10 into r2
        let cpu = run_src(
            "li r1, 10\n\
             li r2, 0\n\
             loop: add r2, r2, r1\n\
             addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        );
        assert_eq!(cpu.reg(Reg::new(2)), 55);
    }

    #[test]
    fn memory_roundtrip_via_instructions() {
        let cpu = run_src(
            "li r1, 123456789\n\
             sd r1, r0, 16\n\
             ld r2, r0, 16\n\
             halt\n",
        );
        assert_eq!(cpu.reg(Reg::new(2)), 123_456_789);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let cpu = run_src("li r0, 99\nadd r1, r0, r0\nhalt\n");
        assert_eq!(cpu.reg(Reg::ZERO), 0);
        assert_eq!(cpu.reg(Reg::new(1)), 0);
    }

    #[test]
    fn cmovnz_selects() {
        let cpu = run_src(
            "li r1, 1\nli r2, 10\nli r3, 20\n\
             add r4, r3, r0\n\
             cmovnz r4, r1, r2\n\
             halt\n",
        );
        assert_eq!(cpu.reg(Reg::new(4)), 10);
        let cpu = run_src(
            "li r1, 0\nli r2, 10\nli r3, 20\n\
             add r4, r3, r0\n\
             cmovnz r4, r1, r2\n\
             halt\n",
        );
        assert_eq!(cpu.reg(Reg::new(4)), 20);
    }

    #[test]
    fn divide_by_zero_traps() {
        let p = assemble("li r1, 5\ndiv r2, r1, r0\nhalt\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        assert!(matches!(cpu.run(1000), Err(IsaError::DivideByZero { .. })));
    }

    #[test]
    fn subroutine_call_and_return() {
        let cpu = run_src(
            "jal r15, sub\n\
             halt\n\
             sub: li r1, 77\n\
             jalr r0, r15\n",
        );
        assert_eq!(cpu.reg(Reg::new(1)), 77);
        assert!(cpu.halted());
    }

    #[test]
    fn timeout_reported() {
        let p = assemble("loop: jal r0, loop\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        assert!(matches!(cpu.run(100), Err(IsaError::Timeout { .. })));
    }

    #[test]
    fn pc_fault_off_end() {
        let p = assemble("nop\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        cpu.step().unwrap();
        assert!(matches!(cpu.step(), Err(IsaError::PcFault { pc: 1 })));
    }

    #[test]
    fn misaligned_access_faults() {
        let p = assemble("li r1, 3\nld r2, r1, 0\nhalt\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        assert!(matches!(
            cpu.run(1000),
            Err(IsaError::Misaligned { addr: 3, align: 8 })
        ));
    }

    #[test]
    fn mmio_write_reaches_uart_and_costs_bus_cycles() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x100, 0x10, Box::new(Uart::new())).unwrap();
        let p = assemble(&format!(
            "li r1, {}\n\
             li r2, 72\n\
             sw r2, r1, {}\n\
             halt\n",
            MMIO_BASE + 0x100,
            uart_regs::TX,
        ))
        .unwrap();
        let mut cpu = Cpu::new(64);
        cpu.attach_bus(bus);
        cpu.load_program(&p);
        cpu.run(10_000).unwrap();
        assert!(cpu.stats().bus_cycles > 0);
        let map_stats = cpu.bus().unwrap().stats();
        assert_eq!(map_stats.writes, 1);
    }

    #[test]
    fn mmio_without_bus_faults() {
        let p = assemble(&format!("li r1, {MMIO_BASE}\nlw r2, r1, 0\nhalt\n")).unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        assert!(matches!(cpu.run(1000), Err(IsaError::MemFault { .. })));
    }

    #[test]
    fn sd_to_mmio_region_faults() {
        let p = assemble(&format!("li r1, {MMIO_BASE}\nsd r1, r1, 0\nhalt\n")).unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        assert!(matches!(cpu.run(1000), Err(IsaError::MemFault { .. })));
    }

    #[test]
    fn timer_interrupt_runs_handler() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x10, Box::new(Timer::new())).unwrap();
        // Program: start timer (load 20, enable+irq), spin; handler
        // stores a flag, acks, and returns; main loop sees flag and halts.
        let src = format!(
            ".vector isr\n\
             li r1, {base}\n\
             li r2, 20\n\
             sw r2, r1, {load}\n\
             li r2, 3\n\
             sw r2, r1, {ctrl}\n\
             ei\n\
             spin: ld r3, r0, 8\n\
             beq r3, r0, spin\n\
             halt\n\
             isr: li r4, 1\n\
             sd r4, r0, 8\n\
             li r5, {base}\n\
             sw r5, r5, {ack}\n\
             rti\n",
            base = MMIO_BASE,
            load = timer_regs::LOAD,
            ctrl = timer_regs::CTRL,
            ack = timer_regs::ACK,
        );
        let p = assemble(&src).unwrap();
        let mut cpu = Cpu::new(256);
        cpu.attach_bus(bus);
        cpu.load_program(&p);
        let stats = cpu.run(100_000).unwrap();
        assert_eq!(stats.irqs_taken, 1);
        assert_eq!(cpu.load_word(8).unwrap(), 1);
    }

    /// A bus slave that does nothing but count how many bus-clock
    /// cycles it has been ticked — ground truth for CPU/bus lockstep.
    #[derive(Debug, Default)]
    struct TickCounter {
        ticks: u64,
    }

    impl BusSlave for TickCounter {
        fn name(&self) -> &str {
            "tick-counter"
        }
        fn read(&mut self, _offset: u32) -> u32 {
            0
        }
        fn write(&mut self, _offset: u32, _value: u32) {}
        fn tick(&mut self) {
            self.ticks += 1;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn interrupt_entry_overhead_ticks_the_bus() {
        // Regression: the 4-cycle interrupt entry overhead was added to
        // `stats.cycles` without ticking the bus, so after every taken
        // IRQ all devices ran 4 cycles behind the CPU clock — visible
        // as a cross-level cycle divergence in the conformance sweep.
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x10, Box::new(Timer::new())).unwrap();
        bus.map(0x100, 0x10, Box::new(TickCounter::default()))
            .unwrap();
        let src = format!(
            ".vector isr\n\
             li r1, {base}\n\
             li r2, 20\n\
             sw r2, r1, {load}\n\
             li r2, 3\n\
             sw r2, r1, {ctrl}\n\
             ei\n\
             spin: ld r3, r0, 8\n\
             beq r3, r0, spin\n\
             halt\n\
             isr: li r4, 1\n\
             sd r4, r0, 8\n\
             li r5, {base}\n\
             sw r5, r5, {ack}\n\
             rti\n",
            base = MMIO_BASE,
            load = timer_regs::LOAD,
            ctrl = timer_regs::CTRL,
            ack = timer_regs::ACK,
        );
        let p = assemble(&src).unwrap();
        let mut cpu = Cpu::new(256);
        cpu.attach_bus(bus);
        cpu.load_program(&p);
        let stats = cpu.run(100_000).unwrap();
        assert_eq!(stats.irqs_taken, 1);
        let counter = cpu.bus().unwrap().device_at::<TickCounter>(0x100).unwrap();
        assert_eq!(
            counter.ticks, stats.cycles,
            "bus clock must match CPU clock across interrupt entry"
        );
    }

    #[test]
    fn devices_are_current_whenever_a_call_returns() {
        // Inside `run_until` devices catch up only when observed; every
        // return — at a horizon, after a step, or on a fault — must
        // leave them at the CPU's clock.
        let p =
            assemble("li r1, 40\nloop: addi r1, r1, -1\nbne r1, r0, loop\ndiv r2, r1, r0\nhalt\n")
                .unwrap();
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x100, 0x10, Box::new(TickCounter::default()))
            .unwrap();
        let mut cpu = Cpu::new(64);
        cpu.attach_bus(bus);
        cpu.load_program(&p);
        let ticks = |cpu: &Cpu| {
            let bus = cpu.bus().unwrap();
            bus.device_at::<TickCounter>(0x100).unwrap().ticks
        };
        for t in [5, 17, 18, 60] {
            cpu.run_until(t).unwrap();
            assert_eq!(ticks(&cpu), cpu.stats().cycles, "horizon {t}");
        }
        cpu.step().unwrap();
        assert_eq!(ticks(&cpu), cpu.stats().cycles, "step");
        assert!(matches!(
            cpu.run(u64::MAX),
            Err(IsaError::DivideByZero { .. })
        ));
        assert_eq!(ticks(&cpu), cpu.stats().cycles, "fault");
    }

    #[test]
    fn interrupt_without_vector_is_an_error() {
        let mut bus = SystemBus::new(BusTiming::default());
        let mut uart = Uart::new();
        uart.inject_rx(1);
        bus.map(0x0, 0x10, Box::new(uart)).unwrap();
        let src = format!(
            "li r1, {base}\n\
             li r2, 1\n\
             sw r2, r1, {en}\n\
             ei\n\
             nop\n\
             halt\n",
            base = MMIO_BASE,
            en = uart_regs::IRQ_ENABLE,
        );
        let p = assemble(&src).unwrap();
        let mut cpu = Cpu::new(64);
        cpu.attach_bus(bus);
        cpu.load_program(&p);
        assert!(matches!(cpu.run(1000), Err(IsaError::NoInterruptVector)));
    }

    #[derive(Debug)]
    struct MacUnit;

    impl CustomUnit for MacUnit {
        fn name(&self) -> &str {
            "mac"
        }
        fn latency(&self) -> u64 {
            2
        }
        fn area_luts(&self) -> u32 {
            150
        }
        fn eval(&self, a: i64, b: i64, imm: i64) -> i64 {
            a.wrapping_mul(b).wrapping_add(imm)
        }
    }

    #[test]
    fn custom_unit_executes_with_its_latency() {
        let p = assemble("li r1, 6\nli r2, 7\ncustom0 r3, r1, r2, 1\nhalt\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.attach_custom_unit(0, Box::new(MacUnit));
        cpu.load_program(&p);
        let stats = cpu.run(1000).unwrap();
        assert_eq!(cpu.reg(Reg::new(3)), 43);
        assert_eq!(stats.custom_invocations, 1);
    }

    #[test]
    fn unattached_custom_unit_faults() {
        let p = assemble("custom5 r1, r2, r3, 0\nhalt\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        assert!(matches!(
            cpu.run(1000),
            Err(IsaError::UnknownCustomUnit { unit: 5 })
        ));
    }

    #[test]
    fn traced_cpu_behaves_identically() {
        let src = format!(
            ".vector isr\n\
             li r1, {base}\n\
             li r2, 20\n\
             sw r2, r1, {load}\n\
             li r2, 3\n\
             sw r2, r1, {ctrl}\n\
             ei\n\
             spin: ld r3, r0, 8\n\
             beq r3, r0, spin\n\
             halt\n\
             isr: li r4, 1\n\
             sd r4, r0, 8\n\
             li r5, {base}\n\
             sw r5, r5, {ack}\n\
             rti\n",
            base = MMIO_BASE,
            load = timer_regs::LOAD,
            ctrl = timer_regs::CTRL,
            ack = timer_regs::ACK,
        );
        let run = |tracer: Option<&Tracer>| {
            let mut bus = SystemBus::new(BusTiming::default());
            bus.map(0x0, 0x10, Box::new(Timer::new())).unwrap();
            let p = assemble(&src).unwrap();
            let mut cpu = Cpu::new(256);
            if let Some(t) = tracer {
                cpu.set_tracer(t, "cpu");
            }
            cpu.attach_bus(bus);
            cpu.load_program(&p);
            cpu.run(100_000).unwrap()
        };
        let plain = run(None);
        let tracer = Tracer::on();
        let traced = run(Some(&tracer));
        assert_eq!(plain, traced);
        // One irq instant plus the halt counter sample, at minimum.
        assert!(tracer.event_count() >= 2);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    fn cycle_accounting_matches_model() {
        let p = assemble("li r1, 2\nmul r2, r1, r1\nhalt\n").unwrap();
        let mut cpu = Cpu::new(64);
        cpu.load_program(&p);
        let stats = cpu.run(1000).unwrap();
        // li = 2, mul = 3, halt = 1
        assert_eq!(stats.cycles, 6);
        assert_eq!(stats.instructions, 3);
    }
}
