//! A GDB Remote Serial Protocol server over the CR32 ISS, with reverse
//! execution backed by the checkpoint store.
//!
//! [`DebugSession`] drives a co-simulation in debugger control: the
//! coordinator's watchdog is disabled (a parked CPU would otherwise read
//! as wedged), the [`CpuEngine`] runs in debug mode, and a breakpoint or
//! watchpoint hit parks the CPU mid-horizon while the other engines
//! hold at the round boundary. Forward execution records checkpoints at
//! the session cadence; `reverse-step` / `reverse-continue` restore the
//! nearest checkpoint and re-execute forward — deterministic, so the
//! state reached backwards is bit-identical to the state that was there
//! the first time.
//!
//! [`serve`] speaks the RSP subset documented in DESIGN.md §16:
//! `qSupported` (advertising `ReverseStep+;ReverseContinue+`), `?`,
//! `g`/`G`, `p`/`P`, `m`/`M`, `c`, `s`, `Z0`/`z0` (software
//! breakpoints on instruction indices), `Z2`/`z2` (write watchpoints on
//! bus/memory addresses), `bs`/`bc`, `vCont`, `D`, and `k`. Granularity
//! note: forward/reverse stepping is per *instruction*; after a reverse
//! step the other engines hold at the anchor checkpoint's round until
//! the next `continue` re-synchronizes them.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use codesign_fault::SharedInjector;
use codesign_isa::cpu::{Cpu, DebugStop};
use codesign_isa::instr::{Reg, NUM_REGS};
use codesign_sim::adapters::CpuEngine;
use codesign_sim::engine::Coordinator;
use codesign_sim::error::SimError;

use crate::session::ReplaySession;

/// Why execution handed control back to the debugger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A software breakpoint (the CPU is parked *at* the breakpointed
    /// instruction, not past it).
    Breakpoint {
        /// The breakpointed instruction index.
        pc: usize,
    },
    /// A watchpoint fired (the access has executed).
    Watchpoint {
        /// The watched address.
        addr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// The program halted.
    Halted,
    /// One instruction retired.
    Step,
    /// The round budget ran out without a debug event.
    Horizon,
    /// Reverse execution reached the beginning of the recorded history.
    ReplayEdge,
}

/// A debugger-controlled co-simulation over a [`ReplaySession`].
#[derive(Debug)]
pub struct DebugSession {
    session: ReplaySession,
    cpu_idx: usize,
    /// Rounds one `continue` may execute before reporting [`StopReason::Horizon`].
    max_rounds: u64,
    /// Mirror of the CPU's breakpoint set (the debugger needs to test
    /// membership; the CPU only exposes add/remove).
    breakpoints: BTreeSet<usize>,
    /// Instruction counts at recorded checkpoints, for reverse anchors.
    instrs_at: BTreeMap<u64, u64>,
}

impl DebugSession {
    /// Builds a debug session over a freshly built coordinator whose
    /// engines include exactly one [`CpuEngine`] (possibly behind a
    /// fault wrapper). Disables the watchdog and switches the CPU into
    /// debug mode.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hardware`] if no engine downcasts to a
    /// [`CpuEngine`] or snapshots are unsupported.
    pub fn new(
        mut coord: Coordinator,
        injector: Option<SharedInjector>,
        cadence: u64,
    ) -> Result<Self, SimError> {
        coord.set_watchdog(None);
        let cpu_idx = coord
            .engines()
            .iter()
            .position(|e| e.as_any().is::<CpuEngine>())
            .ok_or_else(|| {
                SimError::Hardware(codesign_rtl::RtlError::State {
                    reason: "debug session needs a CpuEngine".into(),
                })
            })?;
        let mut session = ReplaySession::new(coord, injector, cadence)?;
        session.coordinator_mut().engines_mut()[cpu_idx]
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<CpuEngine>())
            .expect("position checked above")
            .set_debug_mode(true);
        let mut dbg = DebugSession {
            session,
            cpu_idx,
            max_rounds: 1_000_000,
            breakpoints: BTreeSet::new(),
            instrs_at: BTreeMap::new(),
        };
        dbg.instrs_at.insert(0, dbg.cpu().stats().instructions);
        Ok(dbg)
    }

    /// Caps how many rounds one `continue` may run.
    pub fn set_max_rounds(&mut self, rounds: u64) {
        self.max_rounds = rounds.max(1);
    }

    /// The debugged CPU.
    #[must_use]
    pub fn cpu(&self) -> &Cpu {
        self.session.coordinator().engines()[self.cpu_idx]
            .as_any()
            .downcast_ref::<CpuEngine>()
            .expect("index pinned at construction")
            .cpu()
    }

    fn engine_mut(&mut self) -> &mut CpuEngine {
        self.session.coordinator_mut().engines_mut()[self.cpu_idx]
            .as_any_mut()
            .and_then(|a| a.downcast_mut::<CpuEngine>())
            .expect("index pinned at construction")
    }

    /// Mutable access to the debugged CPU (register/memory writes).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        self.engine_mut().cpu_mut()
    }

    /// The underlying replay session (checkpoint store, fingerprints).
    #[must_use]
    pub fn session(&self) -> &ReplaySession {
        &self.session
    }

    /// Sets a software breakpoint on an instruction index.
    pub fn add_breakpoint(&mut self, pc: usize) {
        self.breakpoints.insert(pc);
        self.cpu_mut().add_breakpoint(pc);
    }

    /// Clears a software breakpoint.
    pub fn remove_breakpoint(&mut self, pc: usize) {
        self.breakpoints.remove(&pc);
        self.cpu_mut().remove_breakpoint(pc);
    }

    /// Sets a write watchpoint on a bus/memory address.
    pub fn add_watchpoint(&mut self, addr: u64) {
        self.cpu_mut().add_watchpoint(addr);
    }

    /// Clears a write watchpoint.
    pub fn remove_watchpoint(&mut self, addr: u64) {
        self.cpu_mut().remove_watchpoint(addr);
    }

    fn map_stop(stop: DebugStop) -> StopReason {
        match stop {
            DebugStop::Halted => StopReason::Halted,
            DebugStop::Breakpoint { pc } => StopReason::Breakpoint { pc },
            DebugStop::Watchpoint { addr, write } => StopReason::Watchpoint { addr, write },
            DebugStop::Step => StopReason::Step,
            DebugStop::Horizon => StopReason::Horizon,
        }
    }

    fn note_checkpoint(&mut self) {
        let step = self.session.current_step();
        if self.session.store().contains(step) {
            let instrs = self.cpu().stats().instructions;
            self.instrs_at.insert(step, instrs);
        }
    }

    /// Retires one instruction (stepping *into* a breakpointed
    /// instruction is allowed, as GDB expects).
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn step(&mut self) -> Result<StopReason, SimError> {
        let stop = self.cpu_mut().step_debug()?;
        Ok(Self::map_stop(stop))
    }

    /// Resumes execution until a breakpoint/watchpoint fires, the
    /// program halts, or the round budget runs out. Checkpoints are
    /// recorded at the session cadence as rounds complete.
    ///
    /// # Errors
    ///
    /// Propagates engine and coordinator errors.
    pub fn cont(&mut self) -> Result<StopReason, SimError> {
        // Resume-past-breakpoint protocol: if the CPU is parked at a
        // breakpointed pc, retire that one instruction first — otherwise
        // the next round would immediately re-report the same stop.
        if !self.cpu().halted() && self.breakpoints.contains(&self.cpu().pc()) {
            match self.step()? {
                StopReason::Step | StopReason::Breakpoint { .. } => {}
                stop => return Ok(stop),
            }
        }
        for _ in 0..self.max_rounds {
            if !self.session.step_round()? {
                return Ok(StopReason::Halted);
            }
            self.note_checkpoint();
            if let Some(stop) = self.engine_mut().take_stop() {
                return Ok(Self::map_stop(stop));
            }
        }
        Ok(StopReason::Horizon)
    }

    /// Replays deterministically until the CPU has retired exactly
    /// `target` instructions, starting from the best checkpoint anchor.
    fn replay_to_instr(&mut self, target: u64) -> Result<(), SimError> {
        let anchor = self
            .instrs_at
            .iter()
            .rev()
            .find(|&(_, &n)| n <= target)
            .map_or(0, |(&s, _)| s);
        self.session.restore_checkpoint(anchor)?;
        while self.cpu().stats().instructions < target && !self.cpu().halted() {
            // Stops are ignored during replay: the debugger is *moving*,
            // not running.
            let _ = self.cpu_mut().step_debug()?;
        }
        Ok(())
    }

    /// Steps one instruction backwards (restore nearest checkpoint +
    /// forward replay). At instruction 0 this reports
    /// [`StopReason::ReplayEdge`].
    ///
    /// # Errors
    ///
    /// Propagates restore and replay errors.
    pub fn reverse_step(&mut self) -> Result<StopReason, SimError> {
        let cur = self.cpu().stats().instructions;
        if cur == 0 {
            return Ok(StopReason::ReplayEdge);
        }
        self.replay_to_instr(cur - 1)?;
        Ok(StopReason::Step)
    }

    /// Runs backwards to the most recent earlier state whose pc sits at
    /// a breakpoint; without one, to the beginning of recorded history.
    ///
    /// # Errors
    ///
    /// Propagates restore and replay errors.
    pub fn reverse_cont(&mut self) -> Result<StopReason, SimError> {
        let cur = self.cpu().stats().instructions;
        if cur == 0 {
            return Ok(StopReason::ReplayEdge);
        }
        // Pass 1: scan [0, cur) from the beginning, remembering the last
        // state whose pc is breakpointed.
        self.session.restore_checkpoint(0)?;
        let mut hit = None;
        loop {
            let n = self.cpu().stats().instructions;
            if self.breakpoints.contains(&self.cpu().pc()) && n < cur {
                hit = Some(n);
            }
            if n + 1 >= cur || self.cpu().halted() {
                break;
            }
            let _ = self.cpu_mut().step_debug()?;
        }
        // Pass 2: position exactly there (or at the replay edge).
        match hit {
            Some(n) => {
                self.replay_to_instr(n)?;
                let pc = self.cpu().pc();
                Ok(StopReason::Breakpoint { pc })
            }
            None => {
                self.replay_to_instr(0)?;
                Ok(StopReason::ReplayEdge)
            }
        }
    }

    /// All GDB-visible registers: the 16 general registers then the pc.
    #[must_use]
    pub fn reg_block(&self) -> Vec<u64> {
        let cpu = self.cpu();
        let mut out: Vec<u64> = cpu.regs().iter().map(|&r| r as u64).collect();
        out.push(cpu.pc() as u64);
        out
    }

    /// Writes one GDB-visible register (`NUM_REGS` is the pc).
    pub fn write_reg(&mut self, idx: usize, value: u64) {
        if idx < NUM_REGS {
            self.cpu_mut().set_reg(Reg::new(idx as u8), value as i64);
        } else if idx == NUM_REGS {
            self.cpu_mut().set_pc(value as usize);
        }
    }
}

/// Number of GDB-visible registers: 16 general + pc.
pub const GDB_REGS: usize = NUM_REGS + 1;

/// Largest packet payload the stub accepts, in bytes: advertised as
/// `PacketSize` (hex) in the `qSupported` reply, and the most the packet
/// reader ever holds.
const PACKET_SIZE: usize = 0x4000;

fn checksum(payload: &[u8]) -> u8 {
    payload.iter().fold(0u8, |a, &b| a.wrapping_add(b))
}

fn write_packet(stream: &mut TcpStream, payload: &str) -> std::io::Result<()> {
    let frame = format!("${payload}#{:02x}", checksum(payload.as_bytes()));
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// One framed packet from the client.
#[derive(Debug)]
enum Packet {
    /// A checked payload within [`PACKET_SIZE`].
    Command(String),
    /// The two digits after `#` were not hex or not the payload's sum.
    BadChecksum,
    /// A checked payload longer than [`PACKET_SIZE`]; its bytes past the
    /// cap were read and dropped.
    TooLong,
}

/// Reads one `$...#xx` packet (acks and interrupts are skipped), holding
/// at most [`PACKET_SIZE`] payload bytes. Returns `None` on EOF.
fn read_packet(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<Packet>> {
    let mut byte = [0u8; 1];
    loop {
        if reader.read(&mut byte)? == 0 {
            return Ok(None);
        }
        // Acks, nacks, and ^C interrupts carry no payload we act on.
        if byte[0] == b'$' {
            break;
        }
    }
    let mut payload = Vec::new();
    let mut sum = 0u8;
    let mut too_long = false;
    loop {
        if reader.read(&mut byte)? == 0 {
            return Ok(None);
        }
        if byte[0] == b'#' {
            break;
        }
        sum = sum.wrapping_add(byte[0]);
        if payload.len() < PACKET_SIZE {
            payload.push(byte[0]);
        } else {
            too_long = true;
        }
    }
    let mut ck = [0u8; 2];
    reader.read_exact(&mut ck)?;
    let sent = std::str::from_utf8(&ck)
        .ok()
        .and_then(|digits| u8::from_str_radix(digits, 16).ok());
    Ok(Some(if sent != Some(sum) {
        Packet::BadChecksum
    } else if too_long {
        Packet::TooLong
    } else {
        Packet::Command(String::from_utf8_lossy(&payload).into_owned())
    }))
}

fn stop_reply(reason: StopReason) -> String {
    match reason {
        StopReason::Halted => "W00".to_string(),
        StopReason::Watchpoint { addr, .. } => format!("T05watch:{addr:x};"),
        StopReason::ReplayEdge => "T05replaylog:begin;".to_string(),
        StopReason::Breakpoint { .. } | StopReason::Step | StopReason::Horizon => "S05".to_string(),
    }
}

fn hex_u64_le(v: u64) -> String {
    v.to_le_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

fn parse_hex_u64_le(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    let mut bytes = [0u8; 8];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        bytes[i] = u8::from_str_radix(std::str::from_utf8(chunk).ok()?, 16).ok()?;
    }
    Some(u64::from_le_bytes(bytes))
}

fn handle(dbg: &mut DebugSession, cmd: &str) -> Result<Option<String>, SimError> {
    let reply = if cmd.starts_with("qSupported") {
        format!("PacketSize={PACKET_SIZE:x};ReverseStep+;ReverseContinue+;swbreak+")
    } else if cmd == "?" {
        "S05".to_string()
    } else if cmd == "g" {
        dbg.reg_block().iter().map(|&v| hex_u64_le(v)).collect()
    } else if let Some(rest) = cmd.strip_prefix('G') {
        for (i, chunk) in rest.as_bytes().chunks(16).enumerate().take(GDB_REGS) {
            if let Some(v) = parse_hex_u64_le(std::str::from_utf8(chunk).unwrap_or("")) {
                dbg.write_reg(i, v);
            }
        }
        "OK".to_string()
    } else if let Some(rest) = cmd.strip_prefix('p') {
        match usize::from_str_radix(rest, 16) {
            Ok(i) if i < GDB_REGS => hex_u64_le(dbg.reg_block()[i]),
            _ => "E01".to_string(),
        }
    } else if let Some(rest) = cmd.strip_prefix('P') {
        let parsed = rest.split_once('=').and_then(|(idx, val)| {
            Some((usize::from_str_radix(idx, 16).ok()?, parse_hex_u64_le(val)?))
        });
        match parsed {
            Some((i, v)) if i < GDB_REGS => {
                dbg.write_reg(i, v);
                "OK".to_string()
            }
            _ => "E01".to_string(),
        }
    } else if let Some(rest) = cmd.strip_prefix('m') {
        let parsed = rest.split_once(',').and_then(|(a, l)| {
            Some((
                u64::from_str_radix(a, 16).ok()?,
                usize::from_str_radix(l, 16).ok()?,
            ))
        });
        match parsed {
            Some((addr, len)) => match dbg.cpu().read_mem_bytes(addr, len) {
                Ok(bytes) => bytes.iter().map(|b| format!("{b:02x}")).collect(),
                Err(_) => "E01".to_string(),
            },
            None => "E01".to_string(),
        }
    } else if let Some(rest) = cmd.strip_prefix('M') {
        let parsed = rest.split_once(':').and_then(|(spec, data)| {
            let (a, l) = spec.split_once(',')?;
            let addr = u64::from_str_radix(a, 16).ok()?;
            let len = usize::from_str_radix(l, 16).ok()?;
            if Some(data.len()) != len.checked_mul(2) {
                return None;
            }
            let bytes: Option<Vec<u8>> = data
                .as_bytes()
                .chunks(2)
                .map(|c| u8::from_str_radix(std::str::from_utf8(c).ok()?, 16).ok())
                .collect();
            Some((addr, bytes?))
        });
        match parsed {
            Some((addr, bytes)) if dbg.cpu_mut().write_mem_bytes(addr, &bytes).is_ok() => {
                "OK".to_string()
            }
            _ => "E01".to_string(),
        }
    } else if cmd == "c" || cmd == "vCont;c" {
        stop_reply(dbg.cont()?)
    } else if cmd == "s" || cmd == "vCont;s" {
        stop_reply(dbg.step()?)
    } else if cmd == "bs" {
        stop_reply(dbg.reverse_step()?)
    } else if cmd == "bc" {
        stop_reply(dbg.reverse_cont()?)
    } else if cmd == "vCont?" {
        "vCont;c;s".to_string()
    } else if let Some(rest) = cmd.strip_prefix("Z0,") {
        match rest
            .split(',')
            .next()
            .and_then(|a| usize::from_str_radix(a, 16).ok())
        {
            Some(pc) => {
                dbg.add_breakpoint(pc);
                "OK".to_string()
            }
            None => "E01".to_string(),
        }
    } else if let Some(rest) = cmd.strip_prefix("z0,") {
        match rest
            .split(',')
            .next()
            .and_then(|a| usize::from_str_radix(a, 16).ok())
        {
            Some(pc) => {
                dbg.remove_breakpoint(pc);
                "OK".to_string()
            }
            None => "E01".to_string(),
        }
    } else if let Some(rest) = cmd.strip_prefix("Z2,") {
        match rest
            .split(',')
            .next()
            .and_then(|a| u64::from_str_radix(a, 16).ok())
        {
            Some(addr) => {
                dbg.add_watchpoint(addr);
                "OK".to_string()
            }
            None => "E01".to_string(),
        }
    } else if let Some(rest) = cmd.strip_prefix("z2,") {
        match rest
            .split(',')
            .next()
            .and_then(|a| u64::from_str_radix(a, 16).ok())
        {
            Some(addr) => {
                dbg.remove_watchpoint(addr);
                "OK".to_string()
            }
            None => "E01".to_string(),
        }
    } else if cmd == "D" {
        return Ok(None); // detach: ack handled by the caller
    } else if cmd == "k" {
        return Ok(None);
    } else {
        // Unsupported packet: the empty reply, per the protocol.
        String::new()
    };
    Ok(Some(reply))
}

/// Serves one GDB client connection on `listener`, then returns. Replies
/// `E01`-style errors for malformed and over-long packets, asks for a
/// retransmit (`-`) on a bad checksum without running the command, and
/// closes on `D`/`k`.
///
/// # Errors
///
/// Propagates socket I/O errors; simulation errors are reported to the
/// client as `E02` and end the session.
pub fn serve(listener: &TcpListener, mut dbg: DebugSession) -> std::io::Result<()> {
    let (stream, _) = listener.accept()?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    while let Some(packet) = read_packet(&mut reader)? {
        let cmd = match packet {
            Packet::Command(cmd) => cmd,
            Packet::BadChecksum => {
                writer.write_all(b"-")?;
                continue;
            }
            Packet::TooLong => {
                writer.write_all(b"+")?;
                write_packet(&mut writer, "E01")?;
                continue;
            }
        };
        // Ack receipt, then reply.
        writer.write_all(b"+")?;
        match handle(&mut dbg, &cmd) {
            Ok(Some(reply)) => write_packet(&mut writer, &reply)?,
            Ok(None) => {
                if cmd == "D" {
                    write_packet(&mut writer, "OK")?;
                }
                break;
            }
            Err(e) => {
                let _ = e;
                write_packet(&mut writer, "E02")?;
                break;
            }
        }
    }
    Ok(())
}
