//! Golden-fingerprint and state-digest helpers shared by the fault
//! campaign (`codesign-core`), the conformance sweep (`codesign-conform`)
//! and the time-travel debugger's divergence bisection
//! (`codesign-replay`).
//!
//! All three need the same observable: a compact, deterministic summary
//! of "what the system computed" that is insensitive to scheduling skew
//! (a retry backoff shifts engine horizons without changing results) but
//! sensitive to any functional corruption. Keeping one definition here
//! means a fingerprint taken by the campaign is directly comparable to
//! one taken mid-bisection.

use std::fmt::Write as _;

use codesign_isa::cpu::Cpu;
use codesign_trace::hash::Fnv1a;

use crate::adapters::{CpuEngine, FsmdEngine};
use crate::engine::Coordinator;
use crate::ladder::DriverEngine;
use crate::message::MessageEngine;

/// Fingerprints a finished coordination: global finish time plus every
/// engine's *functional* end state (message reports, FSMD outputs, CPU
/// stats, driver-model progress). Engine local clocks are deliberately
/// excluded — a retry backoff shifts the horizon an engine last saw
/// without changing what it computed, and that scheduling skew must not
/// read as corruption.
#[must_use]
pub fn coordinator_fingerprint(coord: &Coordinator, time: u64) -> String {
    let mut fp = String::new();
    let _ = write!(fp, "t={time};");
    for engine in coord.engines() {
        let _ = write!(fp, "{}:", engine.name());
        if let Some(m) = engine.as_any().downcast_ref::<MessageEngine>() {
            let _ = write!(fp, "{:?};", m.report());
        } else if let Some(f) = engine.as_any().downcast_ref::<FsmdEngine>() {
            let _ = write!(fp, "{:?};", f.sim().outputs());
        } else if let Some(c) = engine.as_any().downcast_ref::<CpuEngine>() {
            let flag = c.cpu().load_word(8).unwrap_or(-1);
            let _ = write!(fp, "{:?},flag={flag};", c.cpu().stats());
        } else if let Some(d) = engine.as_any().downcast_ref::<DriverEngine>() {
            let _ = write!(
                fp,
                "iter={},events={},cycles={};",
                d.iterations_done(),
                d.events(),
                d.simulated_cycles()
            );
        } else {
            fp.push(';');
        }
    }
    fp
}

/// FNV-1a over the CPU's final architectural state: registers then
/// memory. This is the conformance sweep's cross-level digest; the
/// debugger reuses it as a cheap per-checkpoint comparator.
#[must_use]
pub fn cpu_state_digest(cpu: &Cpu) -> u64 {
    let mut h = Fnv1a::new();
    for r in cpu.regs() {
        h.write(&r.to_le_bytes());
    }
    h.write(cpu.mem());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::LadderConfig;

    #[test]
    fn fingerprint_covers_every_engine_kind() {
        let mut coord = Coordinator::lockstep(16);
        let spec = LadderConfig::default().spec().unwrap();
        coord.add_engine(Box::new(DriverEngine::new("drv", &spec)));
        let stats = coord.run(u64::MAX).unwrap();
        let fp = coordinator_fingerprint(&coord, stats.time);
        assert!(fp.starts_with(&format!("t={};", stats.time)), "{fp}");
        assert!(fp.contains("drv:iter=16,"), "{fp}");
    }

    #[test]
    fn digest_is_sensitive_to_registers_and_memory() {
        let mut cpu = Cpu::new(64);
        let base = cpu_state_digest(&cpu);
        let mut other = Cpu::new(64);
        other.set_reg(codesign_isa::instr::Reg::new(3), 7);
        assert_ne!(cpu_state_digest(&other), base);
        cpu.store_word(8, 1).unwrap();
        assert_ne!(cpu_state_digest(&cpu), base);
    }
}
