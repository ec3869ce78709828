//! Realizes one generated [`SystemSpec`] at all four Figure 3 levels.
//!
//! The realization — the CR32 program on the pin- and register-level
//! buses, the driver model, the message-level process network — is
//! [`codesign_sim::ladder::realize_system`], the same one the E3 ladder
//! uses. This module only maps its failures into [`ConformError`].

use codesign_ir::workload::sysgen::SystemSpec;
use codesign_sim::ladder::{realize_system, SystemRun};
use codesign_sim::trace::Tracer;

use crate::ConformError;

/// Realizes `spec` at all four levels through
/// [`codesign_sim::ladder::realize_system`], untraced.
///
/// # Errors
///
/// Propagates spec, assembler, bus, ISS, and message-kernel failures; a
/// failure *is* a conformance finding (the generator only emits specs
/// that pass [`SystemSpec::validate`]).
pub fn run_system(spec: &SystemSpec) -> Result<SystemRun, ConformError> {
    Ok(realize_system(spec, &Tracer::off())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::workload::sysgen::{random_system, DeviceKind, SysConfig};
    use codesign_isa::asm::assemble;
    use codesign_sim::ladder::system_program;

    #[test]
    fn default_system_runs_at_all_levels() {
        let spec = random_system(&SysConfig::default()).unwrap();
        let run = run_system(&spec).unwrap();
        for level in run.levels() {
            assert!(level.cycles > 0, "{:?}", level.level);
            assert!(level.kernel_events > 0, "{:?}", level.level);
        }
        assert!(
            run.pin.cycles >= run.register.cycles,
            "pin sees wait states"
        );
    }

    #[test]
    fn program_is_deterministic_and_assembles() {
        let spec = random_system(&SysConfig::default()).unwrap();
        let a = system_program(&spec);
        assert_eq!(a, system_program(&spec));
        assemble(&a).unwrap();
    }

    #[test]
    fn irq_checksum_reaches_the_digest() {
        // Two specs differing only in UART payload must digest
        // differently: the IRQ bytes are architected state.
        let spec = random_system(&SysConfig {
            max_irq_bytes: 6,
            seed: 11,
            ..SysConfig::default()
        })
        .unwrap();
        assert!(
            spec.irq_count() > 0,
            "seed 11 wires a uart; regenerate the test seed"
        );
        let mut altered = spec.clone();
        for r in &mut altered.regions {
            if let DeviceKind::Uart { irq_rx } = &mut r.kind {
                irq_rx[0] ^= 0x7F;
            }
        }
        let a = run_system(&spec).unwrap();
        let b = run_system(&altered).unwrap();
        assert_ne!(a.pin.digest, b.pin.digest);
    }
}
