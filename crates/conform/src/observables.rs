//! Architected observables and per-level modeled error bounds.
//!
//! An observable is *architected* when the system's specification fixes
//! its value independent of how the hardware/software interface is
//! modeled. For the generated producer→FIFO systems those are:
//!
//! * **payload bytes per channel** — `iterations × words × 4`, defined
//!   at every level;
//! * **interrupt count** — one per preloaded UART receive byte, defined
//!   at the two ISS levels (the analytic levels price interrupts, they
//!   do not count them);
//! * **final architectural state** — register file (after the program
//!   normalizes its timing-dependent poll scratch) plus data memory,
//!   defined at the two ISS levels;
//! * **channel completion order** — the order in which channels receive
//!   their *last* bus write, defined at the ISS levels via the bus's
//!   global write-sequence stamps. (The message level stamps deliveries,
//!   not sends; with independent consumers the delivery order is a
//!   scheduling artifact, so it is only checked for internal
//!   consistency — a documented waiver, see DESIGN.md §13.)
//!
//! Simulated cycles are *not* architected — they are exactly what the
//! ladder trades away — so each level above pin carries a modeled
//! relative-error bound instead, calibrated against the 1000-system
//! sweep maxima with headroom (the sweep reports measured maxima next
//! to the bounds, so drift is visible).

use codesign_ir::workload::sysgen::SystemSpec;
pub use codesign_sim::ladder::rel_err;
use codesign_sim::ladder::{AbstractionLevel, LevelRun, SystemRun};

/// Modeled cycle-error bound of the register level relative to pin.
///
/// The register level hides only device wait states (0–3 extra pin
/// cycles on a 3-cycle transaction); measured maximum 0.064 across
/// 1000-system sweeps at seeds 1, 7, 42, 123, and 999.
pub const REGISTER_REL_BOUND: f64 = 0.12;

/// Modeled cycle-error bound of the driver level relative to pin.
///
/// The driver model ignores FIFO back-pressure entirely, so its error
/// grows with `drain_period × words / compute`; measured maximum 0.525,
/// on the degenerate maximum-back-pressure corner (identical across
/// campaign seeds because the corner is deterministic).
pub const DRIVER_REL_BOUND: f64 = 0.80;

/// Modeled cycle-error bound of the message level relative to pin.
///
/// The message level prices communication with an abstract [`CommModel`]
/// (setup + bandwidth) unrelated to bus transactions; the paper warns it
/// "may not be useful for evaluating performance". Measured maximum
/// 0.856 across 1000-system sweeps, on small chatty systems.
///
/// [`CommModel`]: codesign_sim::message::CommModel
pub const MESSAGE_REL_BOUND: f64 = 1.30;

/// One cross-level disagreement, attributable to a generator seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The generator seed of the offending system.
    pub seed: u64,
    /// Which check failed (stable, machine-matchable name).
    pub check: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[seed {:#x}] {}: {}", self.seed, self.check, self.detail)
    }
}

/// The modeled relative-error bound for one level above pin.
#[must_use]
pub fn rel_bound(level: AbstractionLevel) -> f64 {
    match level {
        AbstractionLevel::Pin => 0.0,
        AbstractionLevel::Register => REGISTER_REL_BOUND,
        AbstractionLevel::Driver => DRIVER_REL_BOUND,
        AbstractionLevel::Message => MESSAGE_REL_BOUND,
    }
}

fn diverge(out: &mut Vec<Divergence>, seed: u64, check: &'static str, detail: String) {
    out.push(Divergence {
        seed,
        check,
        detail,
    });
}

/// Checks every architected observable of a four-level run and the
/// per-level cycle bounds. An empty result means the system conforms.
#[must_use]
pub fn check(spec: &SystemSpec, run: &SystemRun) -> Vec<Divergence> {
    let mut out = Vec::new();
    let seed = spec.seed;
    let pin = &run.pin;
    let reg = &run.register;

    // Expected per-channel payload, from the spec alone.
    let expected: Vec<u64> = (0..spec.channels.len())
        .map(|c| spec.channel_bytes(c))
        .collect();

    for (name, level) in [
        ("pin", pin),
        ("register", reg),
        ("driver", &run.driver),
        ("message", &run.message),
    ] {
        if level.per_channel_bytes != expected {
            diverge(
                &mut out,
                seed,
                "channel-bytes",
                format!(
                    "{name} moved {:?} bytes per channel, spec says {expected:?}",
                    level.per_channel_bytes
                ),
            );
        }
    }

    // ISS-only observables: interrupt count, state digest, write order.
    let irqs_expected = spec.irq_count();
    for (name, level) in [("pin", pin), ("register", reg)] {
        if level.irqs != Some(irqs_expected) {
            diverge(
                &mut out,
                seed,
                "irq-count",
                format!(
                    "{name} took {:?} interrupts, spec wires {irqs_expected}",
                    level.irqs
                ),
            );
        }
    }
    if pin.digest != reg.digest {
        diverge(
            &mut out,
            seed,
            "final-state",
            format!(
                "architectural-state digests differ: pin {:#x?} vs register {:#x?}",
                pin.digest, reg.digest
            ),
        );
    }
    if pin.write_order != reg.write_order {
        diverge(
            &mut out,
            seed,
            "completion-order",
            format!(
                "channel completion order differs: pin {:?} vs register {:?}",
                pin.write_order, reg.write_order
            ),
        );
    }

    // Message-level internal consistency (documented waiver: delivery
    // order across independent consumers is scheduling, not architected).
    let msgs_expected = spec.channels.len() as u64 * u64::from(spec.iterations);
    if run.message.messages != Some(msgs_expected) {
        diverge(
            &mut out,
            seed,
            "message-count",
            format!(
                "message level delivered {:?} messages, spec implies {msgs_expected}",
                run.message.messages
            ),
        );
    }

    // Cycle agreement within each level's modeled bound.
    for level in [reg, &run.driver, &run.message] {
        let err = rel_err(pin.cycles, level.cycles);
        let bound = rel_bound(level.level);
        if err > bound {
            diverge(
                &mut out,
                seed,
                "cycle-bound",
                format!(
                    "{} level off by {err:.3} (> modeled bound {bound}): {} vs pin {}",
                    level.level, level.cycles, pin.cycles
                ),
            );
        }
    }
    out
}

/// Largest relative cycle error per non-pin level in a run, for the
/// sweep's calibration report.
#[must_use]
pub fn level_errors(run: &SystemRun) -> [(AbstractionLevel, f64); 3] {
    let e = |l: &LevelRun| (l.level, rel_err(run.pin.cycles, l.cycles));
    [e(&run.register), e(&run.driver), e(&run.message)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_never_nan() {
        assert_eq!(rel_err(0, 0), 0.0);
        assert_eq!(rel_err(0, 5), f64::INFINITY);
        assert_eq!(rel_err(100, 150), 0.5);
        assert!(!rel_err(0, 0).is_nan());
    }

    // Guards future recalibration: the paper's accuracy ordering (each
    // level trades accuracy for speed) must survive any bound edit.
    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn bounds_grow_up_the_ladder() {
        assert!(REGISTER_REL_BOUND < DRIVER_REL_BOUND);
        assert!(DRIVER_REL_BOUND < MESSAGE_REL_BOUND);
    }
}
