//! Realizes one generated [`SystemSpec`] at all four Figure 3 levels.
//!
//! The realization itself — bus, ISS run, driver model, message-level
//! run — is [`codesign_sim::ladder`]'s, the same one the E3 ladder uses.
//! This module supplies what a generated spec needs on top:
//!
//! * **pin** / **register**: one CR32 program (see
//!   [`conformance_program`]) driving the real bus, with and without the
//!   gate-level pin protocol installed;
//! * **driver**: the shared driver model over the spec's channel list
//!   plus its interrupt service term;
//! * **message**: a `1 + N`-process rendezvous network (one software
//!   producer, one hardware consumer per channel; see
//!   [`message_network`]).
//!
//! The program is *timing-closed in its final state*: every register
//! that can legitimately differ between pin and register level (the
//! FIFO-occupancy poll scratch) is normalized before `halt`, so the
//! final architectural state is an architected observable.

use std::fmt::Write as _;

use codesign_ir::process::{Action, Process, ProcessNetwork};
use codesign_ir::workload::sysgen::{DeviceKind, SystemSpec};
use codesign_isa::cpu::MMIO_BASE;
use codesign_rtl::bus::{fifo_regs, uart_regs};
use codesign_sim::ladder::{realize_driver, realize_iss, realize_message, SystemRun};
use codesign_sim::message::{MessageConfig, Placement, Resource};
use codesign_sim::trace::Tracer;

use crate::ConformError;

/// The spec's UART region (base, preloaded rx bytes), if wired.
fn uart_of(spec: &SystemSpec) -> Option<(u32, &[u8])> {
    spec.regions.iter().find_map(|r| match &r.kind {
        DeviceKind::Uart { irq_rx } if !irq_rx.is_empty() => Some((r.base, irq_rx.as_slice())),
        _ => None,
    })
}

/// The CR32 producer program realizing `spec` at the ISS levels.
///
/// Shape: (1) if a UART is wired, enable its rx interrupt and spin until
/// the handler has drained every preloaded byte (the count, not the
/// timing, is architected); (2) for each outer iteration, per channel:
/// spin the channel's compute, then push its words through the FIFO with
/// occupancy polling; (3) normalize the poll scratch register and halt.
/// The handler accumulates a byte checksum in `r11`, so the IRQ payload
/// reaches the architectural-state digest.
#[must_use]
pub fn conformance_program(spec: &SystemSpec) -> String {
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

/// The spec as a message-level process network: one software producer
/// interleaving every channel's traffic (matching the ISS program
/// order), one hardware consumer per channel draining at the FIFO rate.
#[must_use]
pub fn message_network(spec: &SystemSpec) -> (ProcessNetwork, Placement, MessageConfig) {
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

/// Realizes `spec` at all four levels with [`conformance_program`] and
/// [`message_network`].
///
/// # Errors
///
/// Propagates spec, assembler, bus, ISS, and message-kernel failures; a
/// failure *is* a conformance finding (the generator only emits specs
/// that pass [`SystemSpec::validate`]).
pub fn run_system(spec: &SystemSpec) -> Result<SystemRun, ConformError> {
    let program = conformance_program(spec);
    let off = Tracer::off();
    Ok(SystemRun {
        pin: realize_iss(spec, &program, true, &off)?,
        register: realize_iss(spec, &program, false, &off)?,
        driver: realize_driver(spec),
        message: realize_message(&message_network(spec), &off)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::workload::sysgen::{random_system, SysConfig};
    use codesign_isa::asm::assemble;

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
        let a = conformance_program(&spec);
        assert_eq!(a, conformance_program(&spec));
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
        let Some(_) = uart_of(&spec) else {
            panic!("seed 11 wires a uart; regenerate the test seed");
        };
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
