//! Pin-level bus protocol: the bottom of the abstraction ladder.
//!
//! [`PinPhy`] implements `codesign-rtl`'s [`BusPhy`]: every bus
//! transaction is realized as a req/ack handshake on a gate-level
//! interface netlist driven through the event-driven simulator — address
//! pins feed a real address decoder (the "glue logic" of the paper's
//! Figure 4), data pins toggle with the transferred values, and the
//! device's wait states stretch the handshake. This is the modeling
//! style of Becker et al. \[4\], where HW/SW interaction is "the activity
//! on the pins of the CPU": maximally accurate (wait states and data
//! -dependent switching are visible) and maximally expensive (every
//! transaction costs tens of simulator events instead of one).

use codesign_rtl::bus::BusPhy;
use codesign_rtl::netlist::{GateKind, NetId, Netlist};
use codesign_rtl::sim::Simulator;
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;

/// Width of the modeled address bus in pins.
pub const ADDR_PINS: usize = 16;
/// Width of the modeled data bus in pins.
pub const DATA_PINS: usize = 32;

/// A gate-level bus interface driven cycle by cycle.
#[derive(Debug)]
pub struct PinPhy {
    sim: Simulator,
    req: NetId,
    we: NetId,
    ack_in: NetId,
    addr: Vec<NetId>,
    data: Vec<NetId>,
    /// Decoder outputs (one per device region); their switching is what
    /// makes glue-logic activity real in the event counts.
    #[allow(dead_code)]
    selects: Vec<NetId>,
    clock_period: u64,
    transactions: u64,
}

impl PinPhy {
    /// Builds the interface netlist for the given device regions
    /// (`(base, size)` pairs decode on the address pins) and brings up
    /// the simulator.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction and simulation errors.
    pub fn new(regions: &[(u32, u32)]) -> Result<Self, RtlError> {
        let mut n = Netlist::new("bus_interface");
        let req = n.add_input("req");
        let we = n.add_input("we");
        let ack_in = n.add_input("ack");
        let addr: Vec<NetId> = (0..ADDR_PINS)
            .map(|i| n.add_input(format!("a{i}")))
            .collect();
        let data: Vec<NetId> = (0..DATA_PINS)
            .map(|i| n.add_input(format!("d{i}")))
            .collect();
        // Address decoder: one select per region, matching the region's
        // base on the high pins (size rounded to a power of two).
        let mut selects = Vec::new();
        for (i, &(base, size)) in regions.iter().enumerate() {
            let low_bits = (32 - (size.max(1) - 1).leading_zeros()) as usize;
            let high: Vec<NetId> = addr.iter().skip(low_bits.min(ADDR_PINS)).copied().collect();
            if high.is_empty() {
                continue;
            }
            let tag = u64::from(base >> low_bits.min(31));
            let hit = n.equals_const(&high, tag)?;
            let sel = n.add_net(format!("sel{i}"));
            n.add_gate(GateKind::And, &[hit, req], sel, 1)?;
            selects.push(sel);
        }
        // Registered data-valid strobe: ack sampled through a flop, the
        // usual synchronizer at a bus boundary.
        let ack_q = n.add_net("ack_q");
        n.add_dff(ack_in, ack_q, false)?;

        let sim = Simulator::new(&n)?;
        Ok(PinPhy {
            sim,
            req,
            we,
            ack_in,
            addr,
            data,
            selects,
            clock_period: 10,
            transactions: 0,
        })
    }

    /// Number of pin-level transactions performed.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    fn drive_transaction(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        wait_states: u64,
    ) -> Result<u64, RtlError> {
        // Address phase: drive address, direction, and request.
        self.sim.set_bus(&self.addr, u64::from(addr & 0xFFFF));
        self.sim.set_input(self.we, write);
        if write {
            self.sim.set_bus(&self.data, u64::from(value));
        }
        self.sim.set_input(self.req, true);
        self.sim.clock_cycle(self.clock_period)?;
        let mut cycles = 1u64;

        // Wait states: the device holds off ack.
        for _ in 0..wait_states {
            self.sim.clock_cycle(self.clock_period)?;
            cycles += 1;
        }

        // Data phase: device acks; on reads the returned value toggles
        // the data pins (read data path switching).
        self.sim.set_input(self.ack_in, true);
        if !write {
            self.sim.set_bus(&self.data, u64::from(value));
        }
        self.sim.clock_cycle(self.clock_period)?;
        cycles += 1;

        // Turnaround: release request and ack.
        self.sim.set_input(self.req, false);
        self.sim.set_input(self.ack_in, false);
        self.sim.clock_cycle(self.clock_period)?;
        cycles += 1;

        self.transactions += 1;
        Ok(cycles)
    }
}

impl BusPhy for PinPhy {
    fn transaction(&mut self, addr: u32, write: bool, value: u32, wait_states: u64) -> u64 {
        // The interface netlist is pure feed-forward logic; the only
        // simulation error it can raise is oscillation, which a
        // feed-forward netlist cannot exhibit.
        self.drive_transaction(addr, write, value, wait_states)
            .expect("feed-forward interface netlist cannot fail")
    }

    fn events(&self) -> u64 {
        self.sim.events_processed()
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.transactions);
        self.sim.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.transactions = r.u64()?;
        self.sim.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_rtl::bus::{fifo_regs, BusTiming, DrainFifo, SystemBus};

    fn phy() -> PinPhy {
        PinPhy::new(&[(0x0000, 0x100), (0x0100, 0x100)]).unwrap()
    }

    #[test]
    fn transaction_cycles_include_wait_states() {
        let mut p = phy();
        let fast = p.transaction(0x0, true, 0xFFFF_FFFF, 0);
        let slow = p.transaction(0x0, true, 0xFFFF_FFFF, 3);
        assert_eq!(slow, fast + 3);
    }

    #[test]
    fn pin_activity_costs_events() {
        let mut p = phy();
        let before = p.events();
        p.transaction(0x0104, true, 0xA5A5_A5A5, 0);
        let burst = p.events() - before;
        assert!(burst > 20, "pin wiggling is expensive: {burst} events");
    }

    #[test]
    fn data_dependent_switching() {
        let mut p = phy();
        p.transaction(0x0, true, 0, 0);
        let before = p.events();
        p.transaction(0x0, true, 0, 0);
        let quiet = p.events() - before;
        let before = p.events();
        p.transaction(0x0, true, 0xFFFF_FFFF, 0);
        let noisy = p.events() - before;
        assert!(
            noisy > quiet,
            "toggling all data pins costs more: {noisy} vs {quiet}"
        );
    }

    #[test]
    fn integrates_with_system_bus() {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x100, Box::new(DrainFifo::new(8, 1_000_000)))
            .unwrap();
        let phy = PinPhy::new(&[(0x0, 0x100)]).unwrap();
        bus.set_phy(Box::new(phy));
        // Fill the fifo: later writes see congestion wait states, so
        // their pin-level cost grows.
        let first = bus.write(fifo_regs::DATA, 1).unwrap();
        for v in 2..=6 {
            bus.write(fifo_regs::DATA, v).unwrap();
        }
        let last = bus.write(fifo_regs::DATA, 7).unwrap();
        assert!(last > first, "congestion visible at pin level");
        assert!(bus.phy_events() > 0);
    }
}
