//! `PinPhy` against the full-netlist pin phy it replaced.
//!
//! The reference below is that phy, kept verbatim: every pin of the bus
//! interface (address, data, `req`, `we`, `ack`, the `ack_q` flop and
//! the address decoder) is a net in one `Simulator`, and each
//! transaction drives it clock by clock. `PinPhy` counts the fanout-free
//! pins as words and memoizes the decode cone, so matching the reference
//! transaction by transaction — events and cycles, over decoder shapes
//! from a single select to overlapping, skipped and one-byte regions,
//! through checkpoint restores and memo overflow — is what shows the
//! shortcut is exact.

use codesign_rtl::bus::{fifo_regs, BusPhy, BusTiming, DrainFifo, SystemBus};
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;
use codesign_sim::pinproto::{PinPhy, MEMO_CAPACITY};
use codesign_sim::trace::hash::splitmix64;

/// The full-netlist pin phy, as it was before the decode memo.
mod reference {
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
}

/// The splitmix64 stream: draw n is `splitmix64(seed + n * gamma)`.
fn next(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

/// One bus transaction: address, write, value, wait states.
type Txn = (u32, bool, u32, u64);

/// Region maps the oracle runs over.
fn maps() -> Vec<(&'static str, Vec<(u32, u32)>)> {
    vec![
        // Conformance lockstep: FIFO, RAM, UART.
        (
            "lockstep",
            vec![(0x000, 0x100), (0x100, 0x100), (0x200, 0x100)],
        ),
        // A generated system: FIFO channels, an IRQ UART and RAM, GPIO
        // and timer decoys at scattered 0x100 slots.
        (
            "sysgen",
            vec![
                (0x3400, 0x100),
                (0x7100, 0x100),
                (0x0500, 0x100),
                (0xA200, 0x100),
                (0x1300, 0x100),
                (0xFE00, 0x100),
                (0x6F00, 0x100),
            ],
        ),
        // A one-byte region (decodes all 16 pins), regions too large to
        // decode any pin (skipped), a zero-size region, and overlaps.
        (
            "edges",
            vec![
                (0x1234, 1),
                (0x0000, 0x1_0000),
                (0x8000_0000, 0x8000_0000),
                (0x0800, 0),
                (0x0000, 0x1000),
                (0x0800, 0x800),
                (0x0800, 0x100),
            ],
        ),
        // The gate-kernel golden map: unequal region sizes.
        (
            "mixed",
            vec![(0x0000, 0x100), (0x0100, 0x100), (0x1000, 0x1000)],
        ),
        ("single", vec![(0x0, 0x100)]),
        ("empty", vec![]),
    ]
}

/// A seeded script over `regions`: reads and writes with 0–3 wait
/// states at addresses inside the regions, between them and above the
/// 16 pins, then a walk that raises and lowers every address pin alone.
fn script(seed: u64, regions: &[(u32, u32)], len: usize) -> Vec<Txn> {
    let mut s = seed;
    let mut txns: Vec<Txn> = (0..len)
        .map(|_| {
            let r = next(&mut s);
            let addr = match (r % 4, regions.len()) {
                (0, _) | (_, 0) => next(&mut s) as u32,
                (1, _) => next(&mut s) as u32 & 0xFFFF,
                _ => {
                    let (base, size) = regions[(r >> 8) as usize % regions.len()];
                    base.wrapping_add((next(&mut s) as u32) % size.clamp(1, 0x400))
                }
            };
            let value = if r >> 40 & 1 == 1 {
                next(&mut s) as u32
            } else {
                (r >> 16) as u32 & 0xF
            };
            (addr, r >> 2 & 1 == 1, value, r >> 4 & 3)
        })
        .collect();
    for pin in 0..16 {
        txns.push((1 << pin, pin % 2 == 0, pin, pin as u64 % 4));
        txns.push((0xFFFF ^ (1 << pin), pin % 3 == 0, !pin, 0));
    }
    txns
}

/// Per transaction: cumulative events and the cycles it took.
fn run(phy: &mut dyn BusPhy, txns: &[Txn]) -> Vec<(u64, u64)> {
    txns.iter()
        .map(|&(addr, write, value, waits)| {
            let cycles = phy.transaction(addr, write, value, waits);
            (phy.events(), cycles)
        })
        .collect()
}

fn snapshot(phy: &dyn BusPhy) -> Vec<u8> {
    let mut w = StateWriter::new();
    phy.save_state(&mut w);
    w.into_bytes()
}

#[test]
fn every_transaction_matches_the_full_netlist() {
    for (name, regions) in maps() {
        for seed in 0..4 {
            let txns = script(seed, &regions, 160);
            let want = run(&mut reference::PinPhy::new(&regions).unwrap(), &txns);
            let mut phy = PinPhy::new(&regions).unwrap();
            let got = run(&mut phy, &txns);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "{name} seed {seed}: transaction {i} {:x?}", txns[i]);
            }
            assert_eq!(phy.transactions(), txns.len() as u64);
            let memo = phy.memo_stats();
            assert_eq!(memo.hits + memo.misses, 2 * txns.len() as u64);
        }
    }
}

#[test]
fn restored_runs_finish_equal_to_straight_runs() {
    for (name, regions) in maps() {
        let txns = script(0x5EED, &regions, 96);
        let want = run(&mut reference::PinPhy::new(&regions).unwrap(), &txns);
        let mut straight = PinPhy::new(&regions).unwrap();
        let mut blobs = Vec::new();
        for (i, &(addr, write, value, waits)) in txns.iter().enumerate() {
            if i % 24 == 0 {
                blobs.push((i, snapshot(&straight)));
            }
            straight.transaction(addr, write, value, waits);
        }
        // A kernel elsewhere: one that ran a different script, so
        // restoring must bring its kernel to the checkpoint's cone word
        // (or back to power-on) before the memo can be trusted again.
        let mut elsewhere = PinPhy::new(&regions).unwrap();
        run(&mut elsewhere, &script(0xE15E, &regions, 40));
        for (at, blob) in &blobs {
            for phy in [&mut PinPhy::new(&regions).unwrap(), &mut elsewhere] {
                phy.restore_state(&mut StateReader::new(blob)).unwrap();
                assert_eq!(
                    run(phy, &txns[*at..]),
                    want[*at..],
                    "{name}: restored before transaction {at}"
                );
                assert_eq!(snapshot(phy), snapshot(&straight), "{name}: end state");
            }
        }
        // Restoring the power-on checkpoint into a kernel that never
        // memoized a power-on transition rebuilds the kernel.
        let mut resumed = PinPhy::new(&regions).unwrap();
        let (mid, blob) = &blobs[2];
        resumed.restore_state(&mut StateReader::new(blob)).unwrap();
        run(&mut resumed, &txns[*mid..]);
        resumed
            .restore_state(&mut StateReader::new(&blobs[0].1))
            .unwrap();
        assert_eq!(run(&mut resumed, &txns), want, "{name}: power-on restore");
        assert_eq!(snapshot(&resumed), snapshot(&straight), "{name}: end state");
    }
}

#[test]
fn a_full_address_walk_stays_within_the_memo_cap() {
    let regions = &maps()[2].1;
    let mut reference = reference::PinPhy::new(regions).unwrap();
    let mut phy = PinPhy::new(regions).unwrap();
    for addr in 0..=0xFFFFu32 {
        let (write, waits) = (addr % 3 == 0, u64::from(addr % 4));
        assert_eq!(
            phy.transaction(addr, write, addr, waits),
            reference.transaction(addr, write, addr, waits)
        );
        assert_eq!(phy.events(), reference.events(), "address {addr:#x}");
        assert!(phy.memo_stats().entries <= MEMO_CAPACITY);
    }
    // The one-byte region decodes every pin, so almost every transition
    // is new: the memo filled and was cleared many times over.
    assert!(phy.memo_stats().misses > 4 * MEMO_CAPACITY as u64);
}

#[test]
fn a_full_netlist_checkpoint_is_a_typed_error() {
    let bus_with = |phy: Box<dyn BusPhy>| {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x100, Box::new(DrainFifo::new(8, 4))).unwrap();
        bus.set_phy(phy);
        bus
    };
    let mut old = bus_with(Box::new(reference::PinPhy::new(&[(0x0, 0x100)]).unwrap()));
    for v in 0..6 {
        old.write(fifo_regs::DATA, v).unwrap();
    }
    let mut w = StateWriter::new();
    old.save_state(&mut w);
    let blob = w.into_bytes();

    let mut new = bus_with(Box::new(PinPhy::new(&[(0x0, 0x100)]).unwrap()));
    let err = new.restore_state(&mut StateReader::new(&blob)).unwrap_err();
    assert!(matches!(err, RtlError::State { .. }), "{err}");

    // The phy section alone: the new layout is a prefix-sized read, so
    // the bytes left over are what the bus rejects.
    let mut phy = reference::PinPhy::new(&[(0x0, 0x100)]).unwrap();
    phy.transaction(0x4, true, 1, 0);
    let section = snapshot(&phy);
    let mut r = StateReader::new(&section);
    let parsed = PinPhy::new(&[(0x0, 0x100)])
        .unwrap()
        .restore_state(&mut r)
        .and_then(|()| r.finish());
    assert!(matches!(parsed, Err(RtlError::State { .. })), "{parsed:?}");
}
