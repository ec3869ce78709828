//! Pin-level bus protocol: the bottom of the abstraction ladder.
//!
//! [`PinPhy`] implements `codesign-rtl`'s [`BusPhy`]: every bus
//! transaction is realized as a req/ack handshake on the pins of a
//! gate-level bus interface — address pins feed a real address decoder
//! (the "glue logic" of the paper's Figure 4), data pins toggle with the
//! transferred values, `ack` is registered through a flip-flop, and the
//! device's wait states stretch the handshake. This is the modeling
//! style of Becker et al. \[4\], where HW/SW interaction is "the activity
//! on the pins of the CPU": maximally accurate (wait states and data
//! -dependent switching are visible) and maximally expensive (every
//! transaction costs tens of simulator events instead of one).
//!
//! Events stay the Figure 3 cost currency: [`BusPhy::events`] counts
//! every pin and gate transition the full interface netlist would take
//! in the event-driven simulator. Host time, though, is paid per
//! distinct transition, not per transaction:
//!
//! - nets that feed no gate (the data pins, `we`, `ack`, the `ack_q`
//!   flop and the address pins no decoder reads) are plain words, and
//!   each toggled pin counts one event;
//! - only the decode cone (`req`, the decoded address pins, the decoder
//!   gates) is a netlist, and the events it takes from one settled input
//!   word to the next are memoized, so the [`Simulator`] runs only on a
//!   transition the memo has not seen.

use std::collections::HashMap;

use codesign_rtl::bus::BusPhy;
use codesign_rtl::netlist::{GateKind, NetId, Netlist};
use codesign_rtl::sim::Simulator;
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;

/// Width of the modeled address bus in pins.
pub const ADDR_PINS: usize = 16;
/// Width of the modeled data bus in pins.
pub const DATA_PINS: usize = 32;
/// Most cone transitions the memo holds; it is cleared when full.
pub const MEMO_CAPACITY: usize = 1024;

/// Bus clock period in simulator time units.
const CLOCK_PERIOD: u64 = 10;
/// The `req` bit of a cone word; the bits below it are address pins.
const REQ: u32 = 1 << ADDR_PINS;
/// The cone "word" of a kernel that has not settled since power-on.
const POWER_ON: u32 = u32::MAX;

/// Decode-memo counters: lookups that hit, lookups that ran the kernel,
/// and the transitions held now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Transitions answered from the memo.
    pub hits: u64,
    /// Transitions the kernel simulated.
    pub misses: u64,
    /// Transitions currently memoized (at most [`MEMO_CAPACITY`]).
    pub entries: usize,
}

/// A pin-level bus interface. Its events are those of the full
/// gate-level interface netlist driven cycle by cycle; only the address
/// decoder is simulated, and only on transitions it has not seen.
#[derive(Debug)]
pub struct PinPhy {
    /// The decode cone, kept to rebuild a power-on kernel.
    cone: Netlist,
    req: NetId,
    /// `(pin, net)` of every address pin the decoder reads.
    decoded_pins: Vec<(usize, NetId)>,
    /// Mask of those pins.
    decoded: u32,
    /// Kernel over the cone, settled at cone word `sim_word`.
    sim: Simulator,
    sim_word: u32,
    /// `(from << 32 | to)` cone words -> events of that transition.
    memo: HashMap<u64, u64>,
    hits: u64,
    misses: u64,
    // Pin state: what a checkpoint holds.
    transactions: u64,
    events: u64,
    address: u32,
    data: u32,
    we: bool,
    /// Cone word the pins hold now (`POWER_ON` before the first
    /// transaction).
    word: u32,
}

impl PinPhy {
    /// Builds the address decoder for the given device regions (`(base,
    /// size)` pairs decode on the address pins) and brings up the
    /// simulator over it.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction and simulation errors, and
    /// returns [`RtlError::SettleBound`] unless the decoder is
    /// combinational and settles within one clock period.
    pub fn new(regions: &[(u32, u32)]) -> Result<Self, RtlError> {
        // One select per region, matching the region's base on the high
        // pins (size rounded to a power of two). A region that decodes
        // no pin gets no select.
        let low: Vec<usize> = regions
            .iter()
            .map(|&(_, size)| (32 - (size.max(1) - 1).leading_zeros()) as usize)
            .collect();
        let first = low.iter().copied().min().unwrap_or(ADDR_PINS);
        let mut n = Netlist::new("bus_decoder");
        let req = n.add_input("req");
        let decoded_pins: Vec<(usize, NetId)> = (first..ADDR_PINS)
            .map(|pin| (pin, n.add_input(format!("a{pin}"))))
            .collect();
        for (i, (&(base, _), &low_bits)) in regions.iter().zip(&low).enumerate() {
            if low_bits >= ADDR_PINS {
                continue;
            }
            let high: Vec<NetId> = decoded_pins[low_bits - first..]
                .iter()
                .map(|&(_, net)| net)
                .collect();
            let hit = n.equals_const(&high, u64::from(base >> low_bits.min(31)))?;
            let sel = n.add_net(format!("sel{i}"));
            n.add_gate(GateKind::And, &[hit, req], sel, 1)?;
        }
        check_settles(&n, CLOCK_PERIOD)?;
        let sim = Simulator::new(&n)?;
        Ok(PinPhy {
            cone: n,
            req,
            decoded: decoded_pins.iter().map(|&(pin, _)| 1 << pin).sum(),
            decoded_pins,
            sim,
            sim_word: POWER_ON,
            memo: HashMap::new(),
            hits: 0,
            misses: 0,
            transactions: 0,
            events: 0,
            address: 0,
            data: 0,
            we: false,
            word: POWER_ON,
        })
    }

    /// Number of pin-level transactions performed.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Decode-memo counters since construction.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.memo.len(),
        }
    }

    fn drive_transaction(
        &mut self,
        addr: u32,
        write: bool,
        value: u32,
        wait_states: u64,
    ) -> Result<u64, RtlError> {
        let addr = addr & ((1 << ADDR_PINS) - 1);
        // Fanout-free pins: the undecoded address pins, `we` and write
        // data change in the address phase, read data in the data phase;
        // `ack` and its flop `ack_q` rise in the data phase and fall at
        // turnaround, four events.
        let toggles = ((self.address ^ addr) & !self.decoded).count_ones()
            + (self.data ^ value).count_ones()
            + u32::from(self.we != write)
            + 4;
        self.events += u64::from(toggles);
        self.address = addr;
        self.data = value;
        self.we = write;
        // The cone: address and `req` rise together, `req` falls at
        // turnaround.
        let word = addr & self.decoded;
        self.cone_step(word | REQ)?;
        self.cone_step(word)?;
        self.transactions += 1;
        // Address phase, wait states, data phase, turnaround.
        Ok(1 + wait_states + 2)
    }

    /// Moves the cone from its current word to `to`, counting the events
    /// the kernel takes for it.
    fn cone_step(&mut self, to: u32) -> Result<(), RtlError> {
        let key = u64::from(self.word) << 32 | u64::from(to);
        let events = if let Some(&events) = self.memo.get(&key) {
            self.hits += 1;
            events
        } else {
            self.misses += 1;
            let events = self.simulate(self.word, to)?;
            if self.memo.len() == MEMO_CAPACITY {
                self.memo.clear();
            }
            self.memo.insert(key, events);
            events
        };
        self.events += events;
        self.word = to;
        Ok(())
    }

    /// Events the kernel takes from a cone settled at `from` (or fresh
    /// from power-on, with the initial gate evaluations still queued) to
    /// the settled response to `to`. The kernel lags behind the pins
    /// after memo hits and restores; bringing it to `from` first is not
    /// counted.
    fn simulate(&mut self, from: u32, to: u32) -> Result<u64, RtlError> {
        if self.sim_word != from {
            if from == POWER_ON {
                self.sim = Simulator::new(&self.cone)?;
            } else {
                self.drive(from);
                self.sim.settle()?;
            }
        }
        let before = self.sim.events_processed();
        self.drive(to);
        self.sim.settle()?;
        self.sim_word = to;
        Ok(self.sim.events_processed() - before)
    }

    fn drive(&mut self, word: u32) {
        self.sim.set_input(self.req, word & REQ != 0);
        for &(pin, net) in &self.decoded_pins {
            self.sim.set_input(net, word >> pin & 1 == 1);
        }
    }
}

/// The memo's precondition on the cone: no flip-flop, no combinational
/// loop, and every gate path shorter than `period`. Then a settled cone
/// that sees one input change settles again within that clock cycle, so
/// its events depend only on the settled words before and after.
fn check_settles(netlist: &Netlist, period: u64) -> Result<(), RtlError> {
    let fail = |reason: String| Err(RtlError::SettleBound { reason });
    if let Some(dff) = netlist.dffs().first() {
        return fail(format!("flip-flop drives {}", netlist.net_name(dff.q)));
    }
    // Longest arrival per net, gates taken in topological order: a gate
    // is ready once every gate driving one of its inputs is done.
    let gates = netlist.gates();
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); netlist.net_count()];
    for (gi, g) in gates.iter().enumerate() {
        for input in &g.inputs {
            readers[input.index()].push(gi);
        }
    }
    let mut driven = vec![false; netlist.net_count()];
    for g in gates {
        driven[g.output.index()] = true;
    }
    let mut waiting: Vec<usize> = gates
        .iter()
        .map(|g| g.inputs.iter().filter(|i| driven[i.index()]).count())
        .collect();
    let mut ready: Vec<usize> = (0..gates.len()).filter(|&gi| waiting[gi] == 0).collect();
    let mut arrival = vec![0u64; netlist.net_count()];
    let mut done = 0;
    while let Some(gi) = ready.pop() {
        done += 1;
        let g = &gates[gi];
        let start = g
            .inputs
            .iter()
            .map(|i| arrival[i.index()])
            .max()
            .unwrap_or(0);
        let t = start.saturating_add(g.delay);
        if t >= period {
            return fail(format!(
                "a path to {} takes {t} >= {period}",
                netlist.net_name(g.output)
            ));
        }
        arrival[g.output.index()] = t;
        for &r in &readers[g.output.index()] {
            waiting[r] -= 1;
            if waiting[r] == 0 {
                ready.push(r);
            }
        }
    }
    if done < gates.len() {
        return fail(format!(
            "{} gates sit on a combinational loop",
            gates.len() - done
        ));
    }
    Ok(())
}

impl BusPhy for PinPhy {
    fn transaction(&mut self, addr: u32, write: bool, value: u32, wait_states: u64) -> u64 {
        // `new` checked that the cone is acyclic and flop-free, so the
        // kernel always settles, and a netlist built through the public
        // API always simulates.
        self.drive_transaction(addr, write, value, wait_states)
            .expect("a checked decode cone always settles")
    }

    fn events(&self) -> u64 {
        self.events
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.transactions);
        w.u64(self.events);
        w.u32(self.address);
        w.u32(self.data);
        w.bool(self.we);
        w.u32(self.word);
    }

    /// Restores the pin state. The kernel and the memo are caches of the
    /// cone's behavior and stay as they are.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncated bytes, an address wider
    /// than [`ADDR_PINS`], or a cone word that is neither power-on nor
    /// the decoded bits of the address plus `req`. The phy is unchanged
    /// on error.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        let transactions = r.u64()?;
        let events = r.u64()?;
        let address = r.u32()?;
        let data = r.u32()?;
        let we = r.bool()?;
        let word = r.u32()?;
        let bad = |reason: String| Err(RtlError::State { reason });
        if address >> ADDR_PINS != 0 {
            return bad(format!("address {address:#x} exceeds {ADDR_PINS} pins"));
        }
        if word != POWER_ON && word != (address & self.decoded) | (word & REQ) {
            return bad(format!(
                "cone word {word:#x} is not address {address:#x} on the decoded pins plus req"
            ));
        }
        self.transactions = transactions;
        self.events = events;
        self.address = address;
        self.data = data;
        self.we = we;
        self.word = word;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_rtl::bus::{fifo_regs, BusTiming, DrainFifo, SystemBus};

    fn phy() -> PinPhy {
        PinPhy::new(&[(0x0000, 0x100), (0x0100, 0x100)]).unwrap()
    }

    fn snapshot(p: &PinPhy) -> Vec<u8> {
        let mut w = StateWriter::new();
        p.save_state(&mut w);
        w.into_bytes()
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

    #[test]
    fn repeated_transitions_hit_the_memo() {
        let mut p = phy();
        for _ in 0..8 {
            p.transaction(0x0104, false, 7, 1);
            p.transaction(0x0004, true, 9, 0);
        }
        // Power-on -> a0104+req, then every later step is one of four
        // transitions between the two settled words.
        let stats = p.memo_stats();
        assert_eq!((stats.misses, stats.entries), (5, 5));
        assert_eq!(stats.hits, 32 - 5);
    }

    #[test]
    fn a_power_on_miss_rebuilds_the_kernel() {
        let mut p = phy();
        let fresh = snapshot(&p);
        let first = {
            let mut q = phy();
            q.transaction(0x0104, true, 1, 0);
            q.events()
        };
        // Move the kernel off power-on with a transition the power-on key
        // never sees, then restore to power-on: the memo misses and the
        // kernel must start again from its initial evaluations.
        p.transaction(0x0004, true, 1, 0);
        p.restore_state(&mut StateReader::new(&fresh)).unwrap();
        p.transaction(0x0104, true, 1, 0);
        assert_eq!(p.events(), first);
        assert_eq!(p.memo_stats().misses, 4);
    }

    #[test]
    fn restore_rejects_states_no_run_reaches() {
        let mut p = phy();
        p.transaction(0x0104, true, 3, 0);
        let good = snapshot(&p);
        let layout = |address: u32, word: u32| {
            let mut w = StateWriter::new();
            w.u64(1);
            w.u64(40);
            w.u32(address);
            w.u32(3);
            w.bool(true);
            w.u32(word);
            w.into_bytes()
        };
        let mut fresh = phy();
        let before = snapshot(&fresh);
        for blob in [
            layout(0x1_0000, 0),             // a 17th address pin
            layout(0x0104, 0x0104),          // undecoded pin in the cone word
            layout(0x0104, 0x0000),          // cone word disagrees with the address
            layout(0x0104, 0x2_0100),        // bit above req
            good[..good.len() - 1].to_vec(), // truncated
        ] {
            let err = fresh
                .restore_state(&mut StateReader::new(&blob))
                .unwrap_err();
            assert!(matches!(err, RtlError::State { .. }), "{err}");
            assert_eq!(snapshot(&fresh), before, "unchanged on error");
        }
        for word in [0x0100, 0x0100 | REQ, POWER_ON] {
            fresh
                .restore_state(&mut StateReader::new(&layout(0x0104, word)))
                .unwrap();
        }
    }

    #[test]
    fn settle_check_rejects_flops_loops_and_slow_paths() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..CLOCK_PERIOD {
            let next = n.add_net(format!("b{i}"));
            n.add_gate(GateKind::Buf, &[prev], next, 1).unwrap();
            prev = next;
            let ok = check_settles(&n, CLOCK_PERIOD).is_ok();
            assert_eq!(ok, i + 1 < CLOCK_PERIOD, "path of {} gates", i + 1);
        }

        let mut n = Netlist::new("loop");
        let (x, y) = (n.add_net("x"), n.add_net("y"));
        n.add_gate(GateKind::Not, &[x], y, 0).unwrap();
        n.add_gate(GateKind::Buf, &[y], x, 0).unwrap();
        assert!(matches!(
            check_settles(&n, CLOCK_PERIOD),
            Err(RtlError::SettleBound { .. })
        ));

        let mut n = Netlist::new("flop");
        let (d, q) = (n.add_input("d"), n.add_net("q"));
        n.add_dff(d, q, false).unwrap();
        assert!(matches!(
            check_settles(&n, CLOCK_PERIOD),
            Err(RtlError::SettleBound { .. })
        ));
    }
}
