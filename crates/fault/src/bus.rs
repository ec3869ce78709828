//! Bus-, register-, and interrupt-level fault wrappers.
//!
//! [`FaultySlave`] wraps any [`BusSlave`] and perturbs the three lowest
//! rungs of the abstraction ladder: single-bit flips on bus data
//! (bus level), whole-word forgeries on register reads/writes (register
//! level), and dropped/spurious/duplicated interrupts (interrupt
//! level). [`FaultyPhy`] wraps the bus's physical layer and models
//! stuck transactions that occupy the bus for extra cycles.
//!
//! Both wrappers are exact pass-throughs under a quiet plan: they
//! forward every call unchanged and consume no randomness, so a bus
//! built with quiet wrappers is bit-identical to one built without them
//! (`FaultySlave` even forwards `as_any`, so typed
//! [`SystemBus::device`](codesign_rtl::bus::SystemBus::device) lookups
//! still reach the wrapped device).

use std::cell::Cell;

use codesign_rtl::bus::{BusPhy, BusSlave, BusTiming};
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;

use crate::plan::{FaultKind, FaultPlan, SharedInjector};

/// A [`BusSlave`] wrapper injecting bus-, register-, and
/// interrupt-level faults per the plan.
#[derive(Debug)]
pub struct FaultySlave {
    inner: Box<dyn BusSlave>,
    plan: FaultPlan,
    injector: SharedInjector,
    site: String,
    /// Device-local clock, advanced by [`BusSlave::tick`] and
    /// [`BusSlave::advance`]; timestamps the fault records.
    cycles: u64,
    /// Whether the wrapped device's IRQ line was high at the previous
    /// sample (drives the duplicated-delivery model). A `Cell` because
    /// [`BusSlave::irq_pending`] takes `&self`.
    irq_was_high: Cell<bool>,
}

impl FaultySlave {
    /// Wraps `inner`, drawing decisions for `site` from `injector`.
    #[must_use]
    pub fn new(inner: Box<dyn BusSlave>, plan: FaultPlan, injector: SharedInjector) -> Self {
        let site = format!("reg:{}", inner.name());
        FaultySlave {
            inner,
            plan,
            injector,
            site,
            cycles: 0,
            irq_was_high: Cell::new(false),
        }
    }
}

impl BusSlave for FaultySlave {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn read(&mut self, offset: u32) -> u32 {
        let value = self.inner.read(offset);
        let mut inj = self.injector.borrow_mut();
        if inj.decide(&self.site, self.plan.register.corrupt_read) {
            let forged = inj.rand_word(&self.site);
            inj.record(
                self.cycles,
                &self.site,
                FaultKind::CorruptRead,
                format!("offset {offset:#x}: {value:#010x} -> {forged:#010x}"),
            );
            return forged;
        }
        if inj.decide(&self.site, self.plan.bus.bit_flip) {
            let bit = inj.rand_bit(&self.site);
            inj.record(
                self.cycles,
                &self.site,
                FaultKind::BitFlipRead,
                format!("offset {offset:#x}: bit {bit} of {value:#010x}"),
            );
            return value ^ (1 << bit);
        }
        value
    }

    fn write(&mut self, offset: u32, value: u32) {
        let mut inj = self.injector.borrow_mut();
        let stored = if inj.decide(&self.site, self.plan.register.corrupt_write) {
            let forged = inj.rand_word(&self.site);
            inj.record(
                self.cycles,
                &self.site,
                FaultKind::CorruptWrite,
                format!("offset {offset:#x}: {value:#010x} -> {forged:#010x}"),
            );
            forged
        } else if inj.decide(&self.site, self.plan.bus.bit_flip) {
            let bit = inj.rand_bit(&self.site);
            inj.record(
                self.cycles,
                &self.site,
                FaultKind::BitFlipWrite,
                format!("offset {offset:#x}: bit {bit} of {value:#010x}"),
            );
            value ^ (1 << bit)
        } else {
            value
        };
        drop(inj);
        self.inner.write(offset, stored);
    }

    fn tick(&mut self) {
        self.cycles += 1;
        self.inner.tick();
    }

    fn advance(&mut self, n: u64) {
        // Ticking draws no randomness, so the wrapper's clock and the
        // wrapped device catch up in one step each.
        self.cycles += n;
        self.inner.advance(n);
    }

    fn irq_pending(&self) -> bool {
        let inner = self.inner.irq_pending();
        let mut inj = self.injector.borrow_mut();
        let out = if inner {
            if inj.decide(&self.site, self.plan.irq.drop) {
                inj.record(
                    self.cycles,
                    &self.site,
                    FaultKind::IrqDropped,
                    "pending irq masked for one sample".into(),
                );
                false
            } else {
                true
            }
        } else if self.irq_was_high.get() && inj.decide(&self.site, self.plan.irq.duplicate) {
            inj.record(
                self.cycles,
                &self.site,
                FaultKind::IrqDuplicated,
                "cleared irq re-asserted for one sample".into(),
            );
            true
        } else if inj.decide(&self.site, self.plan.irq.spurious) {
            inj.record(
                self.cycles,
                &self.site,
                FaultKind::IrqSpurious,
                "idle line asserted".into(),
            );
            true
        } else {
            false
        };
        self.irq_was_high.set(inner);
        out
    }

    fn wait_states(&self) -> u64 {
        self.inner.wait_states()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        // Transparent: typed `SystemBus::device` lookups reach the
        // wrapped device, so harnesses need not know whether a campaign
        // wrapped it.
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }

    fn save_state(&self, w: &mut StateWriter) {
        // Wrapper clock and IRQ-edge latch first, then the wrapped
        // device's own state. The injector is shared across wrappers
        // and checkpointed separately by the run harness.
        w.u64(self.cycles);
        w.bool(self.irq_was_high.get());
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.cycles = r.u64()?;
        self.irq_was_high.set(r.bool()?);
        self.inner.restore_state(r)
    }
}

/// A [`BusPhy`] wrapper injecting stuck transactions: with probability
/// `plan.bus.stuck`, a transaction occupies the bus for
/// `plan.bus.stuck_cycles` extra cycles (arbitration lost, a wedged
/// target inserting wait states).
///
/// Without an inner phy it reproduces the transaction-level timing a
/// bus uses when no physical layer is installed — exactly
/// [`BusTiming::transaction_cycles`], ignoring device wait states —
/// so installing a quiet `FaultyPhy` on a phy-less bus is
/// bit-identical to leaving the bus alone.
#[derive(Debug)]
pub struct FaultyPhy {
    inner: Option<Box<dyn BusPhy>>,
    timing: BusTiming,
    plan: FaultPlan,
    injector: SharedInjector,
    site: String,
    transactions: u64,
}

impl FaultyPhy {
    /// A stuck-transaction layer over transaction-level timing (no
    /// inner phy).
    #[must_use]
    pub fn new(timing: BusTiming, plan: FaultPlan, injector: SharedInjector) -> Self {
        FaultyPhy {
            inner: None,
            timing,
            plan,
            injector,
            site: "bus:phy".to_string(),
            transactions: 0,
        }
    }

    /// A stuck-transaction layer over an existing physical layer (e.g.
    /// the pin-protocol phy); `timing` is unused in this mode.
    #[must_use]
    pub fn over(inner: Box<dyn BusPhy>, plan: FaultPlan, injector: SharedInjector) -> Self {
        FaultyPhy {
            inner: Some(inner),
            timing: BusTiming::default(),
            plan,
            injector,
            site: "bus:phy".to_string(),
            transactions: 0,
        }
    }
}

impl BusPhy for FaultyPhy {
    fn transaction(&mut self, addr: u32, write: bool, value: u32, wait_states: u64) -> u64 {
        self.transactions += 1;
        let base = match self.inner.as_mut() {
            Some(phy) => phy.transaction(addr, write, value, wait_states),
            None => self.timing.transaction_cycles(),
        };
        let mut inj = self.injector.borrow_mut();
        if inj.decide(&self.site, self.plan.bus.stuck) {
            let extra = self.plan.bus.stuck_cycles;
            inj.record(
                self.transactions,
                &self.site,
                FaultKind::StuckTransaction,
                format!(
                    "{} {addr:#010x} held {extra} extra cycles",
                    if write { "write" } else { "read" }
                ),
            );
            base + extra
        } else {
            base
        }
    }

    fn events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |phy| phy.events())
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.transactions);
        if let Some(phy) = &self.inner {
            phy.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        self.transactions = r.u64()?;
        if let Some(phy) = self.inner.as_mut() {
            phy.restore_state(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_rtl::bus::{fifo_regs, DrainFifo, SystemBus};

    use crate::plan::{shared, BusRates, IrqRates, RegisterRates};

    fn faulty_bus(plan: FaultPlan, seed: u64) -> (SystemBus, SharedInjector) {
        let injector = shared(seed);
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(
            0x0,
            0x100,
            Box::new(FaultySlave::new(
                Box::new(DrainFifo::new(8, 10)),
                plan,
                injector.clone(),
            )),
        )
        .unwrap();
        (bus, injector)
    }

    #[test]
    fn quiet_slave_is_bit_identical_to_bare() {
        let mut bare = SystemBus::new(BusTiming::default());
        bare.map(0x0, 0x100, Box::new(DrainFifo::new(8, 10)))
            .unwrap();
        let (mut wrapped, injector) = faulty_bus(FaultPlan::quiet(), 1);
        for i in 0..32u32 {
            assert_eq!(
                bare.write(fifo_regs::DATA, i).unwrap(),
                wrapped.write(fifo_regs::DATA, i).unwrap()
            );
            bare.tick(3);
            wrapped.tick(3);
            assert_eq!(
                bare.read(fifo_regs::COUNT).unwrap(),
                wrapped.read(fifo_regs::COUNT).unwrap()
            );
        }
        assert_eq!(bare.stats(), wrapped.stats());
        assert_eq!(injector.borrow().count(), 0);
    }

    #[test]
    fn typed_device_lookup_sees_through_the_wrapper() {
        let (bus, _) = faulty_bus(FaultPlan::quiet(), 1);
        assert!(bus.device::<DrainFifo>().is_some());
    }

    #[test]
    fn corrupt_read_forges_the_word_and_records_it() {
        let plan = FaultPlan {
            register: RegisterRates {
                corrupt_read: 1.0,
                corrupt_write: 0.0,
            },
            ..FaultPlan::quiet()
        };
        let (mut bus, injector) = faulty_bus(plan, 7);
        bus.write(fifo_regs::DATA, 5).unwrap();
        let (count, _) = bus.read(fifo_regs::COUNT).unwrap();
        // The true count is 1; a rate-1.0 corrupt read forging exactly 1
        // for this seed would be astronomically unlucky.
        assert_ne!(count, 1);
        let inj = injector.borrow();
        assert_eq!(inj.count(), 1);
        assert_eq!(inj.records()[0].kind, FaultKind::CorruptRead);
    }

    #[test]
    fn bit_flip_read_changes_exactly_one_bit() {
        let plan = FaultPlan {
            bus: BusRates {
                bit_flip: 1.0,
                ..BusRates::default()
            },
            ..FaultPlan::quiet()
        };
        let (mut bus, _) = faulty_bus(plan, 3);
        for i in 0..8u32 {
            bus.write(fifo_regs::DATA, i).unwrap();
        }
        // Writes were bit-flipped too, but COUNT only counts words; read
        // the true count through the fifo and compare with the faulted
        // read's hamming distance.
        let truth = 8u32;
        let (read, _) = bus.read(fifo_regs::COUNT).unwrap();
        assert_eq!((read ^ truth).count_ones(), 1);
    }

    #[test]
    fn stuck_transactions_stretch_bus_cycles() {
        let plan = FaultPlan {
            bus: BusRates {
                stuck: 1.0,
                stuck_cycles: 40,
                ..BusRates::default()
            },
            ..FaultPlan::quiet()
        };
        let injector = shared(5);
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x100, Box::new(DrainFifo::new(8, 10)))
            .unwrap();
        bus.set_phy(Box::new(FaultyPhy::new(
            BusTiming::default(),
            plan,
            injector.clone(),
        )));
        let cycles = bus.write(fifo_regs::DATA, 1).unwrap();
        assert_eq!(cycles, BusTiming::default().transaction_cycles() + 40);
        assert_eq!(
            injector.borrow().records()[0].kind,
            FaultKind::StuckTransaction
        );
    }

    #[test]
    fn quiet_phy_reproduces_transaction_level_timing() {
        let injector = shared(5);
        let mut bare = SystemBus::new(BusTiming::default());
        bare.map(0x0, 0x100, Box::new(DrainFifo::new(8, 10)))
            .unwrap();
        let mut wrapped = SystemBus::new(BusTiming::default());
        wrapped
            .map(0x0, 0x100, Box::new(DrainFifo::new(8, 10)))
            .unwrap();
        wrapped.set_phy(Box::new(FaultyPhy::new(
            BusTiming::default(),
            FaultPlan::quiet(),
            injector,
        )));
        assert_eq!(
            bare.write(fifo_regs::DATA, 9).unwrap(),
            wrapped.write(fifo_regs::DATA, 9).unwrap()
        );
        assert_eq!(
            bare.read(fifo_regs::COUNT).unwrap(),
            wrapped.read(fifo_regs::COUNT).unwrap()
        );
    }

    #[derive(Debug)]
    struct IrqProbe {
        pending: bool,
    }

    impl BusSlave for IrqProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn read(&mut self, _offset: u32) -> u32 {
            0
        }
        fn write(&mut self, _offset: u32, value: u32) {
            self.pending = value != 0;
        }
        fn irq_pending(&self) -> bool {
            self.pending
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn irq_slave(irq: IrqRates, seed: u64) -> (FaultySlave, SharedInjector) {
        let injector = shared(seed);
        let plan = FaultPlan {
            irq,
            ..FaultPlan::quiet()
        };
        (
            FaultySlave::new(
                Box::new(IrqProbe { pending: false }),
                plan,
                injector.clone(),
            ),
            injector,
        )
    }

    #[test]
    fn dropped_irq_masks_a_pending_line() {
        let (mut slave, injector) = irq_slave(
            IrqRates {
                drop: 1.0,
                ..IrqRates::default()
            },
            11,
        );
        slave.write(0, 1);
        assert!(!slave.irq_pending(), "pending irq should be masked");
        assert_eq!(injector.borrow().records()[0].kind, FaultKind::IrqDropped);
    }

    #[test]
    fn duplicated_irq_replays_after_the_line_clears() {
        let (mut slave, injector) = irq_slave(
            IrqRates {
                duplicate: 1.0,
                ..IrqRates::default()
            },
            11,
        );
        slave.write(0, 1);
        assert!(slave.irq_pending());
        slave.write(0, 0); // acked: inner line drops
        assert!(slave.irq_pending(), "cleared irq should replay once");
        assert_eq!(
            injector.borrow().records()[0].kind,
            FaultKind::IrqDuplicated
        );
    }

    #[test]
    fn spurious_irq_asserts_an_idle_line() {
        let (slave, injector) = irq_slave(
            IrqRates {
                spurious: 1.0,
                ..IrqRates::default()
            },
            11,
        );
        assert!(slave.irq_pending(), "idle line should assert spuriously");
        assert_eq!(injector.borrow().records()[0].kind, FaultKind::IrqSpurious);
    }

    #[test]
    fn quiet_irq_path_is_transparent() {
        let (mut slave, injector) = irq_slave(IrqRates::default(), 11);
        assert!(!slave.irq_pending());
        slave.write(0, 1);
        assert!(slave.irq_pending());
        slave.write(0, 0);
        assert!(!slave.irq_pending());
        assert_eq!(injector.borrow().count(), 0);
    }
}
