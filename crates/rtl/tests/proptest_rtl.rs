//! Property-based tests for the hardware substrate: the event-driven
//! simulator must agree with a direct combinational evaluation on random
//! feed-forward netlists, the bus/FSMD invariants must hold for
//! arbitrary stimulus, and every device's closed-form
//! [`BusSlave::advance`] must land exactly where per-cycle ticking does —
//! in one catch-up or split in two, which is what lets the CPU pay its
//! devices late.

use codesign_ir::cdfg::OpKind;
use codesign_rtl::bus::{
    coproc_regs, fifo_regs, BusSlave, BusTiming, CoprocessorPort, DrainFifo, Ram, SystemBus, Timer,
};
use codesign_rtl::fsmd::{Fsmd, FsmdSim, MicroOp, Next, Operand, RegId, State, StateId};
use codesign_rtl::netlist::{GateKind, NetId, Netlist};
use codesign_rtl::sim::Simulator;
use codesign_rtl::state::{StateReader, StateWriter};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const GATES: [GateKind; 8] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
];

/// A random feed-forward netlist: every gate reads earlier nets only, so
/// a single topological pass is a correct reference evaluator.
#[derive(Debug, Clone)]
struct RandomNetlist {
    netlist: Netlist,
    inputs: Vec<NetId>,
    gate_inputs: Vec<(GateKind, Vec<NetId>, NetId)>,
}

fn arb_netlist() -> impl Strategy<Value = RandomNetlist> {
    let script = prop::collection::vec((0usize..8, any::<u64>(), any::<u64>(), 1u64..4), 1..40);
    (2usize..6, script).prop_map(|(n_inputs, script)| {
        let mut n = Netlist::new("prop");
        let inputs: Vec<NetId> = (0..n_inputs)
            .map(|i| n.add_input(format!("i{i}")))
            .collect();
        let mut nets = inputs.clone();
        let mut gate_inputs = Vec::new();
        for (gi, (kind_idx, a, b, delay)) in script.into_iter().enumerate() {
            let kind = GATES[kind_idx];
            let pick = |s: u64| nets[(s % nets.len() as u64) as usize];
            let ins: Vec<NetId> = match kind {
                GateKind::Not | GateKind::Buf => vec![pick(a)],
                _ => vec![pick(a), pick(b)],
            };
            let out = n.add_net(format!("g{gi}"));
            n.add_gate(kind, &ins, out, delay).expect("valid gate");
            gate_inputs.push((kind, ins, out));
            nets.push(out);
        }
        RandomNetlist {
            netlist: n,
            inputs,
            gate_inputs,
        }
    })
}

/// A device's checkpoint bytes: its whole mutable state.
fn state_of(dev: &dyn BusSlave) -> Vec<u8> {
    let mut w = StateWriter::new();
    dev.save_state(&mut w);
    w.into_bytes()
}

/// A timer in an arbitrary register state, including states a program
/// cannot reach through the bus (a `value` above `load`, a latched irq).
fn timer(load: u32, value: u32, ctrl: u8, irq: bool) -> Timer {
    let mut w = StateWriter::new();
    w.u32(load);
    w.u32(value);
    for bit in 0..3 {
        w.bool(ctrl >> bit & 1 == 1);
    }
    w.bool(irq);
    let bytes = w.into_bytes();
    let mut t = Timer::new();
    t.restore_state(&mut StateReader::new(&bytes))
        .expect("well-formed timer state");
    t
}

/// A co-processor port whose FSMD counts its operand down to zero, one
/// state per cycle, then raises `done`: optionally started and ticked
/// `pre_ticks` cycles, so catch-ups begin idle, mid-run or at `done`.
fn countdown_port(operand: u32, irq_enable: bool, start: bool, pre_ticks: u64) -> CoprocessorPort {
    let op = |op, args| MicroOp {
        dst: RegId(0),
        op,
        args,
    };
    let mut f = Fsmd::new("countdown", 1, 1, vec![RegId(0)]);
    let states = [
        State {
            ops: vec![op(OpKind::Add, vec![Operand::Input(0), Operand::Const(0)])],
            next: Next::Step,
        },
        State {
            ops: vec![op(
                OpKind::Sub,
                vec![Operand::Reg(RegId(0)), Operand::Const(1)],
            )],
            next: Next::BranchZero {
                reg: RegId(0),
                then_state: StateId(2),
                else_state: StateId(1),
            },
        },
        State {
            ops: Vec::new(),
            next: Next::Done,
        },
    ];
    for state in states {
        f.add_state(state).expect("valid state");
    }
    let mut port = CoprocessorPort::new(FsmdSim::new(f).expect("valid fsmd"));
    port.write(coproc_regs::INPUT_BASE, operand);
    port.write(coproc_regs::IRQ_ENABLE, u32::from(irq_enable));
    if start {
        port.write(coproc_regs::START, 1);
    }
    for _ in 0..pre_ticks {
        port.tick();
    }
    port
}

/// One `advance(n)`, and every split `advance(k); advance(n - k)`, leave
/// the checkpoint and irq line of `n` ticks — so a device may be caught
/// up late, in one call or several.
fn catch_ups_match_ticking<D: BusSlave>(
    fresh: impl Fn() -> D,
    n: u64,
) -> Result<(), TestCaseError> {
    let mut ticked = fresh();
    for _ in 0..n {
        ticked.tick();
    }
    let expected = (state_of(&ticked), ticked.irq_pending());
    let mut once = fresh();
    once.advance(n);
    prop_assert_eq!(&(state_of(&once), once.irq_pending()), &expected);
    for k in 0..=n {
        let mut split = fresh();
        split.advance(k);
        split.advance(n - k);
        prop_assert_eq!(&(state_of(&split), split.irq_pending()), &expected);
    }
    Ok(())
}

fn reference_eval(rn: &RandomNetlist, stimulus: u64) -> Vec<bool> {
    let mut values = vec![false; rn.netlist.net_count()];
    for (i, input) in rn.inputs.iter().enumerate() {
        values[input.index()] = (stimulus >> i) & 1 == 1;
    }
    for (kind, ins, out) in &rn.gate_inputs {
        let in_vals: Vec<bool> = ins.iter().map(|n| values[n.index()]).collect();
        values[out.index()] = kind.eval(&in_vals);
    }
    values
}

proptest! {
    /// After settling, every net equals the direct topological
    /// evaluation, for any stimulus sequence.
    #[test]
    fn event_simulation_matches_direct_evaluation(
        rn in arb_netlist(),
        stimuli in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut sim = Simulator::new(&rn.netlist).expect("builds");
        for stimulus in stimuli {
            for (i, input) in rn.inputs.iter().enumerate() {
                sim.set_input(*input, (stimulus >> i) & 1 == 1);
            }
            sim.settle().expect("feed-forward logic settles");
            let want = reference_eval(&rn, stimulus);
            for (_, _, out) in &rn.gate_inputs {
                prop_assert_eq!(sim.value(*out), want[out.index()]);
            }
        }
    }

    /// Re-applying the same stimulus is free: no new value-change events.
    #[test]
    fn idempotent_stimulus_costs_nothing(rn in arb_netlist(), stimulus in any::<u64>()) {
        let mut sim = Simulator::new(&rn.netlist).expect("builds");
        for (i, input) in rn.inputs.iter().enumerate() {
            sim.set_input(*input, (stimulus >> i) & 1 == 1);
        }
        sim.settle().expect("settles");
        let before = sim.events_processed();
        for (i, input) in rn.inputs.iter().enumerate() {
            sim.set_input(*input, (stimulus >> i) & 1 == 1);
        }
        sim.settle().expect("settles");
        prop_assert_eq!(sim.events_processed(), before);
    }

    /// RAM over the bus behaves like memory: the last write to each
    /// word-aligned address wins.
    #[test]
    fn bus_ram_is_last_write_wins(
        writes in prop::collection::vec((0u32..64, any::<u32>()), 1..40),
    ) {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x100, Box::new(Ram::new("ram", 0x100))).expect("maps");
        let mut model = std::collections::BTreeMap::new();
        for (word, value) in writes {
            bus.write(word * 4, value).expect("in range");
            model.insert(word, value);
        }
        for (word, value) in model {
            let (got, _) = bus.read(word * 4).expect("in range");
            prop_assert_eq!(got, value);
        }
    }

    /// Bus statistics exactly count transactions.
    #[test]
    fn bus_stats_count_transactions(reads in 0u64..20, writes in 0u64..20) {
        let mut bus = SystemBus::new(BusTiming::default());
        bus.map(0x0, 0x100, Box::new(Ram::new("ram", 0x100))).expect("maps");
        for i in 0..writes {
            bus.write(((i * 4) % 0x100) as u32, i as u32).expect("ok");
        }
        for i in 0..reads {
            bus.read(((i * 4) % 0x100) as u32).expect("ok");
        }
        let s = bus.stats();
        prop_assert_eq!(s.reads, reads);
        prop_assert_eq!(s.writes, writes);
        let per = BusTiming::default().transaction_cycles();
        prop_assert_eq!(s.busy_cycles, (reads + writes) * per);
    }

    /// A FIFO caught up by `advance(n)` matches one ticked `n` times —
    /// words drained, occupancy, the tail-drain estimate and the whole
    /// checkpoint, also when the catch-up is split in two — for every `n`
    /// up to three drain periods, exact multiples included, from any
    /// in-flight countdown.
    #[test]
    fn drain_fifo_advance_matches_ticking(
        capacity in 1usize..8,
        period in 1u64..10,
        words in 0u32..10,
        pre_ticks in 0u64..12,
    ) {
        let fresh = || {
            let mut fifo = DrainFifo::new(capacity, period);
            for v in 0..words {
                fifo.write(fifo_regs::DATA, v);
            }
            for _ in 0..pre_ticks {
                fifo.tick();
            }
            fifo
        };
        for n in 0..=3 * period {
            let (mut ticked, mut advanced) = (fresh(), fresh());
            for _ in 0..n {
                ticked.tick();
            }
            advanced.advance(n);
            prop_assert_eq!(advanced.drained(), ticked.drained());
            prop_assert_eq!(advanced.occupancy(), ticked.occupancy());
            prop_assert_eq!(advanced.cycles_to_drain(), ticked.cycles_to_drain());
            catch_ups_match_ticking(fresh, n)?;
        }
    }

    /// A timer caught up by `advance(n)`, or split in two, matches one
    /// ticked `n` times over every CTRL bit combination, `load` and
    /// `value` including 0, auto-reload on and off, and every `n` up to
    /// three reload periods.
    #[test]
    fn timer_advance_matches_ticking(
        load in 0u32..8,
        value in 0u32..10,
        irq in any::<bool>(),
    ) {
        for ctrl in 0..8u8 {
            let period = u64::from(load.max(value).max(1));
            for n in 0..=3 * period {
                catch_ups_match_ticking(|| timer(load, value, ctrl, irq), n)?;
            }
        }
    }

    /// A co-processor caught up in one step, or split in two, matches
    /// one ticked cycle by cycle — FSMD registers, state, cycle count and
    /// the done interrupt — idle, mid-run and past `done`.
    #[test]
    fn coprocessor_advance_matches_ticking(
        operand in 1u32..6,
        irq_enable in any::<bool>(),
        start in any::<bool>(),
        pre_ticks in 0u64..4,
    ) {
        for n in 0..=2 * (u64::from(operand) + 2) {
            catch_ups_match_ticking(|| countdown_port(operand, irq_enable, start, pre_ticks), n)?;
        }
    }
}
