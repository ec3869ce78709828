//! Golden results of the gate-level event kernel
//! (`codesign_rtl::sim::Simulator`) and of the pin-level bus phy built
//! on it.
//!
//! The constants were recorded from the binary-heap event queue the
//! per-timestamp bucket queue replaced. Seeded random netlists with gate
//! delays 0–4 (zero-delay chains included), flip-flop feedback, and the
//! inertial-glitch shape of an XOR fed by a fast and a slow path are
//! driven by a seeded stimulus script. Matching the constants bit for
//! bit keeps every event popping in the same `(time, seq)` order and
//! every inertial cancellation landing on the same transition: a kernel
//! change that reorders one tie or revives one cancelled transition
//! moves an event count, a net value, a queue-head time or a waveform
//! byte.

use codesign_rtl::bus::BusPhy;
use codesign_rtl::netlist::{GateKind, NetId, Netlist};
use codesign_rtl::sim::Simulator;
use codesign_rtl::state::{fnv1a_bytes, StateReader, StateWriter};
use codesign_sim::pinproto::PinPhy;

fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

/// A generated design: the netlist, its primary inputs, and every net.
struct Design {
    netlist: Netlist,
    inputs: Vec<NetId>,
    nets: Vec<NetId>,
}

const KINDS: [GateKind; 9] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Not,
    GateKind::Buf,
    GateKind::Mux2,
];

/// A feed-forward gate network over 6 inputs and 3 flip-flop outputs,
/// with flip-flops closing sequential loops. A third of the gates have
/// zero delay, so zero-delay chains form; the rest take 1–4.
fn random_design(seed: u64) -> Design {
    let mut s = seed;
    let mut n = Netlist::new(format!("rand{seed}"));
    let inputs: Vec<NetId> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
    let qs: Vec<NetId> = (0..3).map(|i| n.add_net(format!("q{i}"))).collect();
    let mut pool: Vec<NetId> = inputs.iter().chain(&qs).copied().collect();
    for g in 0..40 {
        let kind = KINDS[below(&mut s, KINDS.len() as u64) as usize];
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Xor | GateKind::Xnor => 2,
            GateKind::Mux2 => 3,
            _ => 2 + below(&mut s, 2) as usize,
        };
        let ins: Vec<NetId> = (0..arity)
            .map(|_| pool[below(&mut s, pool.len() as u64) as usize])
            .collect();
        let delay = if below(&mut s, 3) == 0 {
            0
        } else {
            1 + below(&mut s, 4)
        };
        let out = n.add_net(format!("g{g}"));
        n.add_gate(kind, &ins, out, delay).unwrap();
        pool.push(out);
    }
    for &q in &qs {
        let d = pool[below(&mut s, pool.len() as u64) as usize];
        n.add_dff(d, q, below(&mut s, 2) == 1).unwrap();
    }
    Design {
        netlist: n,
        inputs,
        nets: pool,
    }
}

/// Unequal path delays into an XOR: an input edge pulses the output for
/// the length of the slow path, and a second edge inside that window is
/// swallowed by inertial cancellation.
fn glitch_design() -> Design {
    let mut n = Netlist::new("glitch");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let slow1 = n.add_net("s1");
    let slow2 = n.add_net("s2");
    n.add_gate(GateKind::Buf, &[a], slow1, 3).unwrap();
    n.add_gate(GateKind::Buf, &[slow1], slow2, 3).unwrap();
    let out = n.add_net("out");
    n.add_gate(GateKind::Xor, &[a, slow2], out, 1).unwrap();
    let gated = n.add_net("gated");
    n.add_gate(GateKind::And, &[out, b], gated, 0).unwrap();
    let q = n.add_net("q");
    n.add_dff(gated, q, false).unwrap();
    Design {
        netlist: n,
        inputs: vec![a, b],
        nets: vec![a, b, slow1, slow2, out, gated, q],
    }
}

/// One scripted stimulus step.
#[derive(Debug, Clone, Copy)]
enum Step {
    Set(usize, bool),
    RunFor(u64),
    Clock,
    Settle,
}

fn script(seed: u64, inputs: usize, len: usize) -> Vec<Step> {
    let mut s = seed ^ 0x5EED;
    (0..len)
        .map(|_| match below(&mut s, 8) {
            0..=3 => Step::Set(below(&mut s, inputs as u64) as usize, below(&mut s, 2) == 1),
            4 | 5 => Step::RunFor(below(&mut s, 7)),
            6 => Step::Clock,
            _ => Step::Settle,
        })
        .collect()
}

/// Applies `steps`, appending the queue head after every `run_for`.
fn apply(sim: &mut Simulator, d: &Design, steps: &[Step], heads: &mut Vec<Option<u64>>) {
    for &step in steps {
        match step {
            Step::Set(i, v) => sim.set_input(d.inputs[i], v),
            Step::RunFor(t) => {
                sim.run_for(t).unwrap();
                heads.push(sim.next_event_time());
            }
            Step::Clock => sim.clock_cycle(8).unwrap(),
            Step::Settle => sim.settle().unwrap(),
        }
    }
}

/// What a scripted run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    events: u64,
    /// Final values of every net, `0`/`1` in creation order.
    values: String,
    /// FNV-1a of the queue-head times after each `run_for`.
    heads: u64,
    /// FNV-1a of the VCD dump.
    vcd: u64,
}

fn observe(d: &Design, seed: u64) -> Observed {
    let mut sim = Simulator::new(&d.netlist).unwrap();
    sim.enable_tracing();
    let mut heads = Vec::new();
    apply(&mut sim, d, &script(seed, d.inputs.len(), 400), &mut heads);
    let mut vcd = Vec::new();
    sim.write_vcd(&mut vcd).unwrap();
    Observed {
        events: sim.events_processed(),
        values: d
            .nets
            .iter()
            .map(|&n| if sim.value(n) { '1' } else { '0' })
            .collect(),
        heads: fnv1a_bytes(format!("{heads:?}").as_bytes()),
        vcd: fnv1a_bytes(&vcd),
    }
}

fn designs() -> Vec<(u64, Design)> {
    let mut all: Vec<(u64, Design)> = [1u64, 2, 3, 0xDAC]
        .into_iter()
        .map(|seed| (seed, random_design(seed)))
        .collect();
    all.push((7, glitch_design()));
    all
}

/// (events, values, heads digest, VCD digest) per design, in
/// [`designs`] order.
const GOLDEN: [(u64, &str, u64, u64); 5] = [
    (
        691,
        "1011101101000100110010110101101110110100101000011",
        10128510294189353515,
        1182243328423951093,
    ),
    (
        1484,
        "1011101101101111010000101000100101101011010111000",
        1151291934762443632,
        6521275432993682875,
    ),
    (
        699,
        "0011101010000100111000010110110010110000111101011",
        5024806937706425580,
        17737491471302353632,
    ),
    (
        612,
        "1000010011010101010100110101101110000001100010001",
        9696725016312562724,
        5033312352946835805,
    ),
    (199, "1011000", 15811753535404907142, 11408207349237529400),
];

#[test]
fn scripted_runs_reproduce_the_heap_kernel() {
    for ((seed, d), &(events, values, heads, vcd)) in designs().iter().zip(&GOLDEN) {
        let want = Observed {
            events,
            values: values.to_string(),
            heads,
            vcd,
        };
        assert_eq!(observe(d, *seed), want, "design {}", d.netlist.name());
    }
}

#[test]
fn mid_run_restore_ends_bit_identical_to_a_straight_run() {
    for (seed, d) in designs() {
        let steps = script(seed, d.inputs.len(), 400);
        let (first, second) = steps.split_at(steps.len() / 2);
        let mut straight = Simulator::new(&d.netlist).unwrap();
        let mut heads = Vec::new();
        apply(&mut straight, &d, first, &mut heads);
        let mut w = StateWriter::new();
        straight.save_state(&mut w);
        let blob = w.into_bytes();
        let mut restored = Simulator::new(&d.netlist).unwrap();
        let mut r = StateReader::new(&blob);
        restored.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        apply(&mut straight, &d, second, &mut heads);
        apply(&mut restored, &d, second, &mut Vec::new());
        let end = |sim: &Simulator| {
            let mut w = StateWriter::new();
            sim.save_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            end(&straight),
            end(&restored),
            "design {}",
            d.netlist.name()
        );
        assert_eq!(straight.events_processed(), restored.events_processed());
    }
}

/// The pin phy's cumulative event count after each of 64 scripted
/// transactions (FNV-1a of the list), the final count, and the summed
/// bus cycles.
const PIN_GOLDEN: (u64, u64, u64) = (14316066150688119112, 2203, 289);

#[test]
fn pin_phy_event_counts_reproduce_the_heap_kernel() {
    let mut phy = PinPhy::new(&[(0x0000, 0x100), (0x0100, 0x100), (0x1000, 0x1000)]).unwrap();
    let mut s = 0xB05u64;
    let mut counts = Vec::new();
    let mut cycles = 0;
    for _ in 0..64 {
        let addr = [0x0000u32, 0x0104, 0x1000, 0x1FFC][below(&mut s, 4) as usize];
        let value = next(&mut s) as u32;
        cycles += phy.transaction(addr, below(&mut s, 2) == 1, value, below(&mut s, 4));
        counts.push(phy.events());
    }
    assert_eq!(
        (
            fnv1a_bytes(format!("{counts:?}").as_bytes()),
            phy.events(),
            cycles
        ),
        PIN_GOLDEN
    );
}
