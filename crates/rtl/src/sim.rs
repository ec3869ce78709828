//! Discrete-event simulation of gate-level netlists.
//!
//! The kernel follows HDL semantics: a value change on a net schedules
//! every gate in its fanout; a gate whose newly computed output differs
//! from the net's current value schedules a change `delay` time units
//! later. Zero-delay changes are processed as *delta cycles* within the
//! same timestamp, with an iteration limit that detects combinational
//! loops. Flip-flops are clocked by [`Simulator::clock_cycle`], which
//! samples every `d` input and then applies the `q` updates atomically —
//! the standard two-phase synchronous discipline.
//!
//! The simulator keeps an event counter ([`Simulator::events_processed`]):
//! pin-level co-simulation cost is measured in processed events, which is
//! the "computationally expensive" currency the paper attributes to
//! modeling "activity on the pins" (Section 3.1).

use std::collections::VecDeque;

use crate::error::RtlError;
use crate::netlist::{NetId, Netlist};
use crate::state::{StateReader, StateWriter};

/// Maximum delta iterations per timestamp before declaring oscillation.
const DELTA_LIMIT: usize = 1_000;

/// A queued transition. Its time is the time of the bucket holding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    seq: u64,
    net: NetId,
    value: bool,
}

/// Every transition queued for one timestamp, in `seq` order.
#[derive(Debug)]
struct Bucket {
    time: u64,
    events: Vec<Event>,
}

/// An event-driven simulator owning a snapshot of a [`Netlist`].
///
/// Gate outputs follow *inertial delay* semantics: when a gate
/// re-evaluates, pending transitions of its output scheduled at or after
/// the new transition's time are cancelled, so a glitch narrower than
/// the gate delay is swallowed while wider pulses propagate.
///
/// The event queue is a list of per-timestamp FIFO buckets sorted by
/// time. Every queued time lies in `[time, time + max gate delay]`, so
/// the list stays short, and sequence numbers are handed out in append
/// order, so popping each bucket front to back pops events in
/// `(time, seq)` order. A cancelled transition stays in its bucket; it
/// is live exactly while its `seq` is still in its net's `pending`
/// list, which is what the pop path checks.
#[derive(Debug)]
pub struct Simulator {
    netlist: Netlist,
    values: Vec<bool>,
    /// net index -> indices of gates with that net as an input
    fanout: Vec<Vec<usize>>,
    /// Largest gate delay: the width of the window queued times lie in.
    max_delay: u64,
    queue: VecDeque<Bucket>,
    /// Emptied bucket storage, reused by the next new timestamp.
    spare: Vec<Vec<Event>>,
    /// per net: in-flight transitions `(time, seq, value)`, times
    /// strictly increasing
    pending: Vec<Vec<(u64, u64, bool)>>,
    time: u64,
    seq: u64,
    events: u64,
    /// recorded value changes `(time, net, value)` when tracing
    trace: Option<Vec<(u64, NetId, bool)>>,
    /// Scratch buffers reused across evaluations, deltas and clocks.
    ins: Vec<bool>,
    changed: Vec<NetId>,
    gates: Vec<usize>,
    sampled: Vec<(NetId, bool)>,
}

impl Simulator {
    /// Creates a simulator for the given netlist. Flip-flop outputs start
    /// at their declared `init` values; all other nets start low.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::UnknownNet`] if the netlist is internally
    /// inconsistent (cannot happen for netlists built through the public
    /// [`Netlist`] API).
    pub fn new(netlist: &Netlist) -> Result<Self, RtlError> {
        let n = netlist.net_count();
        let mut fanout: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (gi, gate) in netlist.gates().iter().enumerate() {
            for input in &gate.inputs {
                if input.index() >= n {
                    return Err(RtlError::UnknownNet {
                        index: input.index(),
                    });
                }
                fanout[input.index()].push(gi);
            }
        }
        let mut values = vec![false; n];
        for dff in netlist.dffs() {
            values[dff.q.index()] = dff.init;
        }
        let mut sim = Simulator {
            netlist: netlist.clone(),
            values,
            fanout,
            max_delay: netlist.gates().iter().map(|g| g.delay).max().unwrap_or(0),
            queue: VecDeque::new(),
            spare: Vec::new(),
            pending: vec![Vec::new(); n],
            time: 0,
            seq: 0,
            events: 0,
            trace: None,
            ins: Vec::new(),
            changed: Vec::new(),
            gates: Vec::new(),
            sampled: Vec::new(),
        };
        // Evaluate all gates once so outputs become consistent with the
        // initial input values as soon as the caller settles or runs.
        for gi in 0..sim.netlist.gates().len() {
            sim.schedule_gate(gi);
        }
        Ok(sim)
    }

    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Total value-change events processed since construction.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Time of the event-queue head — the earliest queued transition, if
    /// any. The head may be a cancelled transition, in which case
    /// this is an earlier-or-equal lower bound on the true next activity;
    /// either way nothing can happen strictly before the returned time,
    /// which is exactly what a conservative co-simulation lookahead hint
    /// needs. `None` means the netlist is fully quiescent.
    #[must_use]
    pub fn next_event_time(&self) -> Option<u64> {
        self.queue.front().map(|b| b.time)
    }

    /// Current value of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the simulated netlist.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Reads a bus of nets (LSB first) as an integer.
    #[must_use]
    pub fn bus_value(&self, bits: &[NetId]) -> u64 {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| u64::from(self.value(b)) << i)
            .sum()
    }

    /// Drives a primary input at the current time.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.schedule(self.time, net, value);
    }

    /// Drives a bus of primary inputs (LSB first) from an integer.
    pub fn set_bus(&mut self, bits: &[NetId], value: u64) {
        for (i, &b) in bits.iter().enumerate() {
            self.set_input(b, (value >> i) & 1 == 1);
        }
    }

    /// Schedules a transition with inertial-delay cancellation: pending
    /// transitions of `net` at or after `time` are cancelled first, and
    /// the new transition is only queued if it changes the value the net
    /// would otherwise hold at `time`.
    fn schedule(&mut self, time: u64, net: NetId, value: bool) {
        let pend = &mut self.pending[net.index()];
        while pend.last().is_some_and(|&(t, _, _)| t >= time) {
            pend.pop();
        }
        let projected = pend.last().map_or(self.values[net.index()], |&(_, _, v)| v);
        if value == projected {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        pend.push((time, seq, value));
        self.enqueue(time, Event { seq, net, value });
    }

    /// Appends `ev` to the bucket for `time`, creating the bucket if
    /// this is the first transition queued for that timestamp.
    fn enqueue(&mut self, time: u64, ev: Event) {
        match self.queue.binary_search_by_key(&time, |b| b.time) {
            Ok(i) => self.queue[i].events.push(ev),
            Err(i) => {
                let mut events = self.spare.pop().unwrap_or_default();
                events.push(ev);
                self.queue.insert(i, Bucket { time, events });
            }
        }
    }

    fn schedule_gate(&mut self, gi: usize) {
        let gate = &self.netlist.gates()[gi];
        self.ins.clear();
        self.ins
            .extend(gate.inputs.iter().map(|n| self.values[n.index()]));
        let out = gate.kind.eval(&self.ins);
        let (t, net) = (self.time + gate.delay, gate.output);
        self.schedule(t, net, out);
    }

    /// Processes events until the queue is empty, advancing time as
    /// needed. This settles all combinational activity.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::Oscillation`] if a zero-delay loop prevents the
    /// logic from settling.
    pub fn settle(&mut self) -> Result<(), RtlError> {
        while let Some(t) = self.next_event_time() {
            self.time = self.time.max(t);
            self.process_timestamp()?;
        }
        Ok(())
    }

    /// Runs for `duration` time units (processing every event scheduled in
    /// the window), leaving later events pending.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::Oscillation`] if a zero-delay loop prevents the
    /// logic from settling.
    pub fn run_for(&mut self, duration: u64) -> Result<(), RtlError> {
        let deadline = self.time + duration;
        while let Some(t) = self.next_event_time() {
            if t > deadline {
                break;
            }
            self.time = t;
            self.process_timestamp()?;
        }
        self.time = deadline;
        Ok(())
    }

    /// Processes all events at the current earliest timestamp, including
    /// delta iterations caused by zero-delay gates.
    fn process_timestamp(&mut self) -> Result<(), RtlError> {
        let Some(now) = self.next_event_time() else {
            return Ok(());
        };
        self.time = now;
        let mut deltas = 0usize;
        loop {
            // Everything queued at `now` so far; zero-delay responses to
            // this delta land in a fresh bucket at `now`.
            let Some(mut bucket) = self.queue.pop_front() else {
                return Ok(());
            };
            self.changed.clear();
            for &ev in &bucket.events {
                let pend = &mut self.pending[ev.net.index()];
                // Pending times strictly increase and none lies before
                // `now`, so a live event is its net's first entry.
                if pend.first().is_none_or(|&(_, s, _)| s != ev.seq) {
                    continue;
                }
                pend.remove(0);
                if self.values[ev.net.index()] != ev.value {
                    self.values[ev.net.index()] = ev.value;
                    self.events += 1;
                    if let Some(trace) = &mut self.trace {
                        trace.push((now, ev.net, ev.value));
                    }
                    self.changed.push(ev.net);
                }
            }
            bucket.events.clear();
            self.spare.push(bucket.events);
            if self.changed.is_empty() {
                return Ok(());
            }
            deltas += 1;
            if deltas > DELTA_LIMIT {
                return Err(RtlError::Oscillation { time: now });
            }
            self.gates.clear();
            for n in &self.changed {
                self.gates.extend_from_slice(&self.fanout[n.index()]);
            }
            self.gates.sort_unstable();
            self.gates.dedup();
            for i in 0..self.gates.len() {
                self.schedule_gate(self.gates[i]);
            }
            // Zero-delay outputs landed back at `now`; loop to absorb them.
            if self.next_event_time() != Some(now) {
                return Ok(());
            }
        }
    }

    /// Serializes the mutable simulation state: time, counters, net
    /// values, and the in-flight (non-cancelled) transitions. Static
    /// structure (the netlist, fanout) is not written; a checkpoint
    /// restores into a simulator built from the same netlist. Cancelled
    /// events are dropped — they are behavioral no-ops — so
    /// identical logical state always serializes to identical bytes.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.time);
        w.u64(self.seq);
        w.u64(self.events);
        w.seq(self.values.len());
        for &v in &self.values {
            w.bool(v);
        }
        w.seq(self.pending.len());
        for pend in &self.pending {
            w.seq(pend.len());
            for &(t, seq, v) in pend {
                w.u64(t);
                w.u64(seq);
                w.bool(v);
            }
        }
    }

    /// Restores state captured by [`Simulator::save_state`] into a
    /// simulator over the same netlist. The event queue is rebuilt from
    /// the live transitions; original sequence numbers are preserved so
    /// tie-breaking (and therefore every future event ordering) matches
    /// the uninterrupted run exactly.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::State`] on truncated bytes, a net-count
    /// mismatch (checkpoint from a structurally different netlist),
    /// counters no run could reach (`seq` at or past 2^63, more events
    /// than scheduled transitions), or a pending transition no run could
    /// have left: a `seq` not below the restored `seq`, a time outside
    /// `[time, time + max gate delay]`, or times that do not strictly
    /// increase along a net. The simulator is unchanged on error.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RtlError> {
        let bad = |reason: String| RtlError::State { reason };
        let time = r.u64()?;
        let seq = r.u64()?;
        let events = r.u64()?;
        // 2^63 transitions is centuries of simulation at any host speed.
        if seq >= 1 << 63 || events > seq {
            return Err(bad(format!("counters seq {seq}, events {events}")));
        }
        let n = r.seq(Some(self.values.len()))?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(r.bool()?);
        }
        let horizon = time.saturating_add(self.max_delay);
        let pn = r.seq(Some(self.pending.len()))?;
        let mut pending: Vec<Vec<(u64, u64, bool)>> = Vec::with_capacity(pn);
        let mut live: Vec<(u64, u64, NetId, bool)> = Vec::new();
        for ni in 0..pn {
            let k = r.seq(None)?;
            // Strictly increasing times in a window of `max_delay + 1`
            // timestamps bound the count before anything is allocated.
            if u64::try_from(k).map_or(true, |k| k > self.max_delay.saturating_add(1)) {
                return Err(bad(format!("net {ni}: {k} pending transitions")));
            }
            let mut pend = Vec::with_capacity(k);
            for _ in 0..k {
                let (t, s, v) = (r.u64()?, r.u64()?, r.bool()?);
                if s >= seq {
                    return Err(bad(format!("net {ni}: pending seq {s} >= seq {seq}")));
                }
                if t < time || t > horizon {
                    return Err(bad(format!(
                        "net {ni}: pending time {t} outside [{time}, {horizon}]"
                    )));
                }
                if pend.last().is_some_and(|&(last, _, _)| last >= t) {
                    return Err(bad(format!("net {ni}: pending times not increasing")));
                }
                pend.push((t, s, v));
                live.push((t, s, NetId(ni as u32), v));
            }
            pending.push(pend);
        }
        self.time = time;
        self.seq = seq;
        self.events = events;
        self.values = values;
        self.pending = pending;
        // Cancelled transitions were dropped at save time; the live ones
        // re-enter the buckets in `(time, seq)` order.
        live.sort_unstable_by_key(|&(t, s, net, _)| (t, s, net));
        for mut bucket in self.queue.drain(..) {
            bucket.events.clear();
            self.spare.push(bucket.events);
        }
        for (t, s, net, value) in live {
            self.enqueue(t, Event { seq: s, net, value });
        }
        Ok(())
    }

    /// Starts recording value changes for [`Simulator::write_vcd`].
    /// Changes before this call are not recorded; call immediately after
    /// construction for a complete waveform.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Writes the recorded waveform as a Value Change Dump (IEEE 1364
    /// `$var wire` format), readable by GTKWave and friends.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    ///
    /// # Panics
    ///
    /// Panics if tracing was never enabled.
    pub fn write_vcd<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let trace = self
            .trace
            .as_ref()
            .expect("call enable_tracing() before write_vcd()");
        // Identifier codes: base-94 over the printable ASCII range.
        fn code(mut i: usize) -> String {
            let mut s = String::new();
            loop {
                s.push((b'!' + (i % 94) as u8) as char);
                i /= 94;
                if i == 0 {
                    break;
                }
            }
            s
        }
        writeln!(w, "$timescale 1ns $end")?;
        writeln!(w, "$scope module {} $end", self.netlist.name())?;
        for i in 0..self.netlist.net_count() {
            let name = self.netlist.net_name(NetId(i as u32)).replace(' ', "_");
            writeln!(w, "$var wire 1 {} {name} $end", code(i))?;
        }
        writeln!(w, "$upscope $end")?;
        writeln!(w, "$enddefinitions $end")?;
        // Initial values: everything that never changed holds its current
        // value; reconstruct t=0 values by rewinding the trace.
        let mut initial = self.values.clone();
        for &(_, net, value) in trace.iter().rev() {
            initial[net.index()] = !value;
        }
        writeln!(w, "#0")?;
        writeln!(w, "$dumpvars")?;
        for (i, &v) in initial.iter().enumerate() {
            writeln!(w, "{}{}", u8::from(v), code(i))?;
        }
        writeln!(w, "$end")?;
        let mut last_time = 0;
        for &(t, net, value) in trace {
            if t != last_time {
                writeln!(w, "#{t}")?;
                last_time = t;
            }
            writeln!(w, "{}{}", u8::from(value), code(net.index()))?;
        }
        Ok(())
    }

    /// Executes one synchronous clock cycle: samples every flip-flop's `d`
    /// input, advances time by `period`, applies the sampled values to the
    /// `q` outputs, and settles the resulting combinational activity.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::Oscillation`] if combinational logic cannot
    /// settle within the cycle.
    pub fn clock_cycle(&mut self, period: u64) -> Result<(), RtlError> {
        // Everything still in flight this cycle must settle first.
        self.run_for(period)?;
        self.sampled.clear();
        self.sampled.extend(
            self.netlist
                .dffs()
                .iter()
                .map(|dff| (dff.q, self.values[dff.d.index()])),
        );
        for i in 0..self.sampled.len() {
            let (q, v) = self.sampled[i];
            self.schedule(self.time, q, v);
        }
        self.settle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateKind;

    #[test]
    fn full_adder_truth_table() {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let (sum, cout) = n.full_adder(a, b, c).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        for bits in 0..8u8 {
            let (x, y, z) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            sim.set_input(a, x);
            sim.set_input(b, y);
            sim.set_input(c, z);
            sim.settle().unwrap();
            let total = u8::from(x) + u8::from(y) + u8::from(z);
            assert_eq!(sim.value(sum), total & 1 == 1, "sum for {bits:03b}");
            assert_eq!(sim.value(cout), total >= 2, "cout for {bits:03b}");
        }
    }

    #[test]
    fn next_event_time_tracks_queue_head() {
        let mut n = Netlist::new("inv");
        let a = n.add_input("a");
        let q = n.add_net("q");
        n.add_gate(GateKind::Not, &[a], q, 3).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.next_event_time(), None, "quiescent after settle");
        let t0 = sim.time();
        sim.set_input(a, true);
        assert_eq!(sim.next_event_time(), Some(t0), "input edge queued now");
        // Absorb the input edge; the inverter's response is one gate delay
        // out and nothing can happen before it — a valid conservative
        // lookahead hint.
        sim.run_for(0).unwrap();
        assert_eq!(sim.next_event_time(), Some(t0 + 3));
        sim.settle().unwrap();
        assert!(!sim.value(q));
        assert_eq!(sim.next_event_time(), None);
    }

    #[test]
    fn ripple_adder_adds() {
        let mut n = Netlist::new("add8");
        let a: Vec<_> = (0..8).map(|i| n.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..8).map(|i| n.add_input(format!("b{i}"))).collect();
        let zero = n.add_input("cin");
        let (sum, cout) = n.ripple_adder(&a, &b, zero).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        for (x, y) in [(3u64, 4u64), (200, 100), (255, 1), (0, 0), (127, 128)] {
            sim.set_bus(&a, x);
            sim.set_bus(&b, y);
            sim.settle().unwrap();
            let total = x + y;
            assert_eq!(sim.bus_value(&sum), total & 0xff, "{x}+{y}");
            assert_eq!(sim.value(cout), total > 0xff, "carry {x}+{y}");
        }
    }

    #[test]
    fn equals_const_decodes() {
        let mut n = Netlist::new("dec");
        let bits: Vec<_> = (0..4).map(|i| n.add_input(format!("a{i}"))).collect();
        let hit = n.equals_const(&bits, 0b1010).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        for v in 0..16u64 {
            sim.set_bus(&bits, v);
            sim.settle().unwrap();
            assert_eq!(sim.value(hit), v == 0b1010, "value {v}");
        }
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut n = Netlist::new("reg");
        let d = n.add_input("d");
        let q = n.add_net("q");
        n.add_dff(d, q, false).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(d, true);
        sim.settle().unwrap();
        assert!(!sim.value(q), "q unchanged before clock");
        sim.clock_cycle(10).unwrap();
        assert!(sim.value(q), "q captured d after clock");
        sim.set_input(d, false);
        sim.clock_cycle(10).unwrap();
        assert!(!sim.value(q));
    }

    #[test]
    fn toggle_flop_divides_by_two() {
        // q feeds back through an inverter: classic divide-by-two.
        let mut n = Netlist::new("tff");
        let q = n.add_net("q");
        let nq = n.add_net("nq");
        n.add_gate(GateKind::Not, &[q], nq, 1).unwrap();
        n.add_dff(nq, q, false).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        let mut values = Vec::new();
        for _ in 0..4 {
            sim.clock_cycle(10).unwrap();
            values.push(sim.value(q));
        }
        assert_eq!(values, vec![true, false, true, false]);
    }

    #[test]
    fn zero_delay_loop_oscillates() {
        // A zero-delay inverter feeding itself can never settle.
        let mut n = Netlist::new("osc");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_gate(GateKind::Not, &[x], y, 0).unwrap();
        n.add_gate(GateKind::Buf, &[y], x, 0).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        assert!(matches!(sim.settle(), Err(RtlError::Oscillation { .. })));
    }

    #[test]
    fn delayed_loop_is_a_ring_oscillator_not_an_error() {
        // With nonzero delay the loop oscillates in *time*, which is legal;
        // run_for should advance through several periods.
        let mut n = Netlist::new("ring");
        let x = n.add_net("x");
        let y = n.add_net("y");
        n.add_gate(GateKind::Not, &[x], y, 5).unwrap();
        n.add_gate(GateKind::Buf, &[y], x, 5).unwrap();
        let mut sim = Simulator::new(&n).unwrap_or_else(|e| panic!("{e}"));
        // new() settles only same-time deltas; future events remain.
        sim.run_for(100).unwrap();
        assert!(sim.events_processed() > 10, "ring keeps toggling");
    }

    #[test]
    fn event_count_tracks_activity() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..10 {
            let next = n.add_net(format!("n{i}"));
            n.add_gate(GateKind::Not, &[prev], next, 1).unwrap();
            prev = next;
        }
        let mut sim = Simulator::new(&n).unwrap();
        let before = sim.events_processed();
        sim.set_input(a, true);
        sim.settle().unwrap();
        // One event per stage of the inverter chain plus the input itself.
        assert!(sim.events_processed() - before >= 11);
    }

    #[test]
    fn glitch_propagation_costs_events() {
        // Unequal path delays to an XOR create a glitch: more events than
        // a steady-state evaluation would need.
        let mut n = Netlist::new("glitch");
        let a = n.add_input("a");
        let slow1 = n.add_net("s1");
        let slow2 = n.add_net("s2");
        n.add_gate(GateKind::Buf, &[a], slow1, 3).unwrap();
        n.add_gate(GateKind::Buf, &[slow1], slow2, 3).unwrap();
        let out = n.add_net("out");
        n.add_gate(GateKind::Xor, &[a, slow2], out, 1).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(a, true);
        sim.settle().unwrap();
        // Final value: a ^ a = 0, but the glitch pulsed out high then low.
        assert!(!sim.value(out));
        assert!(sim.events_processed() >= 5);
    }

    #[test]
    fn vcd_dump_contains_header_and_changes() {
        let mut n = Netlist::new("half_adder");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let sum = n.add_net("sum");
        let carry = n.add_net("carry");
        n.add_gate(GateKind::Xor, &[a, b], sum, 1).unwrap();
        n.add_gate(GateKind::And, &[a, b], carry, 1).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.enable_tracing();
        sim.set_input(a, true);
        sim.settle().unwrap();
        sim.run_for(5).unwrap();
        sim.set_input(b, true);
        sim.settle().unwrap();

        let mut vcd = Vec::new();
        sim.write_vcd(&mut vcd).unwrap();
        let text = String::from_utf8(vcd).unwrap();
        assert!(text.contains("$timescale 1ns $end"));
        assert!(text.contains("$scope module half_adder $end"));
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$var wire 1 $ carry $end"));
        assert!(text.contains("$dumpvars"));
        // Timestamps strictly increase.
        let stamps: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix('#'))
            .map(|t| t.parse().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        // Replaying the dump reproduces the final simulator state.
        let mut values = std::collections::HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix('0') {
                if !rest.is_empty() && !line.starts_with("$") {
                    values.insert(rest.to_string(), false);
                }
            } else if let Some(rest) = line.strip_prefix('1') {
                if !rest.is_empty() {
                    values.insert(rest.to_string(), true);
                }
            }
        }
        assert_eq!(values.get("!"), Some(&true), "a high");
        assert_eq!(values.get("\""), Some(&true), "b high");
        assert_eq!(values.get("#"), Some(&false), "sum = a^b = 0");
        assert_eq!(values.get("$"), Some(&true), "carry = a&b = 1");
    }

    /// A checkpoint blob in `save_state`'s layout.
    fn blob(time: u64, seq: u64, events: u64, pending: &[&[(u64, u64, bool)]]) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.u64(time);
        w.u64(seq);
        w.u64(events);
        w.seq(pending.len());
        for _ in pending {
            w.bool(false);
        }
        w.seq(pending.len());
        for pend in pending {
            w.seq(pend.len());
            for &(t, s, v) in *pend {
                w.u64(t);
                w.u64(s);
                w.bool(v);
            }
        }
        w.into_bytes()
    }

    fn restore(sim: &mut Simulator, bytes: &[u8]) -> Result<(), RtlError> {
        sim.restore_state(&mut StateReader::new(bytes))
    }

    #[test]
    fn hostile_checkpoints_are_typed_errors() {
        // Two nets: an input and an inverter output with delay 3.
        let mut n = Netlist::new("inv");
        let a = n.add_input("a");
        let q = n.add_net("q");
        n.add_gate(GateKind::Not, &[a], q, 3).unwrap();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle().unwrap();
        let mut w = StateWriter::new();
        sim.save_state(&mut w);
        let good = w.into_bytes();
        let hostile: [(&str, Vec<u8>); 7] = [
            ("huge seq", blob(10, u64::MAX, 0, &[&[], &[]])),
            ("events beyond seq", blob(10, 4, 5, &[&[], &[]])),
            (
                "pending seq not below seq",
                blob(10, 4, 0, &[&[], &[(12, 4, true)]]),
            ),
            (
                "pending seq far out of range",
                blob(10, 4, 0, &[&[(11, 1 << 40, true)], &[]]),
            ),
            (
                "pending time in the past",
                blob(10, 4, 0, &[&[], &[(9, 1, true)]]),
            ),
            (
                "pending time past the window",
                blob(10, 4, 0, &[&[], &[(14, 1, true)]]),
            ),
            (
                "pending times not increasing",
                blob(10, 4, 0, &[&[], &[(12, 1, true), (12, 2, false)]]),
            ),
        ];
        for (what, bytes) in &hostile {
            let err = restore(&mut sim, bytes).unwrap_err();
            assert!(matches!(err, RtlError::State { .. }), "{what}: {err}");
        }
        // A pending count no window can hold fails before allocating.
        let mut w = StateWriter::new();
        for v in [10, 4, 0, 2, 2, 0, u64::MAX] {
            w.u64(v);
        }
        let mut bytes = w.into_bytes();
        bytes.splice(32..32, [0, 0]); // the two value bytes
        assert!(matches!(
            restore(&mut sim, &bytes),
            Err(RtlError::State { reason }) if reason.contains("pending transitions")
        ));
        // Rejected blobs left the simulator untouched.
        let mut w = StateWriter::new();
        sim.save_state(&mut w);
        assert_eq!(w.into_bytes(), good);
        // The edge cases of the window are accepted and run.
        restore(
            &mut sim,
            &blob(10, 4, 0, &[&[(10, 2, true)], &[(13, 3, true)]]),
        )
        .unwrap();
        sim.settle().unwrap();
        assert!(sim.value(a) && !sim.value(q));
    }

    #[test]
    fn vcd_change_count_matches_event_count() {
        let mut n = Netlist::new("chain");
        let a = n.add_input("a");
        let mut prev = a;
        for i in 0..5 {
            let next = n.add_net(format!("n{i}"));
            n.add_gate(GateKind::Not, &[prev], next, 1).unwrap();
            prev = next;
        }
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle().unwrap();
        sim.enable_tracing();
        let before = sim.events_processed();
        sim.set_input(a, true);
        sim.settle().unwrap();
        let changes = sim.events_processed() - before;
        let mut vcd = Vec::new();
        sim.write_vcd(&mut vcd).unwrap();
        let text = String::from_utf8(vcd).unwrap();
        // Count value-change lines after $end of dumpvars.
        let tail = text.split("$end").last().unwrap();
        let lines = tail
            .lines()
            .filter(|l| l.starts_with('0') || l.starts_with('1'))
            .count() as u64;
        assert_eq!(lines, changes);
    }
}
