//! Message-level co-simulation of process networks.
//!
//! The top of the paper's Figure 3: HW/SW interaction modeled "at a high
//! level by the process or device communication mechanism provided by an
//! operating system" with `send`, `receive`, and `wait` operations (after
//! Coumeri & Thomas \[3\]). Processes execute their `codesign-ir` bodies;
//! channels are rendezvous (or bounded buffers); communication costs come
//! from a [`CommModel`] instead of simulated bus traffic — which is
//! exactly why this level is fast and why its timing is approximate.
//!
//! A [`Placement`] maps each process to a resource: software processes
//! sharing a CPU serialize (with context-switch overhead) while each
//! hardware process owns a controller/datapath pair and runs faster and
//! concurrently. Messages that cross the HW/SW boundary pay the full
//! communication cost; local ones are discounted — making this simulator
//! the evaluation engine for the paper's Section 4.5.1 claim that good
//! partitions "minimize communication … and maximize concurrency".

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use codesign_ir::process::{Action, ChannelId, ProcessId, ProcessNetwork};
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;
use codesign_trace::{Arg, Tracer, TrackId};

use crate::engine::SimEngine;
use crate::error::SimError;

/// Cost model for one message transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// Fixed per-message cost (synchronization, driver entry).
    pub setup_cycles: u64,
    /// Payload bandwidth in bytes per cycle.
    pub bytes_per_cycle: u64,
    /// Multiplier applied when sender and receiver share a resource
    /// (shared-memory shortcut).
    pub local_discount: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel {
            setup_cycles: 20,
            bytes_per_cycle: 4,
            local_discount: 0.25,
        }
    }
}

impl CommModel {
    /// Cycles to transfer `bytes` across the boundary (`local == false`)
    /// or within one resource.
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64, local: bool) -> u64 {
        let raw = self.setup_cycles + bytes.div_ceil(self.bytes_per_cycle.max(1));
        if local {
            ((raw as f64 * self.local_discount).ceil() as u64).max(1)
        } else {
            raw
        }
    }
}

/// Where a process executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A software processor, identified by index; processes on the same
    /// processor serialize.
    Software(u32),
    /// A dedicated hardware controller/datapath pair, identified by
    /// index; hardware processes run concurrently.
    Hardware(u32),
}

impl Resource {
    /// Whether a message between the two resources stays local: same
    /// resource, or two controller/datapath pairs inside the one
    /// multi-threaded co-processor (paper Figure 9) — only traffic that
    /// crosses the HW/SW boundary pays the full cost.
    #[must_use]
    pub fn is_local_to(self, other: Resource) -> bool {
        self == other
            || matches!(
                (self, other),
                (Resource::Hardware(_), Resource::Hardware(_))
            )
    }
}

/// A mapping from processes to resources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    assignment: Vec<Resource>,
}

impl Placement {
    /// Places every process on its own hardware resource (fully
    /// concurrent — the pure verification configuration of \[3\]).
    #[must_use]
    pub fn all_hardware(n: usize) -> Self {
        Placement {
            assignment: (0..n as u32).map(Resource::Hardware).collect(),
        }
    }

    /// Places every process on software processor 0 (fully serialized).
    #[must_use]
    pub fn all_software(n: usize) -> Self {
        Placement {
            assignment: vec![Resource::Software(0); n],
        }
    }

    /// Builds a placement from an explicit assignment.
    #[must_use]
    pub fn from_assignment(assignment: Vec<Resource>) -> Self {
        Placement { assignment }
    }

    /// Resource of one process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this placement.
    #[must_use]
    pub fn resource(&self, p: ProcessId) -> Resource {
        self.assignment[p.index()]
    }

    /// Number of processes covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether the placement is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageConfig {
    /// Communication cost model.
    pub comm: CommModel,
    /// Default speedup of hardware processes over their software cost.
    pub hw_speedup: f64,
    /// Per-process speedup overrides (indexed by process), e.g. from
    /// calibrated behavioral synthesis of the process's kernel; entries
    /// override [`MessageConfig::hw_speedup`] for hardware placements.
    pub hw_speedups: Option<Vec<f64>>,
    /// Context-switch cost when a software processor switches processes.
    pub context_switch: u64,
    /// Cycle budget before giving up.
    pub budget: u64,
}

impl Default for MessageConfig {
    fn default() -> Self {
        MessageConfig {
            comm: CommModel::default(),
            hw_speedup: 8.0,
            hw_speedups: None,
            context_switch: 50,
            budget: 100_000_000,
        }
    }
}

/// Results of one message-level simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageReport {
    /// Time at which the last process finished.
    pub finish_time: u64,
    /// Messages transferred.
    pub messages: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Bytes that crossed a resource boundary.
    pub cross_boundary_bytes: u64,
    /// Kernel events processed (actions plus transfers) — the
    /// computational cost currency of Figure 3.
    pub events: u64,
    /// Finish time of each process.
    pub per_process_finish: Vec<u64>,
    /// Payload bytes delivered per channel — an architected observable:
    /// the process bodies fix it independent of scheduling or placement.
    pub per_channel_bytes: Vec<u64>,
    /// Per channel, the globally monotone delivery stamp of its *last*
    /// delivery (0 = never delivered). Stamps order channel completions
    /// across the whole network.
    pub last_send_seq: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Running,
    BlockedSend,
    BlockedRecv,
    Finished,
}

#[derive(Debug, Clone)]
struct Proc {
    ready: u64,
    iter: u32,
    idx: usize,
    state: ProcState,
}

/// Simulates a process network under a placement, reporting to
/// `tracer`: per-process compute/wait spans, per-channel transfer events
/// (with endpoint and locality arguments), channel-occupancy counters,
/// and a running `cross_boundary_bytes` counter, all timestamped in
/// simulated cycles. Tracing is observational only: the report is
/// bit-identical with [`Tracer::off`].
///
/// Internally this drives a [`MessageEngine`] to completion, so the
/// one-shot and incremental simulators share one scheduling core and
/// agree bit-for-bit on every report field — a conformance invariant the
/// `codesign-conform` sweep checks on random networks. (They used to be
/// two independent schedulers; the differential harness caught the
/// one-shot's round-barrier phasing handing a shared CPU to a
/// later-ready process, inflating finish times.)
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] for circular channel waits,
/// [`SimError::Budget`] when the budget expires, and
/// [`SimError::BadPlacement`] if the placement does not cover the
/// network.
pub fn simulate(
    net: &ProcessNetwork,
    placement: &Placement,
    config: &MessageConfig,
    tracer: &Tracer,
) -> Result<MessageReport, SimError> {
    let mut engine =
        MessageEngine::new(net.name(), net.clone(), placement.clone(), config.clone())?;
    engine.set_tracer(tracer);
    while !engine.is_done() {
        engine.advance_to(u64::MAX)?;
    }
    Ok(engine.report().clone())
}

/// A fault decision for one message send, as seen by a
/// [`MessageEngine`] with a [`MessageFaults`] hook installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SendFault {
    /// Deliver normally.
    #[default]
    None,
    /// Lose the message: the sender pays the transfer cost and moves on,
    /// but nothing is delivered. On a rendezvous channel the receiver
    /// stays blocked (a lost wakeup), which the engine's deadlock
    /// detection or the coordinator watchdog then catches.
    Drop,
    /// Deliver the message twice (buffered channels only; a rendezvous
    /// has exactly one blocked receiver, so duplication degenerates to a
    /// normal delivery).
    Duplicate,
    /// Deliver late by the given extra cycles.
    Delay(u64),
}

/// A deterministic fault source consulted by [`MessageEngine`] once per
/// send event, in execution order. Because the engine executes steps in
/// a canonical time-driven order independent of how the coordinator
/// subdivides horizons, a deterministic implementor (e.g. a seeded RNG)
/// yields bit-identical faulty runs for identical seeds.
pub trait MessageFaults: std::fmt::Debug {
    /// Decides the fate of a send on `channel` of `bytes` at engine time
    /// `time` (the sender's clock before the transfer).
    fn on_send(&mut self, channel: usize, bytes: u64, time: u64) -> SendFault;
}

/// A buffered channel's incremental state inside a [`MessageEngine`].
#[derive(Debug, Clone)]
struct EngineChan {
    /// Buffered entries `(ready_at, bytes, sender)`.
    queue: VecDeque<(u64, u64, usize)>,
    cap: usize,
    /// `(process, bytes)` blocked at send.
    sender: Option<(usize, u64)>,
    receiver: Option<usize>,
}

/// The next schedulable step of a [`MessageEngine`], keyed by start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineStep {
    /// A running process executes its next action (or finishes).
    Act(usize),
    /// A rendezvous completes on a channel with both parties blocked.
    Rendezvous(usize),
    /// A blocked sender on a buffered channel with free space unblocks.
    FreeSender(usize),
    /// A blocked receiver drains a buffered message.
    DrainReceiver(usize),
}

/// The message-level process-network simulator as an incremental
/// [`SimEngine`]: time-steppable under a
/// [`Coordinator`](crate::engine::Coordinator) and lookahead-capable.
/// This is *the* message-level scheduler — [`simulate`] is a thin
/// wrapper that drives it to completion, so there is exactly one
/// scheduling semantics at this level.
///
/// Scheduling is *time-driven*: of everything that could happen, the
/// step with the earliest start time executes first (ties broken by
/// process, then channel order). That order is what makes the engine
/// composable — it reaches the same state no matter how a horizon is
/// subdivided — and it models a shared software processor faithfully:
/// the process that becomes ready first gets the CPU first.
///
/// Actions are atomic (a compute or transfer may overshoot the round
/// horizon by its own cost, exactly like a CPU instruction), so the
/// co-simulation skew bound is `quantum + the longest single action`.
///
/// The network is closed — every wake source is internal — so the engine
/// knows its true next event time: the earliest start among runnable
/// actions and completable channel operations. That is its
/// [`next_event_hint`](SimEngine::next_event_hint), which lets the
/// coordinator leap over rendezvous dead time instead of polling it
/// quantum by quantum.
#[derive(Debug)]
pub struct MessageEngine {
    name: String,
    net: ProcessNetwork,
    placement: Placement,
    config: MessageConfig,
    procs: Vec<Proc>,
    chans: Vec<EngineChan>,
    /// Static first-receiver of each channel (locality of buffered sends).
    chan_receiver: Vec<Option<usize>>,
    /// Software resources serialize: free-at time and last process.
    sw_free: std::collections::HashMap<u32, (u64, usize)>,
    /// Lazy scheduling queue over entities (process `p` or channel
    /// `procs.len() + ci`), keyed by candidate start time. Entries are
    /// *hints*, revalidated against [`candidate_of`](Self::candidate_of)
    /// on pop, so stale keys are harmless; the invariant that matters is
    /// that every live candidate always has an entry at (or below) its
    /// current start. Replaces an O(P + C) scan per executed step with
    /// O(log) heap traffic — the scan survives only as the `&self`
    /// [`next_event_hint`](SimEngine::next_event_hint) path.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Processes in `ProcState::Finished`, for O(1) `is_done`.
    finished: usize,
    /// Local clock floor: the engine follows global time between events.
    floor: u64,
    report: MessageReport,
    /// Optional fault source consulted once per send event.
    faults: Option<Box<dyn MessageFaults>>,
    /// Globally monotone delivery stamp (one per delivered message).
    send_seq: u64,
    /// Observational tracer (off by default); never steers scheduling.
    tracer: Tracer,
    /// Interned track per process, populated when the tracer is on.
    proc_tracks: Vec<TrackId>,
    /// Interned track per channel, populated when the tracer is on.
    chan_tracks: Vec<TrackId>,
    /// Whole-simulation track for running counters.
    sim_track: Option<TrackId>,
}

impl MessageEngine {
    /// Creates an engine for `net` under `placement`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadPlacement`] if the placement does not cover
    /// the network.
    pub fn new(
        name: impl Into<String>,
        net: ProcessNetwork,
        placement: Placement,
        config: MessageConfig,
    ) -> Result<Self, SimError> {
        if placement.len() != net.len() {
            return Err(SimError::BadPlacement {
                reason: format!(
                    "placement covers {} processes, network has {}",
                    placement.len(),
                    net.len()
                ),
            });
        }
        let n = net.len();
        let procs: Vec<Proc> = (0..n)
            .map(|i| Proc {
                ready: 0,
                iter: 0,
                idx: 0,
                state: if net.process(ProcessId::from_index(i)).actions().is_empty() {
                    ProcState::Finished
                } else {
                    ProcState::Running
                },
            })
            .collect();
        let finished = procs
            .iter()
            .filter(|p| p.state == ProcState::Finished)
            .count();
        // Every running process starts with an Act candidate at time 0;
        // channels have no blocked parties yet, so no channel entries.
        let queue = procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state == ProcState::Running)
            .map(|(i, _)| Reverse((0, i)))
            .collect();
        let chans = (0..net.channel_count())
            .map(|i| EngineChan {
                queue: VecDeque::new(),
                cap: net.channel(ChannelId::from_index(i)).capacity(),
                sender: None,
                receiver: None,
            })
            .collect();
        let mut chan_receiver: Vec<Option<usize>> = vec![None; net.channel_count()];
        for (pid, proc_) in net.iter() {
            for a in proc_.actions() {
                if let Action::Receive { channel } = a {
                    chan_receiver[channel.index()].get_or_insert(pid.index());
                }
            }
        }
        let report = MessageReport {
            finish_time: 0,
            messages: 0,
            bytes: 0,
            cross_boundary_bytes: 0,
            events: 0,
            per_process_finish: vec![0; n],
            per_channel_bytes: vec![0; net.channel_count()],
            last_send_seq: vec![0; net.channel_count()],
        };
        Ok(MessageEngine {
            name: name.into(),
            net,
            placement,
            config,
            procs,
            chans,
            chan_receiver,
            sw_free: std::collections::HashMap::new(),
            queue,
            finished,
            floor: 0,
            report,
            faults: None,
            send_seq: 0,
            tracer: Tracer::off(),
            proc_tracks: Vec::new(),
            chan_tracks: Vec::new(),
            sim_track: None,
        })
    }

    /// Installs a tracer: per-process compute/wait spans, per-channel
    /// transfer events, occupancy counters, and a running
    /// `cross_boundary_bytes` counter. Observational only — the report is
    /// bit-identical with tracing on or off.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        if tracer.is_on() {
            self.proc_tracks = self
                .net
                .iter()
                .map(|(_, p)| tracer.track(&format!("proc:{}", p.name())))
                .collect();
            self.chan_tracks = (0..self.net.channel_count())
                .map(|i| {
                    tracer.track(&format!(
                        "chan:{}",
                        self.net.channel(ChannelId::from_index(i)).name()
                    ))
                })
                .collect();
            self.sim_track = Some(tracer.track("message-sim"));
        }
    }

    /// One transfer event's args, shared by all transfer trace points.
    fn xfer_args(
        &self,
        from: usize,
        to: Option<usize>,
        bytes: u64,
        local: bool,
    ) -> [(&str, Arg); 4] {
        let name = |p: usize| self.net.process(ProcessId::from_index(p)).name();
        [
            ("from", Arg::from(name(from))),
            ("to", Arg::from(to.map_or("?", name))),
            ("bytes", Arg::from(bytes)),
            ("local", Arg::from(local)),
        ]
    }

    /// Installs a fault source. Sends consult it in execution order; an
    /// engine without one (the default) behaves bit-identically to the
    /// fault-free simulator.
    pub fn set_faults(&mut self, faults: Box<dyn MessageFaults>) {
        self.faults = Some(faults);
    }

    /// Consults the fault source (if any) for a send on `ci`.
    fn send_fault(&mut self, ci: usize, bytes: u64, time: u64) -> SendFault {
        match &mut self.faults {
            Some(f) => f.on_send(ci, bytes, time),
            None => SendFault::None,
        }
    }

    /// The accumulated report (complete once the engine
    /// [`is_done`](SimEngine::is_done)).
    #[must_use]
    pub fn report(&self) -> &MessageReport {
        &self.report
    }

    /// The network being simulated.
    #[must_use]
    pub fn net(&self) -> &ProcessNetwork {
        &self.net
    }

    fn is_local(&self, s: usize, r: usize) -> bool {
        self.placement
            .resource(ProcessId::from_index(s))
            .is_local_to(self.placement.resource(ProcessId::from_index(r)))
    }

    /// The current schedulable candidate of one entity — process `ent`
    /// for `ent < procs.len()`, channel `ent - procs.len()` otherwise —
    /// and its start time. This is the single source of scheduling truth:
    /// both the reference scan ([`next_step`](Self::next_step)) and the
    /// lazy heap validate against it, so they cannot disagree.
    fn candidate_of(&self, ent: usize) -> Option<(u64, EngineStep)> {
        let n = self.procs.len();
        if let Some(proc_) = self.procs.get(ent) {
            return (proc_.state == ProcState::Running)
                .then_some((proc_.ready, EngineStep::Act(ent)));
        }
        let ci = ent - n;
        let ch = &self.chans[ci];
        match (ch.sender, ch.receiver) {
            (Some((s, _)), Some(r)) => Some((
                self.procs[s].ready.max(self.procs[r].ready),
                EngineStep::Rendezvous(ci),
            )),
            (Some((s, _)), None) if ch.cap > 0 && ch.queue.len() < ch.cap => {
                Some((self.procs[s].ready, EngineStep::FreeSender(ci)))
            }
            (None, Some(r)) => ch.queue.front().map(|&(ready_at, _, _)| {
                (
                    self.procs[r].ready.max(ready_at),
                    EngineStep::DrainReceiver(ci),
                )
            }),
            _ => None,
        }
    }

    /// The earliest schedulable step and its start time, or `None` when
    /// nothing can ever happen again (all finished, or deadlocked).
    /// A full scan — kept for the `&self` hint/diagnostic paths and as
    /// the reference the heap scheduler is tested against; ties break to
    /// the lowest entity (processes before channels, index order), which
    /// is exactly the heap's `(start, entity)` key order.
    fn next_step(&self) -> Option<(u64, EngineStep)> {
        let mut best: Option<(u64, EngineStep)> = None;
        for ent in 0..self.procs.len() + self.chans.len() {
            if let Some((start, step)) = self.candidate_of(ent) {
                if best.as_ref().is_none_or(|&(s, _)| start < s) {
                    best = Some((start, step));
                }
            }
        }
        best
    }

    /// Pushes a heap entry for `ent` if it currently has a candidate.
    /// Called after every mutation that can create a candidate or lower
    /// its start; duplicate or stale entries are fine (pop revalidates).
    fn enqueue_entity(&mut self, ent: usize) {
        if let Some((start, _)) = self.candidate_of(ent) {
            self.queue.push(Reverse((start, ent)));
        }
    }

    /// Pops the earliest *valid* candidate: entries whose entity no
    /// longer has a candidate are discarded, entries whose start moved
    /// are re-keyed at the current start. Returns `(start, entity,
    /// step)`; `None` means no entity can ever run again.
    fn pop_candidate(&mut self) -> Option<(u64, usize, EngineStep)> {
        while let Some(Reverse((start, ent))) = self.queue.pop() {
            match self.candidate_of(ent) {
                Some((cstart, step)) if cstart == start => return Some((start, ent, step)),
                Some((cstart, _)) => self.queue.push(Reverse((cstart, ent))),
                None => {}
            }
        }
        None
    }

    /// The deadlock diagnosis: current time and every unfinished process.
    fn deadlock_error(&self) -> SimError {
        let time = self.procs.iter().map(|p| p.ready).max().unwrap_or(0);
        let blocked = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.state != ProcState::Finished)
            .map(|(i, _)| {
                self.net
                    .process(ProcessId::from_index(i))
                    .name()
                    .to_string()
            })
            .collect();
        SimError::Deadlock { time, blocked }
    }

    /// Reference scheduler: the pre-heap `advance_to` loop, one full
    /// [`next_step`](Self::next_step) scan per executed step. Test-only —
    /// the heap scheduler is property-tested bit-identical against it.
    #[cfg(test)]
    fn advance_by_scan(&mut self, t: u64) -> Result<(), SimError> {
        while let Some((start, step)) = self.next_step() {
            if start >= t {
                break;
            }
            self.execute(step)?;
        }
        if !self.is_done() && self.next_step().is_none() {
            return Err(self.deadlock_error());
        }
        self.floor = self.floor.max(t);
        Ok(())
    }

    fn check_budget(&self, t: u64) -> Result<(), SimError> {
        if t > self.config.budget {
            return Err(SimError::Budget {
                limit: self.config.budget,
            });
        }
        Ok(())
    }

    /// Delivers a buffered message to receiver `r` and resumes it.
    fn drain_into(&mut self, ci: usize, r: usize) {
        let (ready_at, bytes, from) = self.chans[ci].queue.pop_front().expect("non-empty");
        self.procs[r].ready = self.procs[r].ready.max(ready_at);
        self.report.messages += 1;
        self.report.bytes += bytes;
        let local = self.is_local(from, r);
        if !local {
            self.report.cross_boundary_bytes += bytes;
        }
        self.report.events += 1;
        self.stamp_delivery(ci, bytes);
        if self.tracer.is_on() {
            let at = self.procs[r].ready;
            self.tracer.instant(
                self.chan_tracks[ci],
                "recv",
                at,
                &self.xfer_args(from, Some(r), bytes, local),
            );
            self.tracer.counter(
                self.chan_tracks[ci],
                "queued",
                at,
                self.chans[ci].queue.len() as u64,
            );
            if let Some(track) = self.sim_track {
                self.tracer.counter(
                    track,
                    "cross_boundary_bytes",
                    at,
                    self.report.cross_boundary_bytes,
                );
            }
        }
        self.advance_cursor(r);
        // The pop changed the channel: a new front message (possibly
        // *earlier*-ready than the drained one — per-sender ready times
        // are not globally monotone) or freed buffer space for a blocked
        // sender can both create or re-key a candidate.
        let ent = self.procs.len() + ci;
        self.enqueue_entity(ent);
    }

    /// Records one delivered message on channel `ci`: payload bytes and a
    /// globally monotone completion stamp — both architected observables
    /// the conformance sweep compares across kernels.
    fn stamp_delivery(&mut self, ci: usize, bytes: u64) {
        self.send_seq += 1;
        self.report.per_channel_bytes[ci] += bytes;
        self.report.last_send_seq[ci] = self.send_seq;
    }

    fn advance_cursor(&mut self, p: usize) {
        let len = self.net.process(ProcessId::from_index(p)).actions().len();
        let proc_ = &mut self.procs[p];
        proc_.state = ProcState::Running;
        proc_.idx += 1;
        if proc_.idx >= len {
            proc_.idx = 0;
            proc_.iter += 1;
        }
        // The process is runnable again at its (final for this step)
        // ready time: give the scheduler its Act candidate.
        self.queue.push(Reverse((self.procs[p].ready, p)));
    }

    /// A buffered send from `p` on channel `ci`: the sender pays the
    /// transfer (plus any injected delay) and moves on; the message is
    /// enqueued zero, one, or two times according to the fault decision.
    fn buffered_send(&mut self, ci: usize, p: usize, bytes: u64, local: bool) {
        let fault = self.send_fault(ci, bytes, self.procs[p].ready);
        let mut cost = self.config.comm.transfer_cycles(bytes, local);
        if let SendFault::Delay(d) = fault {
            cost += d;
        }
        self.procs[p].ready += cost;
        let entry = (self.procs[p].ready, bytes, p);
        match fault {
            SendFault::Drop => {}
            SendFault::Duplicate => {
                self.chans[ci].queue.push_back(entry);
                self.chans[ci].queue.push_back(entry);
            }
            SendFault::None | SendFault::Delay(_) => self.chans[ci].queue.push_back(entry),
        }
        self.report.events += 1;
        if self.tracer.is_on() {
            let ready = self.procs[p].ready;
            self.tracer.span(
                self.chan_tracks[ci],
                "send",
                ready - cost,
                cost,
                &self.xfer_args(p, self.chan_receiver[ci], bytes, local),
            );
            self.tracer.counter(
                self.chan_tracks[ci],
                "queued",
                ready,
                self.chans[ci].queue.len() as u64,
            );
        }
        self.advance_cursor(p);
        // The enqueue may have given a blocked receiver its first
        // drainable message (new DrainReceiver candidate).
        let ent = self.procs.len() + ci;
        self.enqueue_entity(ent);
    }

    /// Executes one step. Steps came out of [`next_step`](Self::next_step),
    /// so all preconditions (blocked parties, queue contents) hold.
    fn execute(&mut self, step: EngineStep) -> Result<(), SimError> {
        match step {
            EngineStep::Act(p) => {
                let process = self.net.process(ProcessId::from_index(p));
                let exhausted = self.procs[p].iter >= process.iterations();
                let Some(&action) = (if exhausted {
                    None
                } else {
                    process.actions().get(self.procs[p].idx)
                }) else {
                    self.procs[p].state = ProcState::Finished;
                    self.finished += 1;
                    self.report.per_process_finish[p] = self.procs[p].ready;
                    self.report.finish_time = self.report.finish_time.max(self.procs[p].ready);
                    return Ok(());
                };
                match action {
                    Action::Compute(c) => {
                        self.report.events += 1;
                        let cost = match self.placement.resource(ProcessId::from_index(p)) {
                            Resource::Software(cpu) => {
                                let entry = self.sw_free.entry(cpu).or_insert((0, p));
                                let mut start = self.procs[p].ready.max(entry.0);
                                if entry.1 != p {
                                    start += self.config.context_switch;
                                }
                                let finish = start + c;
                                *entry = (finish, p);
                                self.procs[p].ready = finish;
                                c
                            }
                            Resource::Hardware(_) => {
                                let speedup = self
                                    .config
                                    .hw_speedups
                                    .as_ref()
                                    .and_then(|v| v.get(p).copied())
                                    .unwrap_or(self.config.hw_speedup);
                                let cost = ((c as f64 / speedup).ceil() as u64).max(1);
                                self.procs[p].ready += cost;
                                cost
                            }
                        };
                        if self.tracer.is_on() {
                            self.tracer.span(
                                self.proc_tracks[p],
                                "compute",
                                self.procs[p].ready - cost,
                                cost,
                                &[],
                            );
                        }
                        self.advance_cursor(p);
                    }
                    Action::Wait(c) => {
                        self.report.events += 1;
                        self.procs[p].ready += c;
                        if self.tracer.is_on() {
                            self.tracer.span(
                                self.proc_tracks[p],
                                "wait",
                                self.procs[p].ready - c,
                                c,
                                &[],
                            );
                        }
                        self.advance_cursor(p);
                    }
                    Action::Send { channel, bytes } => {
                        let ci = channel.index();
                        let local = self.chan_receiver[ci].is_some_and(|r| self.is_local(p, r));
                        if self.chans[ci].cap > 0 && self.chans[ci].queue.len() < self.chans[ci].cap
                        {
                            self.buffered_send(ci, p, bytes, local);
                        } else {
                            self.chans[ci].sender = Some((p, bytes));
                            self.procs[p].state = ProcState::BlockedSend;
                            // A waiting receiver completes the rendezvous
                            // candidate; on a full buffer the channel
                            // re-keys once a drain frees space.
                            let ent = self.procs.len() + ci;
                            self.enqueue_entity(ent);
                            return Ok(()); // blocking costs nothing yet
                        }
                    }
                    Action::Receive { channel } => {
                        let ci = channel.index();
                        if self.chans[ci].queue.is_empty() {
                            self.chans[ci].receiver = Some(p);
                            self.procs[p].state = ProcState::BlockedRecv;
                            // A blocked sender (rendezvous channel) now
                            // has a partner: enqueue the pairing.
                            let ent = self.procs.len() + ci;
                            self.enqueue_entity(ent);
                            return Ok(());
                        }
                        self.drain_into(ci, p);
                    }
                }
                self.check_budget(self.procs[p].ready)
            }
            EngineStep::Rendezvous(ci) => {
                let (s, bytes) = self.chans[ci].sender.take().expect("blocked sender");
                let fault = self.send_fault(ci, bytes, self.procs[s].ready);
                if fault == SendFault::Drop {
                    // Lost at the handoff: the sender believes it
                    // delivered and moves on; the receiver keeps waiting
                    // for a message that will never come (a lost wakeup,
                    // caught downstream as deadlock or by the watchdog).
                    let r = self.chans[ci].receiver.expect("blocked receiver");
                    let local = self.is_local(s, r);
                    let start = self.procs[s].ready.max(self.procs[r].ready);
                    self.procs[s].ready = start + self.config.comm.transfer_cycles(bytes, local);
                    self.report.events += 1;
                    self.advance_cursor(s);
                    return self.check_budget(self.procs[s].ready);
                }
                let r = self.chans[ci].receiver.take().expect("blocked receiver");
                let local = self.is_local(s, r);
                let start = self.procs[s].ready.max(self.procs[r].ready);
                let mut done = start + self.config.comm.transfer_cycles(bytes, local);
                if let SendFault::Delay(d) = fault {
                    done += d;
                }
                self.procs[s].ready = done;
                self.procs[r].ready = done;
                self.report.messages += 1;
                self.report.bytes += bytes;
                if !local {
                    self.report.cross_boundary_bytes += bytes;
                }
                self.report.events += 1;
                self.stamp_delivery(ci, bytes);
                if self.tracer.is_on() {
                    self.tracer.span(
                        self.chan_tracks[ci],
                        "rendezvous",
                        start,
                        done - start,
                        &self.xfer_args(s, Some(r), bytes, local),
                    );
                    if let Some(track) = self.sim_track {
                        self.tracer.counter(
                            track,
                            "cross_boundary_bytes",
                            done,
                            self.report.cross_boundary_bytes,
                        );
                    }
                }
                self.advance_cursor(s);
                self.advance_cursor(r);
                self.check_budget(done)
            }
            EngineStep::FreeSender(ci) => {
                let (s, bytes) = self.chans[ci].sender.take().expect("blocked sender");
                let local = self.chan_receiver[ci].is_some_and(|r| self.is_local(s, r));
                self.buffered_send(ci, s, bytes, local);
                self.check_budget(self.procs[s].ready)
            }
            EngineStep::DrainReceiver(ci) => {
                let r = self.chans[ci].receiver.take().expect("blocked receiver");
                self.drain_into(ci, r);
                self.check_budget(self.procs[r].ready)
            }
        }
    }
}

impl SimEngine for MessageEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn local_time(&self) -> u64 {
        self.floor
    }

    fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
        while let Some((start, ent, step)) = self.pop_candidate() {
            if start >= t {
                // Not due inside this horizon: hand the entry back for
                // the next call (it was validated, so the key is exact).
                self.queue.push(Reverse((start, ent)));
                self.floor = self.floor.max(t);
                return Ok(());
            }
            self.execute(step)?;
        }
        if !self.is_done() {
            // The network is closed, so "nothing can ever happen again
            // with work remaining" is a true deadlock no matter how far
            // the horizon moves.
            return Err(self.deadlock_error());
        }
        self.floor = self.floor.max(t);
        Ok(())
    }

    fn is_done(&self) -> bool {
        self.finished == self.procs.len()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn next_event_hint(&self) -> Option<u64> {
        // The earliest wake time of any blocked/sleeping process, or an
        // eternal park when nothing is pending. `next_step` keys steps by
        // start time, which lower-bounds every observable effect
        // (software contention can only push work later).
        Some(self.next_step().map_or(u64::MAX, |(start, _)| start))
    }

    fn supports_snapshot(&self) -> bool {
        // The fault hook (if any) carries its own state and is
        // checkpointed by whoever installed it (the fault campaign
        // serializes its injector separately), so the engine itself is
        // always snapshotable.
        true
    }

    fn save_state(&self, w: &mut StateWriter) {
        w.seq(self.procs.len());
        for p in &self.procs {
            w.u64(p.ready);
            w.u32(p.iter);
            w.usize(p.idx);
            w.u8(match p.state {
                ProcState::Running => 0,
                ProcState::BlockedSend => 1,
                ProcState::BlockedRecv => 2,
                ProcState::Finished => 3,
            });
        }
        w.seq(self.chans.len());
        for ch in &self.chans {
            w.seq(ch.queue.len());
            for &(ready_at, bytes, sender) in &ch.queue {
                w.u64(ready_at);
                w.u64(bytes);
                w.usize(sender);
            }
            match ch.sender {
                Some((p, bytes)) => {
                    w.bool(true);
                    w.usize(p);
                    w.u64(bytes);
                }
                None => w.bool(false),
            }
            match ch.receiver {
                Some(p) => {
                    w.bool(true);
                    w.usize(p);
                }
                None => w.bool(false),
            }
        }
        // Maps go out in sorted key order so identical logical state
        // always yields identical bytes.
        let mut cpus: Vec<(&u32, &(u64, usize))> = self.sw_free.iter().collect();
        cpus.sort_by_key(|&(k, _)| *k);
        w.seq(cpus.len());
        for (cpu, &(free_at, last)) in cpus {
            w.u32(*cpu);
            w.u64(free_at);
            w.usize(last);
        }
        w.usize(self.finished);
        w.u64(self.floor);
        w.u64(self.send_seq);
        w.u64(self.report.finish_time);
        w.u64(self.report.messages);
        w.u64(self.report.bytes);
        w.u64(self.report.cross_boundary_bytes);
        w.u64(self.report.events);
        w.seq(self.report.per_process_finish.len());
        for &t in &self.report.per_process_finish {
            w.u64(t);
        }
        w.seq(self.report.per_channel_bytes.len());
        for &b in &self.report.per_channel_bytes {
            w.u64(b);
        }
        w.seq(self.report.last_send_seq.len());
        for &s in &self.report.last_send_seq {
            w.u64(s);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SimError> {
        r.seq(Some(self.procs.len()))?;
        for p in &mut self.procs {
            p.ready = r.u64()?;
            p.iter = r.u32()?;
            p.idx = r.usize()?;
            p.state = match r.u8()? {
                0 => ProcState::Running,
                1 => ProcState::BlockedSend,
                2 => ProcState::BlockedRecv,
                3 => ProcState::Finished,
                tag => {
                    return Err(SimError::Hardware(RtlError::State {
                        reason: format!("unknown process state tag {tag}"),
                    }))
                }
            };
        }
        r.seq(Some(self.chans.len()))?;
        for ci in 0..self.chans.len() {
            let n = r.seq(None)?;
            self.chans[ci].queue.clear();
            for _ in 0..n {
                let ready_at = r.u64()?;
                let bytes = r.u64()?;
                let sender = r.usize()?;
                self.chans[ci].queue.push_back((ready_at, bytes, sender));
            }
            self.chans[ci].sender = if r.bool()? {
                let p = r.usize()?;
                let bytes = r.u64()?;
                Some((p, bytes))
            } else {
                None
            };
            self.chans[ci].receiver = if r.bool()? { Some(r.usize()?) } else { None };
        }
        let n = r.seq(None)?;
        self.sw_free.clear();
        for _ in 0..n {
            let cpu = r.u32()?;
            let free_at = r.u64()?;
            let last = r.usize()?;
            self.sw_free.insert(cpu, (free_at, last));
        }
        self.finished = r.usize()?;
        self.floor = r.u64()?;
        self.send_seq = r.u64()?;
        self.report.finish_time = r.u64()?;
        self.report.messages = r.u64()?;
        self.report.bytes = r.u64()?;
        self.report.cross_boundary_bytes = r.u64()?;
        self.report.events = r.u64()?;
        r.seq(Some(self.report.per_process_finish.len()))?;
        for t in &mut self.report.per_process_finish {
            *t = r.u64()?;
        }
        r.seq(Some(self.report.per_channel_bytes.len()))?;
        for b in &mut self.report.per_channel_bytes {
            *b = r.u64()?;
        }
        r.seq(Some(self.report.last_send_seq.len()))?;
        for s in &mut self.report.last_send_seq {
            *s = r.u64()?;
        }
        // The scheduling heap holds only hints; rebuild it from the
        // restored candidate states. Pop revalidates every entry against
        // `candidate_of`, so execution order is a pure function of the
        // restored state — identical whether the original heap carried
        // stale entries or not.
        self.queue.clear();
        for ent in 0..self.procs.len() + self.chans.len() {
            self.enqueue_entity(ent);
        }
        Ok(())
    }

    fn diagnostics(&self) -> String {
        let blocked: Vec<String> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.state, ProcState::BlockedSend | ProcState::BlockedRecv))
            .map(|(i, p)| {
                format!(
                    "{}({})",
                    self.net.process(ProcessId::from_index(i)).name(),
                    if p.state == ProcState::BlockedSend {
                        "send"
                    } else {
                        "recv"
                    }
                )
            })
            .collect();
        if blocked.is_empty() {
            String::new()
        } else {
            format!("blocked: {}", blocked.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codesign_ir::process::Process;
    use codesign_ir::workload::tgff::{random_process_network, NetworkConfig};

    fn prodcons(iterations: u32, bytes: u64) -> ProcessNetwork {
        let mut net = ProcessNetwork::new("prodcons");
        let ch = net.add_channel("data", 0);
        net.add_process(
            Process::new(
                "producer",
                vec![Action::Compute(100), Action::Send { channel: ch, bytes }],
            )
            .with_iterations(iterations),
        );
        net.add_process(
            Process::new(
                "consumer",
                vec![Action::Receive { channel: ch }, Action::Compute(300)],
            )
            .with_iterations(iterations),
        );
        net
    }

    #[test]
    fn rendezvous_pipeline_completes() {
        let net = prodcons(8, 64);
        let r = simulate(
            &net,
            &Placement::all_hardware(2),
            &MessageConfig::default(),
            &Tracer::off(),
        )
        .unwrap();
        assert_eq!(r.messages, 8);
        assert_eq!(r.bytes, 8 * 64);
        assert!(r.finish_time > 0);
    }

    #[test]
    fn software_serialization_is_slower_than_hardware_concurrency() {
        let net = prodcons(8, 64);
        let cfg = MessageConfig {
            hw_speedup: 1.0, // isolate the concurrency effect
            ..MessageConfig::default()
        };
        let hw = simulate(&net, &Placement::all_hardware(2), &cfg, &Tracer::off()).unwrap();
        let sw = simulate(&net, &Placement::all_software(2), &cfg, &Tracer::off()).unwrap();
        assert!(
            sw.finish_time > hw.finish_time,
            "sw {} vs hw {}",
            sw.finish_time,
            hw.finish_time
        );
    }

    #[test]
    fn local_messages_are_discounted() {
        let net = prodcons(4, 512);
        let cfg = MessageConfig {
            hw_speedup: 1.0,
            context_switch: 0,
            ..MessageConfig::default()
        };
        let split = simulate(
            &net,
            &Placement::from_assignment(vec![Resource::Software(0), Resource::Hardware(0)]),
            &cfg,
            &Tracer::off(),
        )
        .unwrap();
        let colocated = simulate(&net, &Placement::all_software(2), &cfg, &Tracer::off()).unwrap();
        assert_eq!(split.cross_boundary_bytes, 4 * 512);
        assert_eq!(colocated.cross_boundary_bytes, 0);
    }

    #[test]
    fn hw_speedup_shortens_compute() {
        let net = prodcons(4, 16);
        let slow = simulate(
            &net,
            &Placement::all_hardware(2),
            &MessageConfig {
                hw_speedup: 1.0,
                ..MessageConfig::default()
            },
            &Tracer::off(),
        )
        .unwrap();
        let fast = simulate(
            &net,
            &Placement::all_hardware(2),
            &MessageConfig {
                hw_speedup: 10.0,
                ..MessageConfig::default()
            },
            &Tracer::off(),
        )
        .unwrap();
        assert!(fast.finish_time < slow.finish_time);
    }

    #[test]
    fn deadlock_detected() {
        // Two processes each receive before sending: classic deadlock.
        let mut net = ProcessNetwork::new("dl");
        let ab = net.add_channel("ab", 0);
        let ba = net.add_channel("ba", 0);
        net.add_process(Process::new(
            "a",
            vec![
                Action::Receive { channel: ba },
                Action::Send {
                    channel: ab,
                    bytes: 4,
                },
            ],
        ));
        net.add_process(Process::new(
            "b",
            vec![
                Action::Receive { channel: ab },
                Action::Send {
                    channel: ba,
                    bytes: 4,
                },
            ],
        ));
        let err = simulate(
            &net,
            &Placement::all_hardware(2),
            &MessageConfig::default(),
            &Tracer::off(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    #[test]
    fn buffered_channel_decouples_sender() {
        let mut net = ProcessNetwork::new("buf");
        let ch = net.add_channel("c", 4);
        net.add_process(
            Process::new(
                "fast_sender",
                vec![Action::Send {
                    channel: ch,
                    bytes: 8,
                }],
            )
            .with_iterations(4),
        );
        net.add_process(
            Process::new(
                "slow_receiver",
                vec![Action::Receive { channel: ch }, Action::Compute(1_000)],
            )
            .with_iterations(4),
        );
        let r = simulate(
            &net,
            &Placement::all_hardware(2),
            &MessageConfig::default(),
            &Tracer::off(),
        )
        .unwrap();
        // Sender finishes long before the receiver.
        assert!(r.per_process_finish[0] < r.per_process_finish[1] / 2);
    }

    #[test]
    fn placement_must_cover_network() {
        let net = prodcons(1, 1);
        let err = simulate(
            &net,
            &Placement::all_hardware(5),
            &MessageConfig::default(),
            &Tracer::off(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadPlacement { .. }));
    }

    #[test]
    fn random_networks_complete_without_deadlock() {
        for seed in 0..8 {
            let net = random_process_network(&NetworkConfig {
                seed,
                ..NetworkConfig::default()
            });
            let r = simulate(
                &net,
                &Placement::all_hardware(net.len()),
                &MessageConfig::default(),
                &Tracer::off(),
            )
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(r.finish_time > 0);
        }
    }

    #[test]
    fn heap_scheduler_matches_reference_scan() {
        // The lazy heap must replay the exact execution sequence of the
        // per-step full scan — same report, same deadlock/budget
        // verdicts — on random networks under contended (shared-CPU)
        // placements and arbitrary horizon subdivision.
        for seed in 0..16u64 {
            let net = random_process_network(&NetworkConfig {
                seed,
                ..NetworkConfig::default()
            });
            // Alternate SW/HW so software serialization, context
            // switches, and cross-boundary costs are all exercised.
            let placement = Placement::from_assignment(
                (0..net.len())
                    .map(|i| {
                        if i % 2 == 0 {
                            Resource::Software(0)
                        } else {
                            Resource::Hardware(i as u32)
                        }
                    })
                    .collect(),
            );
            let cfg = MessageConfig::default();
            let mk = || {
                MessageEngine::new("heap-vs-scan", net.clone(), placement.clone(), cfg.clone())
                    .unwrap()
            };

            let mut scan = mk();
            let scan_result = loop {
                match scan.advance_by_scan(u64::MAX) {
                    Ok(()) if scan.is_done() => break Ok(()),
                    Ok(()) => {}
                    Err(e) => break Err(e),
                }
            };
            let mut heap = mk();
            let heap_result = loop {
                match heap.advance_to(u64::MAX) {
                    Ok(()) if heap.is_done() => break Ok(()),
                    Ok(()) => {}
                    Err(e) => break Err(e),
                }
            };
            match (&scan_result, &heap_result) {
                (Ok(()), Ok(())) => assert_eq!(
                    scan.report(),
                    heap.report(),
                    "seed {seed}: heap report diverged from scan"
                ),
                (Err(a), Err(b)) => assert_eq!(
                    format!("{a}"),
                    format!("{b}"),
                    "seed {seed}: error verdicts diverged"
                ),
                _ => panic!("seed {seed}: scan {scan_result:?} vs heap {heap_result:?}"),
            }

            // Subdivided horizons reach the identical state.
            if scan_result.is_ok() {
                let mut stepped = mk();
                let mut horizon = 7u64;
                while !stepped.is_done() {
                    stepped.advance_to(horizon).unwrap();
                    horizon = horizon.saturating_mul(3) / 2 + 1;
                }
                assert_eq!(
                    stepped.report(),
                    scan.report(),
                    "seed {seed}: subdivided heap run diverged"
                );
            }
        }
    }

    #[test]
    fn buffered_send_cost_honors_local_discount() {
        // Regression: buffered sends used to hardcode `local = false`, so
        // colocated senders paid the full boundary cost and no placement
        // could discount buffered traffic.
        let mut net = ProcessNetwork::new("bufloc");
        let ch = net.add_channel("c", 4);
        net.add_process(
            Process::new(
                "sender",
                vec![Action::Send {
                    channel: ch,
                    bytes: 512,
                }],
            )
            .with_iterations(4),
        );
        net.add_process(
            Process::new("receiver", vec![Action::Receive { channel: ch }]).with_iterations(4),
        );
        let cfg = MessageConfig {
            context_switch: 0,
            ..MessageConfig::default()
        };
        let colocated = simulate(&net, &Placement::all_software(2), &cfg, &Tracer::off()).unwrap();
        let split = simulate(
            &net,
            &Placement::from_assignment(vec![Resource::Software(0), Resource::Hardware(0)]),
            &cfg,
            &Tracer::off(),
        )
        .unwrap();
        // The sender pays exactly the (discounted or full) transfer cost
        // per iteration and nothing else.
        assert_eq!(
            colocated.per_process_finish[0],
            4 * cfg.comm.transfer_cycles(512, true)
        );
        assert_eq!(
            split.per_process_finish[0],
            4 * cfg.comm.transfer_cycles(512, false)
        );
        // And cross-boundary bytes are now accounted on the buffered path.
        assert_eq!(colocated.cross_boundary_bytes, 0);
        assert_eq!(split.cross_boundary_bytes, 4 * 512);
    }

    #[test]
    fn blocked_sender_unblock_keeps_locality_accounting() {
        // Capacity 1 forces the phase-2 "blocked sender frees up" and
        // "blocked receiver drains" paths, which used to skip both the
        // local discount and cross-boundary accounting.
        let mut net = ProcessNetwork::new("bufblock");
        let ch = net.add_channel("c", 1);
        net.add_process(
            Process::new(
                "sender",
                vec![Action::Send {
                    channel: ch,
                    bytes: 256,
                }],
            )
            .with_iterations(4),
        );
        net.add_process(
            Process::new(
                "receiver",
                vec![Action::Receive { channel: ch }, Action::Compute(50)],
            )
            .with_iterations(4),
        );
        let cfg = MessageConfig {
            context_switch: 0,
            ..MessageConfig::default()
        };
        let colocated = simulate(&net, &Placement::all_software(2), &cfg, &Tracer::off()).unwrap();
        let split = simulate(
            &net,
            &Placement::from_assignment(vec![Resource::Software(0), Resource::Hardware(0)]),
            &cfg,
            &Tracer::off(),
        )
        .unwrap();
        assert_eq!(colocated.cross_boundary_bytes, 0);
        assert_eq!(split.cross_boundary_bytes, 4 * 256);
        assert!(colocated.per_process_finish[0] < split.per_process_finish[0]);
    }

    #[test]
    fn budget_enforced_on_rendezvous_completion() {
        // Regression: the budget was only checked in phase 1, so a
        // rendezvous completing as the network's last event could push
        // time past the budget and still report success.
        let mut net = ProcessNetwork::new("late");
        let ch = net.add_channel("c", 0);
        net.add_process(Process::new(
            "a",
            vec![
                Action::Compute(100),
                Action::Send {
                    channel: ch,
                    bytes: 64,
                },
            ],
        ));
        net.add_process(Process::new("b", vec![Action::Receive { channel: ch }]));
        let cfg = MessageConfig {
            budget: 120, // compute fits, the final transfer does not
            ..MessageConfig::default()
        };
        let err = simulate(
            &net,
            &Placement::from_assignment(vec![Resource::Software(0), Resource::Software(1)]),
            &cfg,
            &Tracer::off(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Budget { limit: 120 }));
    }

    #[test]
    fn tracing_is_observational_only() {
        // Bit-identical reports with tracing on and off, and the trace
        // itself is valid Chrome trace-event JSON.
        let net = prodcons(4, 64);
        let placement =
            Placement::from_assignment(vec![Resource::Software(0), Resource::Hardware(0)]);
        let cfg = MessageConfig::default();
        let plain = simulate(&net, &placement, &cfg, &Tracer::off()).unwrap();
        let tracer = Tracer::on();
        let traced = simulate(&net, &placement, &cfg, &tracer).unwrap();
        assert_eq!(plain, traced);
        assert!(tracer.event_count() > 0);
        let json = tracer.to_chrome_json();
        codesign_trace::validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn context_switch_costs_show_up_when_sharing_a_cpu() {
        let net = prodcons(8, 8);
        let cheap = simulate(
            &net,
            &Placement::all_software(2),
            &MessageConfig {
                context_switch: 0,
                ..MessageConfig::default()
            },
            &Tracer::off(),
        )
        .unwrap();
        let pricey = simulate(
            &net,
            &Placement::all_software(2),
            &MessageConfig {
                context_switch: 500,
                ..MessageConfig::default()
            },
            &Tracer::off(),
        )
        .unwrap();
        assert!(pricey.finish_time > cheap.finish_time);
    }

    // ---- MessageEngine (incremental, coordinator-mounted) ----

    use crate::engine::Coordinator;

    fn prodcons_engine(iterations: u32) -> MessageEngine {
        MessageEngine::new(
            "net",
            prodcons(iterations, 64),
            Placement::from_assignment(vec![Resource::Software(0), Resource::Hardware(0)]),
            MessageConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn engine_completes_and_counts_messages() {
        let mut c = Coordinator::new(16);
        c.add_engine(Box::new(prodcons_engine(8)));
        c.run(1_000_000).unwrap();
        let eng = c.engines()[0]
            .as_any()
            .downcast_ref::<MessageEngine>()
            .unwrap();
        assert!(eng.is_done());
        let r = eng.report();
        assert_eq!(r.messages, 8);
        assert_eq!(r.bytes, 8 * 64);
        assert_eq!(r.cross_boundary_bytes, 8 * 64, "SW->HW crosses");
        assert!(r.finish_time > 0);
    }

    #[test]
    fn engine_is_independent_of_horizon_subdivision() {
        // The composability contract behind lookahead: reaching time T
        // through any horizon sequence yields the same state.
        let finish = |quanta: &[u64]| {
            let mut eng = prodcons_engine(6);
            let mut t = 0;
            for &q in quanta {
                t += q;
                eng.advance_to(t).unwrap();
            }
            eng.advance_to(1_000_000).unwrap();
            assert!(eng.is_done());
            eng.report().clone()
        };
        let one_shot = finish(&[]);
        let fine = finish(&[1; 500]);
        let ragged = finish(&[3, 1, 250, 7, 7, 1000]);
        assert_eq!(one_shot, fine);
        assert_eq!(one_shot, ragged);
    }

    #[test]
    fn engine_hint_is_earliest_wake_time() {
        let mut eng = prodcons_engine(2);
        // Both processes start runnable at t=0.
        assert_eq!(eng.next_event_hint(), Some(0));
        // Advance 1 cycle: producer is mid-compute (atomic overshoot to
        // 100), consumer blocks on the empty channel. The earliest wake
        // is the producer's next action at 100.
        eng.advance_to(1).unwrap();
        assert_eq!(eng.next_event_hint(), Some(100));
        eng.advance_to(1_000_000).unwrap();
        assert!(eng.is_done());
        assert_eq!(eng.next_event_hint(), Some(u64::MAX), "parked when done");
    }

    #[test]
    fn engine_reports_deadlock_regardless_of_horizon() {
        let mut net = ProcessNetwork::new("dl");
        let ab = net.add_channel("ab", 0);
        let ba = net.add_channel("ba", 0);
        net.add_process(
            Process::new("a", vec![Action::Receive { channel: ba }]).with_iterations(1),
        );
        net.add_process(
            Process::new("b", vec![Action::Receive { channel: ab }]).with_iterations(1),
        );
        let mut eng = MessageEngine::new(
            "dl",
            net,
            Placement::all_hardware(2),
            MessageConfig::default(),
        )
        .unwrap();
        let err = eng.advance_to(10).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn lookahead_and_lockstep_coordinators_agree_on_the_engine() {
        for quantum in [1u64, 16, 128] {
            let run = |lookahead: bool| {
                let mut c = if lookahead {
                    Coordinator::new(quantum)
                } else {
                    Coordinator::lockstep(quantum)
                };
                c.add_engine(Box::new(prodcons_engine(8)));
                let stats = c.run(1_000_000).unwrap();
                let eng = c.engines()[0]
                    .as_any()
                    .downcast_ref::<MessageEngine>()
                    .unwrap();
                (stats.time, eng.report().clone(), eng.local_time())
            };
            let (t_look, r_look, lt_look) = run(true);
            let (t_lock, r_lock, lt_lock) = run(false);
            assert_eq!(t_look, t_lock, "quantum {quantum}");
            assert_eq!(r_look, r_lock, "quantum {quantum}");
            assert_eq!(lt_look, lt_lock, "quantum {quantum}");
        }
    }

    // ---- message-level fault injection ----

    /// A scripted fault source: one decision per send event, in order,
    /// then `None` forever.
    #[derive(Debug)]
    struct ScriptedFaults {
        script: Vec<SendFault>,
        next: usize,
    }

    impl MessageFaults for ScriptedFaults {
        fn on_send(&mut self, _channel: usize, _bytes: u64, _time: u64) -> SendFault {
            let f = self.script.get(self.next).copied().unwrap_or_default();
            self.next += 1;
            f
        }
    }

    fn run_engine_with_faults(
        mut eng: MessageEngine,
        script: Vec<SendFault>,
    ) -> Result<MessageReport, SimError> {
        eng.set_faults(Box::new(ScriptedFaults { script, next: 0 }));
        eng.advance_to(u64::MAX)?;
        Ok(eng.report().clone())
    }

    #[test]
    fn a_hook_that_never_faults_is_bit_identical() {
        let mut plain = prodcons_engine(8);
        plain.advance_to(u64::MAX).unwrap();
        let hooked = run_engine_with_faults(prodcons_engine(8), vec![]).unwrap();
        assert_eq!(plain.report(), &hooked);
    }

    #[test]
    fn dropped_rendezvous_send_is_a_lost_wakeup() {
        // The first producer->consumer handoff is lost: the producer
        // believes it delivered and keeps going, so the consumer comes up
        // one message short and the closed network deadlocks — a fault
        // that is *detected*, not silently absorbed.
        let err = run_engine_with_faults(prodcons_engine(2), vec![SendFault::Drop]).unwrap_err();
        let SimError::Deadlock { blocked, .. } = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert_eq!(blocked, vec!["consumer".to_string()]);
    }

    #[test]
    fn dropped_send_shows_up_in_engine_diagnostics() {
        let mut eng = prodcons_engine(2);
        eng.set_faults(Box::new(ScriptedFaults {
            script: vec![SendFault::Drop],
            next: 0,
        }));
        let _ = eng.advance_to(u64::MAX);
        assert_eq!(eng.diagnostics(), "blocked: consumer(recv)");
    }

    #[test]
    fn delayed_send_slips_the_schedule_but_loses_nothing() {
        let clean = run_engine_with_faults(prodcons_engine(4), vec![]).unwrap();
        let delayed =
            run_engine_with_faults(prodcons_engine(4), vec![SendFault::Delay(10_000)]).unwrap();
        assert_eq!(delayed.messages, clean.messages);
        assert_eq!(delayed.bytes, clean.bytes);
        assert!(
            delayed.finish_time >= clean.finish_time + 10_000,
            "delay visible in the schedule: {} vs {}",
            delayed.finish_time,
            clean.finish_time
        );
    }

    #[test]
    fn duplicated_buffered_send_delivers_twice() {
        // Consumer expects one more message than the producer sends; a
        // duplicated buffered send makes up the difference, so the run
        // completes where the fault-free network would deadlock.
        let net = |iters_consumer| {
            let mut net = ProcessNetwork::new("dup");
            let ch = net.add_channel("data", 4);
            net.add_process(
                Process::new(
                    "producer",
                    vec![Action::Send {
                        channel: ch,
                        bytes: 8,
                    }],
                )
                .with_iterations(2),
            );
            net.add_process(
                Process::new("consumer", vec![Action::Receive { channel: ch }])
                    .with_iterations(iters_consumer),
            );
            net
        };
        let engine = |iters| {
            MessageEngine::new(
                "dup",
                net(iters),
                Placement::all_hardware(2),
                MessageConfig::default(),
            )
            .unwrap()
        };
        let err = run_engine_with_faults(engine(3), vec![]).unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
        let report = run_engine_with_faults(engine(3), vec![SendFault::Duplicate]).unwrap();
        assert_eq!(report.messages, 3, "two sends, three deliveries");
    }

    #[test]
    fn per_channel_observables_are_tracked() {
        // a -> c0(cap 2) -> b -> c1(cap 2) -> c, three iterations of 12
        // bytes each: per-channel payloads are architected (fixed by the
        // bodies), and c0's last delivery must precede c1's.
        let mut net = ProcessNetwork::new("pipe");
        let c0 = net.add_channel("c0", 2);
        let c1 = net.add_channel("c1", 2);
        net.add_process(
            Process::new(
                "a",
                vec![
                    Action::Compute(40),
                    Action::Send {
                        channel: c0,
                        bytes: 12,
                    },
                ],
            )
            .with_iterations(3),
        );
        net.add_process(
            Process::new(
                "b",
                vec![
                    Action::Receive { channel: c0 },
                    Action::Compute(20),
                    Action::Send {
                        channel: c1,
                        bytes: 12,
                    },
                ],
            )
            .with_iterations(3),
        );
        net.add_process(
            Process::new("c", vec![Action::Receive { channel: c1 }]).with_iterations(3),
        );
        let placement = Placement::from_assignment(vec![
            Resource::Software(0),
            Resource::Hardware(0),
            Resource::Hardware(1),
        ]);
        let report = simulate(&net, &placement, &MessageConfig::default(), &Tracer::off()).unwrap();
        assert_eq!(report.per_channel_bytes, vec![36, 36]);
        assert_eq!(report.per_channel_bytes.iter().sum::<u64>(), report.bytes);
        assert!(
            report.last_send_seq[0] < report.last_send_seq[1],
            "upstream channel must complete before downstream: {:?}",
            report.last_send_seq
        );
        assert_eq!(
            *report.last_send_seq.iter().max().unwrap(),
            report.messages,
            "delivery stamps are dense and monotone"
        );
        // The incremental engine reports the identical observables.
        let mut eng = MessageEngine::new("pipe", net, placement, MessageConfig::default()).unwrap();
        while !eng.is_done() {
            eng.advance_to(u64::MAX).unwrap();
        }
        assert_eq!(*eng.report(), report);
    }

    #[test]
    fn one_shot_and_engine_agree_on_contended_software() {
        // Frozen-seed regression for the scheduler unification: this
        // network (six processes, four on one shared CPU) is the shrunken
        // reproduction of a finish-time divergence between the old
        // round-barrier one-shot scheduler and the time-driven engine —
        // the one-shot handed the CPU to a later-ready process after a
        // rendezvous. One scheduling core now serves both entry points,
        // and their reports must agree exactly.
        let cfg = NetworkConfig {
            processes: 6,
            channel_prob: 0.4,
            compute: (10, 500),
            bytes: (4, 64),
            iterations: 3,
            seed: 9_567_225_181_049_229_824,
        };
        let net = random_process_network(&cfg);
        let placement = Placement::from_assignment(
            [false, true, false, true, false, false]
                .iter()
                .map(|&hw| {
                    if hw {
                        Resource::Hardware(0)
                    } else {
                        Resource::Software(0)
                    }
                })
                .collect(),
        );
        let one_shot =
            simulate(&net, &placement, &MessageConfig::default(), &Tracer::off()).unwrap();
        let mut eng =
            MessageEngine::new(net.name(), net.clone(), placement, MessageConfig::default())
                .unwrap();
        while !eng.is_done() {
            eng.advance_to(u64::MAX).unwrap();
        }
        assert_eq!(*eng.report(), one_shot);
        assert!(one_shot.finish_time > 0);
    }
}
