//! The co-simulation kernel: heterogeneous engines under conservative,
//! quantum-based time synchronization.
//!
//! The paper defines co-simulation as "a simulation environment that can
//! understand the semantics of both the hardware and the software
//! components and how actions in one domain affect the state of the
//! other" (Section 3.1). Here each domain simulator implements
//! [`SimEngine`], and a [`Coordinator`] advances them in lockstep quanta:
//! no engine's local clock ever leads another's by more than the quantum,
//! which is the conservative-synchronization guarantee. The quantum is
//! the co-simulation speed/fidelity dial: larger quanta mean fewer
//! synchronization rounds but coarser visibility of cross-domain events.
//!
//! On top of lockstep, the coordinator understands *lookahead*: an engine
//! may promise, via [`SimEngine::next_event_hint`], that it can neither
//! produce nor observe a cross-domain effect (including finishing) before
//! some future time. When every unfinished engine makes such a promise,
//! the coordinator collapses the guaranteed-quiet quanta into a single
//! round, leaping straight to the latest quantum-grid point covered by
//! the earliest promise. Because leaps stay on the lockstep grid and
//! never pass an engine's hint, observable results — engine end-states,
//! final global time, and budget errors — are bit-identical to pure
//! lockstep (see DESIGN.md §9 for the argument).

use codesign_rtl::state::{StateReader, StateWriter};
use codesign_trace::{Arg, Tracer, TrackId};

use crate::error::{EngineSnapshot, SimError, WatchdogSnapshot};

/// One domain simulator (a software ISS, a hardware event kernel, a
/// process network…) participating in co-simulation.
pub trait SimEngine: std::fmt::Debug {
    /// Engine name, for reports.
    fn name(&self) -> &str;
    /// The engine's local clock.
    fn local_time(&self) -> u64;
    /// Advances local simulation up to (at most) `t`. The engine may stop
    /// earlier only by finishing.
    ///
    /// # Errors
    ///
    /// Propagates domain-simulation failures.
    fn advance_to(&mut self, t: u64) -> Result<(), SimError>;
    /// Whether the engine has no further work.
    fn is_done(&self) -> bool;
    /// The engine as [`std::any::Any`], so callers can recover the
    /// concrete simulator (and its results) after coordination.
    fn as_any(&self) -> &dyn std::any::Any;
    /// Lookahead: the earliest time at which this engine can next produce
    /// or observe a cross-domain effect — including *finishing*, which the
    /// coordinator (and other engines) observe.
    ///
    /// Returning `Some(h)` promises that advancing the engine to any
    /// horizon `t <= h` in one call yields the same state as reaching `t`
    /// through any sequence of smaller horizons, and that `is_done()`
    /// cannot flip before `h`. An engine with no future events parks at
    /// `Some(u64::MAX)`. The default, `None`, makes no promise and keeps
    /// the coordinator fully conservative (pure lockstep pace).
    fn next_event_hint(&self) -> Option<u64> {
        None
    }
    /// One line of engine-specific state for watchdog diagnostics (e.g.
    /// which processes a message engine has blocked). Empty by default.
    fn diagnostics(&self) -> String {
        String::new()
    }
    /// Whether this engine implements [`save_state`](Self::save_state) /
    /// [`restore_state`](Self::restore_state) as a matched, bit-exact
    /// pair. `false` by default — a coordinator refuses whole-run
    /// checkpoints unless every engine opts in.
    fn supports_snapshot(&self) -> bool {
        false
    }
    /// Serializes the engine's mutable state. The default writes nothing
    /// (matched with the default `restore_state`), which is correct only
    /// for engines with no mutable state — hence `supports_snapshot`
    /// defaulting to `false`.
    fn save_state(&self, _w: &mut StateWriter) {}
    /// Restores state written by [`save_state`](Self::save_state) into a
    /// structurally identical engine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hardware`] wrapping
    /// [`codesign_rtl::RtlError::State`] on truncated or mismatched
    /// bytes.
    fn restore_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), SimError> {
        Ok(())
    }
    /// Mutable downcast access, for debugger frontends that must steer a
    /// specific engine while it is mounted under a coordinator. `None`
    /// by default.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// No-progress watchdog parameters.
///
/// Every in-repo engine keeps its local clock following the round
/// horizon while it has work (the "floor" convention), so under a
/// healthy mix the minimum unfinished local time strictly increases
/// every round. An engine that wedges — an ISS spinning on a register
/// that never changes state, a lost rendezvous partner, a stuck bus —
/// freezes that minimum, and the watchdog converts the would-be
/// infinite loop into a structured [`SimError::Watchdog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive no-progress rounds tolerated before firing. The hint
    /// -regression check (an unfinished engine promising an event before
    /// its own clock) fires immediately regardless.
    pub max_stalled_rounds: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        // Generous: a healthy engine advances every round, so even one
        // stalled round is suspicious; 64 keeps false positives
        // implausible while still bounding a wedged run tightly.
        WatchdogConfig {
            max_stalled_rounds: 64,
        }
    }
}

/// Bounded retry-with-backoff for transient hardware faults.
///
/// Only [`SimError::Hardware`] failures from
/// [`SimEngine::advance_to`] are retried — they model transient bus
/// faults (the kind a fault-injection campaign produces); software,
/// deadlock, and budget errors always propagate. A failed engine sits
/// out `2^(attempt-1)` rounds (exponential backoff in synchronization
/// rounds, not wall time, so runs stay deterministic) before its next
/// attempt, and the watchdog excuses rounds in which an engine is
/// backing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failed attempts tolerated per engine before the
    /// fault propagates.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Per-engine retry bookkeeping (parallel to `Coordinator::engines`).
#[derive(Debug, Clone, Copy, Default)]
struct RetryState {
    /// Consecutive failed `advance_to` attempts.
    attempts: u32,
    /// Rounds left to sit out before the next attempt.
    cooldown: u64,
}

/// Cumulative coordination statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Synchronization rounds executed.
    pub sync_rounds: u64,
    /// Lockstep rounds that lookahead collapsed away: a leap covering `k`
    /// quanta counts as one `sync_round` plus `k - 1` `rounds_skipped`,
    /// so `sync_rounds + rounds_skipped` equals the pure-lockstep round
    /// count for the same run.
    pub rounds_skipped: u64,
    /// Global cycles covered beyond the first quantum of each leaping
    /// round (the dead time lookahead removed from coordination).
    pub cycles_leapt: u64,
    /// Global time reached.
    pub time: u64,
    /// Transient hardware faults absorbed by the retry policy (each one
    /// cost the faulting engine a backoff, not the run).
    pub retries: u64,
}

/// A conservative coordinator over a set of engines: lockstep pacing by
/// default, with lookahead-driven idle-skip when engines provide
/// [`SimEngine::next_event_hint`]s.
#[derive(Debug)]
pub struct Coordinator {
    engines: Vec<Box<dyn SimEngine>>,
    quantum: u64,
    lookahead: bool,
    stats: CoordinatorStats,
    tracer: Tracer,
    /// Trace tracks parallel to `engines`, plus one for the coordinator.
    engine_tracks: Vec<TrackId>,
    coord_track: TrackId,
    /// No-progress watchdog (on by default; `None` disables).
    watchdog: Option<WatchdogConfig>,
    /// Minimum unfinished local time after the previous round.
    last_min_time: Option<u64>,
    /// Consecutive rounds that minimum failed to advance.
    stalled_rounds: u64,
    /// The round after which that minimum last advanced (watchdog
    /// diagnostics: "when did this run last visibly progress?").
    last_progress_round: u64,
    /// Transient-fault retry policy (off by default).
    retry: Option<RetryPolicy>,
    /// Retry bookkeeping, parallel to `engines`.
    retry_state: Vec<RetryState>,
}

impl Coordinator {
    /// Creates a coordinator with the given synchronization quantum.
    /// Lookahead is enabled: rounds leap over guaranteed-quiet quanta
    /// whenever every unfinished engine hints a future event time.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    #[must_use]
    pub fn new(quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        let tracer = Tracer::off();
        let coord_track = tracer.track("coordinator");
        Coordinator {
            engines: Vec::new(),
            quantum,
            lookahead: true,
            stats: CoordinatorStats::default(),
            tracer,
            engine_tracks: Vec::new(),
            coord_track,
            watchdog: Some(WatchdogConfig::default()),
            last_min_time: None,
            stalled_rounds: 0,
            last_progress_round: 0,
            retry: None,
            retry_state: Vec::new(),
        }
    }

    /// Creates a pure-lockstep coordinator: engine hints are ignored and
    /// every round advances exactly one quantum. This is the reference
    /// semantics lookahead must reproduce bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0`.
    #[must_use]
    pub fn lockstep(quantum: u64) -> Self {
        let mut c = Coordinator::new(quantum);
        c.lookahead = false;
        c
    }

    /// Whether lookahead leaping is enabled.
    #[must_use]
    pub fn lookahead(&self) -> bool {
        self.lookahead
    }

    /// Configures (or with `None` disables) the no-progress watchdog.
    /// Enabled by default with [`WatchdogConfig::default`].
    pub fn set_watchdog(&mut self, watchdog: Option<WatchdogConfig>) {
        self.watchdog = watchdog;
    }

    /// The active watchdog configuration, if any.
    #[must_use]
    pub fn watchdog(&self) -> Option<WatchdogConfig> {
        self.watchdog
    }

    /// Configures (or with `None` disables) bounded retry-with-backoff
    /// for transient hardware faults. Disabled by default: without a
    /// policy every engine error propagates on first occurrence, exactly
    /// the pre-existing behavior.
    pub fn set_retry(&mut self, retry: Option<RetryPolicy>) {
        self.retry = retry;
    }

    /// The active retry policy, if any.
    #[must_use]
    pub fn retry(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Attaches a tracer: each round emits a `round` span on the
    /// `coordinator` track (with the post-round skew as a counter) and an
    /// `advance` span per engine, timestamped in global cycles. Tracing is
    /// observational only — coordination results are identical either way.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
        self.coord_track = self.tracer.track("coordinator");
        self.engine_tracks = self
            .engines
            .iter()
            .map(|e| self.tracer.track(&format!("engine:{}", e.name())))
            .collect();
    }

    /// Registers an engine.
    pub fn add_engine(&mut self, engine: Box<dyn SimEngine>) {
        if self.tracer.is_on() {
            self.engine_tracks
                .push(self.tracer.track(&format!("engine:{}", engine.name())));
        }
        self.engines.push(engine);
        self.retry_state.push(RetryState::default());
    }

    /// The synchronization quantum.
    #[must_use]
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Coordination statistics so far.
    #[must_use]
    pub fn stats(&self) -> CoordinatorStats {
        self.stats
    }

    /// Registered engines (for post-run inspection).
    #[must_use]
    pub fn engines(&self) -> &[Box<dyn SimEngine>] {
        &self.engines
    }

    /// Whether all engines are done.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.engines.iter().all(|e| e.is_done())
    }

    /// Maximum skew between the clocks of engines that still have work.
    ///
    /// Finished engines park their clocks at completion time and opt out
    /// of further rounds, so they are excluded: the conservative bound —
    /// no engine with pending work leads another by more than one quantum
    /// — is what the coordinator actually guarantees. Returns 0 when
    /// fewer than two engines are running.
    #[must_use]
    pub fn skew(&self) -> u64 {
        let times = self
            .engines
            .iter()
            .filter(|e| !e.is_done())
            .map(|e| e.local_time());
        let (lo, hi) = times.fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
        hi.saturating_sub(lo)
    }

    /// Executes one synchronization round with the horizon clamped to
    /// `budget`. This is the single public per-round entry point: both it
    /// and [`Coordinator::run`] route through the same clamped
    /// [`advance_round`](Self::advance_round), so mixing the two can
    /// never overshoot a budget. Pass `u64::MAX` for an effectively
    /// unbounded round.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Budget`] if global time has already reached
    /// `budget`, and propagates engine failures.
    pub fn run_one_round(&mut self, budget: u64) -> Result<(), SimError> {
        self.advance_round(budget)
    }

    /// Plans the next round's horizon under `budget`.
    ///
    /// The lockstep horizon is one quantum ahead (clamped). With
    /// lookahead, if every unfinished engine hints a next-event time, the
    /// round may instead leap to the *latest quantum-grid point that does
    /// not pass the earliest hint* — staying on the grid keeps the final
    /// global time, every `advance_to` horizon actually delivered, and
    /// budget behavior identical to lockstep. Returns the horizon and the
    /// number of lockstep quanta it covers.
    fn plan_horizon(&self, budget: u64) -> (u64, u64) {
        let start = self.stats.time;
        let base = start.saturating_add(self.quantum).min(budget);
        if self.lookahead {
            let mut min_hint = u64::MAX;
            let mut running = 0u64;
            for e in &self.engines {
                if e.is_done() {
                    continue;
                }
                running += 1;
                match e.next_event_hint() {
                    Some(h) => min_hint = min_hint.min(h),
                    None => return (base, 1),
                }
            }
            if running > 0 && min_hint > base {
                // Largest grid point `start + k*quantum` that is <= the
                // earliest hint, clamped to the budget. `min_hint > base`
                // guarantees `k >= 1` and no overflow.
                let k = (min_hint - start) / self.quantum;
                let horizon = start
                    .saturating_add(k.saturating_mul(self.quantum))
                    .min(budget);
                if horizon > base {
                    // Quanta a lockstep coordinator would have spent to
                    // reach the same horizon (the last may be partial
                    // when the budget clamps off-grid).
                    return (horizon, (horizon - start).div_ceil(self.quantum));
                }
            }
        }
        (base, 1)
    }

    /// One clamped synchronization round: plans the horizon (lockstep
    /// pace, or a lookahead leap over guaranteed-quiet quanta), advances
    /// every unfinished engine to it, and accounts statistics. All round
    /// execution — `run_one_round` and `run` alike — goes through here.
    fn advance_round(&mut self, budget: u64) -> Result<(), SimError> {
        if self.stats.time >= budget {
            return Err(SimError::Budget { limit: budget });
        }
        let (horizon, quanta) = self.plan_horizon(budget);
        let traced = self.tracer.is_on();
        let start = self.stats.time;
        // Whether any engine spent this round in retry backoff — such a
        // round is excused from the watchdog's progress accounting.
        let mut backing_off = false;
        for (i, e) in self.engines.iter_mut().enumerate() {
            if e.is_done() {
                continue;
            }
            if self.retry_state[i].cooldown > 0 {
                self.retry_state[i].cooldown -= 1;
                backing_off = true;
                continue;
            }
            let before = e.local_time();
            match e.advance_to(horizon) {
                Ok(()) => self.retry_state[i].attempts = 0,
                Err(SimError::Hardware(fault)) if self.retry.is_some() => {
                    // A transient bus fault: charge this engine a backoff
                    // and try again in a later round, unless it has
                    // exhausted its attempts.
                    let policy = self.retry.unwrap_or_default();
                    let state = &mut self.retry_state[i];
                    state.attempts += 1;
                    self.stats.retries += 1;
                    if state.attempts > policy.max_attempts {
                        return Err(SimError::Hardware(fault));
                    }
                    state.cooldown = 1u64 << (state.attempts - 1).min(32);
                    backing_off = true;
                    if traced {
                        self.tracer.instant(
                            self.engine_tracks[i],
                            "transient-fault",
                            before,
                            &[
                                ("error", Arg::from(fault.to_string())),
                                ("attempt", Arg::from(u64::from(state.attempts))),
                                ("cooldown_rounds", Arg::from(state.cooldown)),
                            ],
                        );
                    }
                    continue;
                }
                Err(err) => return Err(err),
            }
            if traced {
                self.tracer.span(
                    self.engine_tracks[i],
                    "advance",
                    before,
                    e.local_time().saturating_sub(before),
                    &[("horizon", Arg::from(horizon))],
                );
            }
        }
        self.stats.time = horizon;
        self.stats.sync_rounds += 1;
        self.stats.rounds_skipped += quanta - 1;
        self.stats.cycles_leapt += (horizon - start).saturating_sub(self.quantum);
        if traced {
            self.tracer.span(
                self.coord_track,
                "round",
                start,
                horizon - start,
                &[
                    ("round", Arg::from(self.stats.sync_rounds)),
                    ("quanta", Arg::from(quanta)),
                ],
            );
            self.tracer
                .counter(self.coord_track, "skew", horizon, self.skew());
            self.tracer.counter(
                self.coord_track,
                "rounds_skipped",
                horizon,
                self.stats.rounds_skipped,
            );
            self.tracer.counter(
                self.coord_track,
                "cycles_leapt",
                horizon,
                self.stats.cycles_leapt,
            );
        }
        self.check_progress(backing_off)
    }

    /// The watchdog: tracks the minimum unfinished local time across
    /// rounds and fires when it stalls for too long, or immediately when
    /// an unfinished engine's hint regresses behind its own clock (a
    /// broken lookahead promise that could otherwise wedge or corrupt
    /// coordination). Rounds spent in retry backoff are excused.
    fn check_progress(&mut self, backing_off: bool) -> Result<(), SimError> {
        let Some(config) = self.watchdog else {
            return Ok(());
        };
        let min_time = self
            .engines
            .iter()
            .filter(|e| !e.is_done())
            .map(|e| e.local_time())
            .min();
        let Some(min_time) = min_time else {
            // All engines finished; nothing to watch.
            return Ok(());
        };
        if !backing_off {
            match self.last_min_time {
                Some(prev) if min_time <= prev => self.stalled_rounds += 1,
                _ => {
                    self.stalled_rounds = 0;
                    self.last_progress_round = self.stats.sync_rounds;
                }
            }
            self.last_min_time = Some(min_time);
        }
        let hint_regressed = self
            .engines
            .iter()
            .any(|e| !e.is_done() && e.next_event_hint().is_some_and(|h| h < e.local_time()));
        if hint_regressed || self.stalled_rounds >= config.max_stalled_rounds {
            let snapshot = self.snapshot();
            if self.tracer.is_on() {
                self.tracer.instant(
                    self.coord_track,
                    "watchdog",
                    self.stats.time,
                    &[
                        ("stalled_rounds", Arg::from(snapshot.stalled_rounds)),
                        ("hint_regressed", Arg::from(hint_regressed)),
                    ],
                );
            }
            return Err(SimError::Watchdog { snapshot });
        }
        Ok(())
    }

    /// Captures per-engine diagnostics for a watchdog report.
    fn snapshot(&self) -> WatchdogSnapshot {
        WatchdogSnapshot {
            time: self.stats.time,
            stalled_rounds: self.stalled_rounds,
            last_progress_round: self.last_progress_round,
            engines: self
                .engines
                .iter()
                .map(|e| EngineSnapshot {
                    name: e.name().to_string(),
                    local_time: e.local_time(),
                    hint: e.next_event_hint(),
                    done: e.is_done(),
                    detail: e.diagnostics(),
                })
                .collect(),
        }
    }

    /// Runs synchronization rounds until every engine is done or `budget`
    /// global cycles have elapsed. Every round's horizon is clamped to
    /// the budget, so global time never advances past it even when the
    /// budget is not a multiple of the quantum.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Budget`] on budget exhaustion and propagates
    /// engine failures.
    pub fn run(&mut self, budget: u64) -> Result<CoordinatorStats, SimError> {
        while !self.is_done() {
            self.advance_round(budget)?;
        }
        Ok(self.stats)
    }

    /// Mutable access to the registered engines (debugger frontends,
    /// post-restore fixups). Ordinary runs never need this.
    #[must_use]
    pub fn engines_mut(&mut self) -> &mut [Box<dyn SimEngine>] {
        &mut self.engines
    }

    /// Whether every registered engine supports bit-exact
    /// checkpoint/restore, i.e. whether [`Coordinator::save_state`]
    /// captures the whole co-simulation.
    #[must_use]
    pub fn supports_snapshot(&self) -> bool {
        self.engines.iter().all(|e| e.supports_snapshot())
    }

    /// Serializes the whole co-simulation's mutable state: coordinator
    /// statistics, watchdog and retry bookkeeping, and every engine's
    /// state as a length-prefixed blob. Static structure (quantum,
    /// lookahead mode, policies, tracer) is not serialized — a
    /// checkpoint restores into a freshly built, structurally identical
    /// coordinator.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.stats.sync_rounds);
        w.u64(self.stats.rounds_skipped);
        w.u64(self.stats.cycles_leapt);
        w.u64(self.stats.time);
        w.u64(self.stats.retries);
        w.bool(self.last_min_time.is_some());
        w.u64(self.last_min_time.unwrap_or(0));
        w.u64(self.stalled_rounds);
        w.u64(self.last_progress_round);
        w.seq(self.retry_state.len());
        for rs in &self.retry_state {
            w.u32(rs.attempts);
            w.u64(rs.cooldown);
        }
        w.seq(self.engines.len());
        for e in &self.engines {
            w.nested(|w| e.save_state(w));
        }
    }

    /// Restores state written by [`Coordinator::save_state`] into a
    /// structurally identical coordinator (same engines in the same
    /// order, same quantum and policies).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hardware`] wrapping
    /// [`codesign_rtl::RtlError::State`] on truncation or an engine
    /// -count mismatch, and propagates engine restore failures.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SimError> {
        self.stats.sync_rounds = r.u64()?;
        self.stats.rounds_skipped = r.u64()?;
        self.stats.cycles_leapt = r.u64()?;
        self.stats.time = r.u64()?;
        self.stats.retries = r.u64()?;
        let has_min = r.bool()?;
        let min = r.u64()?;
        self.last_min_time = has_min.then_some(min);
        self.stalled_rounds = r.u64()?;
        self.last_progress_round = r.u64()?;
        r.seq(Some(self.retry_state.len()))?;
        for rs in &mut self.retry_state {
            rs.attempts = r.u32()?;
            rs.cooldown = r.u64()?;
        }
        r.seq(Some(self.engines.len()))?;
        for e in &mut self.engines {
            let blob = r.bytes()?;
            let mut er = StateReader::new(blob);
            e.restore_state(&mut er)?;
            er.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy engine that needs `work` cycles to finish.
    #[derive(Debug)]
    struct Worker {
        name: String,
        time: u64,
        work: u64,
    }

    impl SimEngine for Worker {
        fn name(&self) -> &str {
            &self.name
        }
        fn local_time(&self) -> u64 {
            self.time
        }
        fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
            self.time = t.min(self.work).max(self.time);
            Ok(())
        }
        fn is_done(&self) -> bool {
            self.time >= self.work
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn worker(name: &str, work: u64) -> Box<dyn SimEngine> {
        Box::new(Worker {
            name: name.to_string(),
            time: 0,
            work,
        })
    }

    /// A `Worker` that also hints: it produces no cross-domain effect
    /// before finishing, so its next event is exactly its completion.
    #[derive(Debug)]
    struct HintedWorker(Worker);

    impl SimEngine for HintedWorker {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn local_time(&self) -> u64 {
            self.0.local_time()
        }
        fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
            self.0.advance_to(t)
        }
        fn is_done(&self) -> bool {
            self.0.is_done()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn next_event_hint(&self) -> Option<u64> {
            Some(self.0.work)
        }
    }

    fn hinted(name: &str, work: u64) -> Box<dyn SimEngine> {
        Box::new(HintedWorker(Worker {
            name: name.to_string(),
            time: 0,
            work,
        }))
    }

    #[test]
    fn runs_until_all_engines_finish() {
        // Hint-free engines keep the coordinator fully conservative even
        // with lookahead enabled: one round per quantum, as ever.
        let mut c = Coordinator::new(10);
        c.add_engine(worker("hw", 95));
        c.add_engine(worker("sw", 42));
        let stats = c.run(1_000).unwrap();
        assert!(c.is_done());
        assert_eq!(stats.time, 100, "rounded up to quantum");
        assert_eq!(stats.sync_rounds, 10);
        assert_eq!(stats.rounds_skipped, 0, "no hints, no leaps");
        assert_eq!(stats.cycles_leapt, 0);
    }

    #[test]
    fn lookahead_collapses_quiet_quanta() {
        // Same workloads as `runs_until_all_engines_finish`, but hinted:
        // rounds 10 -> 4 while final time and end-states are identical.
        let mut c = Coordinator::new(10);
        c.add_engine(hinted("hw", 95));
        c.add_engine(hinted("sw", 42));
        let stats = c.run(1_000).unwrap();
        assert!(c.is_done());
        assert_eq!(stats.time, 100, "bit-identical to lockstep");
        assert_eq!(c.engines()[0].local_time(), 95);
        assert_eq!(c.engines()[1].local_time(), 42);
        // Round 1 leaps 0->40 (hint 42), round 2 steps 40->50 (42 inside),
        // round 3 leaps 50->90 (hint 95), round 4 steps 90->100.
        assert_eq!(stats.sync_rounds, 4);
        assert_eq!(stats.rounds_skipped, 6, "sync + skipped == lockstep 10");
        assert_eq!(stats.cycles_leapt, 30 + 30);
    }

    #[test]
    fn lockstep_constructor_ignores_hints() {
        let mut c = Coordinator::lockstep(10);
        assert!(!c.lookahead());
        c.add_engine(hinted("hw", 95));
        c.add_engine(hinted("sw", 42));
        let stats = c.run(1_000).unwrap();
        assert_eq!(stats.sync_rounds, 10);
        assert_eq!(stats.rounds_skipped, 0);
    }

    #[test]
    fn one_hint_free_engine_blocks_leaping() {
        let mut c = Coordinator::new(10);
        c.add_engine(hinted("hw", 95));
        c.add_engine(worker("sw", 42)); // hints `None`
        let stats = c.run(1_000).unwrap();
        // `sw` blocks all leaps until it finishes at t=50; after that
        // only `hw` (hint 95) remains: leap 50->90, then 90->100.
        assert_eq!(stats.time, 100);
        assert_eq!(stats.sync_rounds, 5 + 2);
        assert_eq!(stats.rounds_skipped, 3);
    }

    #[test]
    fn leap_is_clamped_by_budget() {
        let mut c = Coordinator::new(10);
        c.add_engine(hinted("slow", 1_000));
        let err = c.run(25).unwrap_err();
        assert_eq!(err, SimError::Budget { limit: 25 });
        assert_eq!(c.stats().time, 25, "leap never passes the budget");
        assert_eq!(c.engines()[0].local_time(), 25);
        // Lockstep would have paid rounds at 10, 20, 25.
        assert_eq!(c.stats().sync_rounds, 1);
        assert_eq!(c.stats().rounds_skipped, 2);
    }

    #[test]
    fn run_one_round_enforces_budget() {
        // Regression (satellite): `run_one_round` used to compute its own
        // unclamped horizon, so mixing it with `run` could overshoot a
        // budget. Both now route through the same clamped round.
        let mut c = Coordinator::new(7);
        c.add_engine(worker("w", 1_000));
        c.run_one_round(10).unwrap();
        assert_eq!(c.stats().time, 7);
        c.run_one_round(10).unwrap();
        assert_eq!(c.stats().time, 10, "clamped, not 14");
        assert_eq!(
            c.run_one_round(10),
            Err(SimError::Budget { limit: 10 }),
            "budget exhausted"
        );
    }

    #[test]
    fn skew_bounded_by_quantum() {
        let mut c = Coordinator::new(7);
        c.add_engine(worker("a", 100));
        c.add_engine(worker("b", 30));
        while !c.is_done() {
            c.run_one_round(u64::MAX).unwrap();
            // The conservative guarantee: no running engine leads another
            // by more than one quantum — including after `b` parks at 30
            // while `a` keeps advancing.
            assert!(
                c.skew() <= c.quantum(),
                "skew {} exceeds quantum {} at t={}",
                c.skew(),
                c.quantum(),
                c.stats().time
            );
        }
        assert_eq!(c.skew(), 0, "no running engines, no skew");
    }

    #[test]
    fn smaller_quantum_costs_more_rounds() {
        // Pinned to the lockstep path explicitly: this test measures the
        // quantum/round-count trade-off, which lookahead exists to break.
        let mut fine = Coordinator::lockstep(1);
        fine.add_engine(worker("w", 64));
        let fine_stats = fine.run(10_000).unwrap();
        let mut coarse = Coordinator::lockstep(32);
        coarse.add_engine(worker("w", 64));
        let coarse_stats = coarse.run(10_000).unwrap();
        assert!(fine_stats.sync_rounds > coarse_stats.sync_rounds * 10);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let mut c = Coordinator::new(10);
        c.add_engine(worker("slow", 1_000_000));
        assert_eq!(c.run(100), Err(SimError::Budget { limit: 100 }));
    }

    #[test]
    fn budget_clamps_final_horizon() {
        // Regression: with a budget that is not a quantum multiple, the
        // last round used to overshoot the budget before the check fired.
        let mut c = Coordinator::new(7);
        c.add_engine(worker("slow", 1_000));
        let err = c.run(10).unwrap_err();
        assert_eq!(err, SimError::Budget { limit: 10 });
        assert_eq!(c.stats().time, 10, "never advances past the budget");
        assert_eq!(c.engines()[0].local_time(), 10);
    }

    #[test]
    fn tracing_does_not_change_coordination() {
        let run = |tracer: Option<&Tracer>| {
            let mut c = Coordinator::new(10);
            c.add_engine(worker("hw", 95));
            c.add_engine(worker("sw", 42));
            if let Some(t) = tracer {
                c.set_tracer(t);
            }
            c.run(1_000).unwrap()
        };
        let plain = run(None);
        let tracer = Tracer::on();
        let traced = run(Some(&tracer));
        assert_eq!(plain, traced);
        assert!(tracer.event_count() > 0);
        codesign_trace::validate_chrome_trace(&tracer.to_chrome_json()).unwrap();
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        let _ = Coordinator::new(0);
    }

    #[test]
    fn empty_coordinator_is_trivially_done() {
        let mut c = Coordinator::new(5);
        let stats = c.run(10).unwrap();
        assert_eq!(stats.sync_rounds, 0);
    }

    // ---- watchdog ----

    /// An engine that advances normally until `stall_at`, then freezes
    /// its clock without ever finishing — the failure mode (a wedged
    /// simulator) the watchdog exists to catch.
    #[derive(Debug)]
    struct StallingWorker {
        time: u64,
        stall_at: u64,
    }

    impl SimEngine for StallingWorker {
        fn name(&self) -> &str {
            "stuck"
        }
        fn local_time(&self) -> u64 {
            self.time
        }
        fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
            self.time = t.min(self.stall_at).max(self.time);
            Ok(())
        }
        fn is_done(&self) -> bool {
            false
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn diagnostics(&self) -> String {
            "wedged waiting on a bus grant".to_string()
        }
    }

    #[test]
    fn two_engine_stall_returns_watchdog_error_not_a_hang() {
        // One healthy engine keeps doing work; the other wedges at t=50.
        // Without the watchdog this `run(u64::MAX)` would never return.
        let mut c = Coordinator::new(10);
        c.add_engine(worker("healthy", 100_000_000));
        c.add_engine(Box::new(StallingWorker {
            time: 0,
            stall_at: 50,
        }));
        let err = c.run(u64::MAX).unwrap_err();
        let SimError::Watchdog { snapshot } = err else {
            panic!("expected watchdog, got {err:?}");
        };
        assert_eq!(snapshot.engines.len(), 2);
        assert!(snapshot.stuck().contains(&"stuck"));
        // The culprit list blames exactly the wedged engine: `healthy`
        // kept advancing (it is a suspect only because it never
        // finished), while `stuck` froze at t=50 and holds the minimum.
        assert_eq!(snapshot.culprits(), vec!["stuck"]);
        assert_eq!(
            snapshot.stalled_rounds,
            WatchdogConfig::default().max_stalled_rounds
        );
        // Progress stopped once `stuck` hit 50: with quantum 10, rounds
        // 1..=5 advanced the minimum, so round 5 is the last progress.
        assert_eq!(snapshot.last_progress_round, 5);
        let stuck = &snapshot.engines[1];
        assert_eq!(stuck.local_time, 50);
        assert_eq!(stuck.hint, None, "per-engine hints are captured");
        assert!(stuck.detail.contains("bus grant"), "diagnostics captured");
        // The error message carries the whole snapshot for humans —
        // including *which* engine stalled, by name.
        let msg = SimError::Watchdog { snapshot }.to_string();
        assert!(msg.contains("no progress"), "{msg}");
        assert!(msg.contains("stalled engine(s): stuck"), "{msg}");
        assert!(msg.contains("last progress in round 5"), "{msg}");
        assert!(msg.contains("stuck@50"), "{msg}");
    }

    /// An engine whose hint regresses behind its own clock: a broken
    /// lookahead promise the watchdog flags immediately.
    #[derive(Debug)]
    struct BrokenPromise {
        time: u64,
    }

    impl SimEngine for BrokenPromise {
        fn name(&self) -> &str {
            "liar"
        }
        fn local_time(&self) -> u64 {
            self.time
        }
        fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
            self.time = t;
            Ok(())
        }
        fn is_done(&self) -> bool {
            false
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn next_event_hint(&self) -> Option<u64> {
            Some(self.time.saturating_sub(5))
        }
    }

    #[test]
    fn hint_regression_fires_the_watchdog_immediately() {
        let mut c = Coordinator::new(10);
        c.add_engine(Box::new(BrokenPromise { time: 0 }));
        let err = c.run(u64::MAX).unwrap_err();
        let SimError::Watchdog { snapshot } = err else {
            panic!("expected watchdog, got {err:?}");
        };
        assert_eq!(snapshot.stalled_rounds, 0, "caught on the first round");
        assert_eq!(snapshot.engines[0].hint, Some(5));
        assert_eq!(snapshot.engines[0].local_time, 10);
    }

    #[test]
    fn disabled_watchdog_restores_budget_semantics() {
        let mut c = Coordinator::new(10);
        assert!(c.watchdog().is_some(), "watchdog defaults on");
        c.set_watchdog(None);
        c.add_engine(Box::new(StallingWorker {
            time: 0,
            stall_at: 50,
        }));
        assert_eq!(c.run(100_000), Err(SimError::Budget { limit: 100_000 }));
    }

    #[test]
    fn watchdog_stays_silent_on_healthy_mixed_runs() {
        // The default watchdog must be invisible on every healthy run —
        // including engines that finish at staggered times.
        let mut c = Coordinator::new(7);
        c.add_engine(worker("a", 3_000));
        c.add_engine(hinted("b", 40));
        c.add_engine(worker("c", 1));
        let stats = c.run(u64::MAX).unwrap();
        assert!(c.is_done());
        assert_eq!(stats.retries, 0);
    }

    // ---- transient-fault retry ----

    /// An engine whose next `fail_next` `advance_to` calls fail with a
    /// transient hardware fault before it behaves like `Worker`.
    #[derive(Debug)]
    struct FlakyWorker {
        inner: Worker,
        fail_next: u32,
    }

    impl SimEngine for FlakyWorker {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn local_time(&self) -> u64 {
            self.inner.local_time()
        }
        fn advance_to(&mut self, t: u64) -> Result<(), SimError> {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(SimError::Hardware(codesign_rtl::RtlError::BusFault {
                    addr: 0xFA17,
                }));
            }
            self.inner.advance_to(t)
        }
        fn is_done(&self) -> bool {
            self.inner.is_done()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    fn flaky(work: u64, fail_next: u32) -> Box<dyn SimEngine> {
        Box::new(FlakyWorker {
            inner: Worker {
                name: "flaky".to_string(),
                time: 0,
                work,
            },
            fail_next,
        })
    }

    #[test]
    fn retry_absorbs_transient_hardware_faults() {
        let mut c = Coordinator::new(10);
        assert!(c.retry().is_none(), "retry defaults off");
        c.set_retry(Some(RetryPolicy::default()));
        c.add_engine(flaky(30, 2));
        c.add_engine(worker("peer", 60));
        let stats = c.run(u64::MAX).unwrap();
        assert!(c.is_done());
        assert_eq!(stats.retries, 2, "both transient faults absorbed");
    }

    #[test]
    fn retry_exhaustion_propagates_the_fault() {
        let mut c = Coordinator::new(10);
        c.set_retry(Some(RetryPolicy { max_attempts: 3 }));
        c.add_engine(flaky(30, u32::MAX));
        let err = c.run(u64::MAX).unwrap_err();
        assert_eq!(
            err,
            SimError::Hardware(codesign_rtl::RtlError::BusFault { addr: 0xFA17 })
        );
        assert_eq!(c.stats().retries, 4, "3 retries plus the fatal attempt");
    }

    #[test]
    fn without_retry_policy_faults_propagate_immediately() {
        let mut c = Coordinator::new(10);
        c.add_engine(flaky(30, 1));
        let err = c.run(u64::MAX).unwrap_err();
        assert!(matches!(err, SimError::Hardware(_)));
        assert_eq!(c.stats().retries, 0);
    }
}
