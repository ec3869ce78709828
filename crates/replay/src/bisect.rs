//! Divergence bisection: find the exact first round a faulty run
//! departs its golden twin, in `O(log C + K)` state comparisons instead
//! of a linear scan.
//!
//! Both runs execute in **lockstep** mode (fixed quantum grid) so round
//! `i` means the same simulated horizon in both; lookahead leaping would
//! let the two runs take differently sized rounds and misalign the
//! indices. Checkpoints are recorded at the session cadence, compared by
//! a digest of their coordinator section during the binary search, and
//! the exact round is then pinned by restoring both runs to the last
//! agreeing checkpoint and replaying round by round. Only the
//! **coordinator** section of each blob is compared — the injector's
//! fault log legitimately differs between a quiet and a faulted run and
//! must not read as state divergence.
//!
//! A run that *errors* (a detected fault, a budget timeout, the
//! watchdog) is treated as ending at that round: its state freezes
//! there, the error is reported in the [`BisectReport`], and — since
//! replaying is deterministic — the error recurs at the same round
//! during refinement.
//!
//! Like `git bisect`, this assumes the divergence is **monotone**: once
//! the states differ they stay different. A purely transient difference
//! (say, a corrupted word pushed into a FIFO that later drains away, the
//! *masked* class of the fault campaign) re-converges and is reported as
//! no divergence; [`linear_first_divergence`] — which compares after
//! every round — is the tool for those.

use codesign_fault::SharedInjector;
use codesign_rtl::state::{fnv1a_bytes, StateWriter};
use codesign_sim::engine::Coordinator;
use codesign_sim::error::SimError;

use crate::session::{coordinator_bytes, ReplaySession, CHECKPOINT_CAPACITY};

/// How a bisection (or linear scan) concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// The first round index after which the two runs' coordinator
    /// states differ (1-based: divergence introduced *during* this
    /// round). `None` when the runs never diverge within the horizon.
    pub first_divergent_round: Option<u64>,
    /// State comparisons the bisection performed (checkpoint digest
    /// probes plus refinement rounds).
    pub probes: u64,
    /// Not measured: `first_divergent_round`, or `rounds` when there is
    /// none — the comparisons a linear scan *would* make if it stopped at
    /// the round this bisection reports. A scan that stops at an earlier
    /// divergence that later heals makes fewer.
    pub linear_probes: u64,
    /// Rounds both runs executed.
    pub rounds: u64,
    /// Checkpoints on the shared bisection grid.
    pub checkpoints: u64,
    /// The golden run's final fingerprint.
    pub golden_fingerprint: String,
    /// The faulty run's final fingerprint.
    pub faulty_fingerprint: String,
    /// The error (if any) that ended the golden run.
    pub golden_error: Option<String>,
    /// The error (if any) that ended the faulty run — a detected fault,
    /// a budget timeout, or the watchdog.
    pub faulty_error: Option<String>,
}

/// One run under bisection: a replay session plus an error latch — an
/// erroring run "ends" at the error round and its first error is kept
/// for the report.
struct Run {
    s: ReplaySession,
    /// Set while the current execution has hit a terminal error;
    /// cleared by restores (deterministic replay re-encounters it).
    dead: bool,
    error: Option<String>,
}

impl Run {
    fn new(
        factory: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
        cadence: u64,
        budget: u64,
    ) -> Result<Run, SimError> {
        let (coord, inj) = factory()?;
        let mut s = ReplaySession::new(coord, inj, cadence)?;
        s.set_budget(budget);
        Ok(Run {
            s,
            dead: false,
            error: None,
        })
    }

    /// Steps one round; an engine/coordinator error ends the run
    /// (`Ok(false)`) instead of propagating.
    fn step(&mut self) -> bool {
        if self.dead {
            return false;
        }
        match self.s.step_round() {
            Ok(advanced) => advanced,
            Err(e) => {
                self.dead = true;
                if self.error.is_none() {
                    self.error = Some(e.to_string());
                }
                false
            }
        }
    }

    fn restore(&mut self, step: u64) -> Result<(), SimError> {
        self.s.restore_checkpoint(step)?;
        self.dead = false;
        Ok(())
    }

    /// The state observable compared between runs: an FNV digest of the
    /// coordinator's state bytes — the coordinator section a snapshot
    /// would hold, without building the rest of the blob.
    fn key(&self) -> u64 {
        let mut w = StateWriter::with_capacity(CHECKPOINT_CAPACITY);
        self.s.coordinator().save_state(&mut w);
        fnv1a_bytes(&w.into_bytes())
    }

    fn checkpoint_key(&self, step: u64) -> Result<Option<u64>, SimError> {
        match self.s.store().get(step) {
            Some(blob) => Ok(Some(fnv1a_bytes(coordinator_bytes(&blob)?))),
            None => Ok(None),
        }
    }
}

/// Bisects the first divergent round between two runs built by the
/// given factories. Each factory must produce a *freshly built*,
/// deterministic run (coordinator plus its optional injector); the two
/// must be structurally identical and use lockstep coordination.
/// `budget` caps simulated time per run (use `u64::MAX` for none) so
/// fault-induced spins end in a budget error instead of running to
/// `max_rounds`.
///
/// # Errors
///
/// Propagates build and checkpoint-restore errors; *run* errors end the
/// affected run and are reported in the [`BisectReport`] instead.
pub fn bisect_divergence(
    golden: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    faulty: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    cadence: u64,
    max_rounds: u64,
    budget: u64,
) -> Result<BisectReport, SimError> {
    let mut g = Run::new(golden, cadence, budget)?;
    let mut f = Run::new(faulty, cadence, budget)?;

    // Phase 1: run both to completion (or error, or the horizon),
    // recording checkpoints. The runs may end after different round
    // counts; the shared grid is the rounds both executed.
    while g.s.current_step() < max_rounds && g.step() {}
    while f.s.current_step() < max_rounds && f.step() {}
    let rounds = g.s.current_step().min(f.s.current_step());
    // Fingerprints are taken at each run's own end state.
    let golden_fingerprint = g.s.fingerprint();
    let faulty_fingerprint = f.s.fingerprint();

    let mut probes = 0u64;

    // Phase 2: binary search the checkpoint grid for the first step
    // whose stored states differ. Steps checkpointed in both runs form
    // the grid; step 0 is always on it.
    let grid: Vec<u64> =
        g.s.store()
            .steps()
            .into_iter()
            .filter(|&s| s <= rounds && f.s.store().contains(s))
            .collect();
    let mut first_bad_idx = None;
    let (mut lo, mut hi) = (0usize, grid.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        let differs = match (g.checkpoint_key(grid[mid])?, f.checkpoint_key(grid[mid])?) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        };
        if differs {
            first_bad_idx = Some(mid);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }

    // Phase 3: replay round by round from the last agreeing checkpoint
    // (or the last grid point, when divergence only shows after it) and
    // compare live state each round.
    let replay_from = match first_bad_idx {
        Some(0) => Some(grid[0]),
        Some(i) => Some(grid[i - 1]),
        // No checkpoint differs: divergence, if any, happened after the
        // last shared checkpoint (e.g. inside the final partial cadence
        // window). Only worth replaying when the end states differ.
        None => {
            probes += 1;
            if g.key() != f.key() || golden_fingerprint != faulty_fingerprint {
                grid.last().copied()
            } else {
                None
            }
        }
    };

    let mut first_divergent_round = None;
    if let Some(anchor) = replay_from {
        g.restore(anchor)?;
        f.restore(anchor)?;
        probes += 1;
        if g.key() != f.key() {
            // The anchor itself differs — only possible when the very
            // first checkpoint (step 0) already diverged.
            first_divergent_round = Some(anchor);
        } else {
            let mut step = anchor;
            while step < max_rounds {
                let ga = g.step();
                let fa = f.step();
                if !ga && !fa {
                    break;
                }
                step += 1;
                probes += 1;
                if g.key() != f.key() {
                    first_divergent_round = Some(step);
                    break;
                }
            }
        }
    }

    let linear_probes = first_divergent_round.unwrap_or(rounds);
    Ok(BisectReport {
        first_divergent_round,
        probes,
        linear_probes,
        rounds,
        checkpoints: grid.len() as u64,
        golden_fingerprint,
        faulty_fingerprint,
        golden_error: g.error,
        faulty_error: f.error,
    })
}

/// The reference oracle: steps both runs together and compares state
/// after every round. `O(rounds)` comparisons; the tests pin
/// [`bisect_divergence`] against this.
///
/// # Errors
///
/// Propagates build errors; run errors end the affected run, as in
/// [`bisect_divergence`].
pub fn linear_first_divergence(
    golden: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    faulty: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    max_rounds: u64,
    budget: u64,
) -> Result<Option<u64>, SimError> {
    let mut g = Run::new(golden, u64::MAX, budget)?;
    let mut f = Run::new(faulty, u64::MAX, budget)?;
    let mut step = 0;
    while step < max_rounds {
        let ga = g.step();
        let fa = f.step();
        if !ga && !fa {
            return Ok(None);
        }
        step += 1;
        if g.key() != f.key() {
            return Ok(Some(step));
        }
    }
    Ok(None)
}
