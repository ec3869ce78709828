//! Divergence search: the exact first round a faulty run departs its
//! golden twin, and whether the two end alike again.
//!
//! Both runs execute in **lockstep** mode (fixed quantum grid) so round
//! `i` means the same simulated horizon in both; lookahead leaping would
//! let the two runs take differently sized rounds and misalign the
//! indices. The twins step together, and after every round each
//! serializes its coordinator state into a buffer it reuses; the first
//! round whose bytes differ is the answer. Both then run to their ends
//! without comparing, and [`BisectReport::healed`] says whether a
//! divergence left the end fingerprints equal — a corrupted word that
//! drained out of a FIFO, say. Only the **coordinator** state is
//! compared: the injector's fault log legitimately differs between a
//! quiet and a faulted run and must not read as state divergence.
//!
//! There is no checkpoint grid to search. A binary search over
//! checkpoints assumes that states which differ stay different, so it
//! misses a divergence that heals between two grid points, and the
//! grid is not cheaper: recording it cost more than the per-round
//! compares that replace it.
//!
//! A run that *errors* (a detected fault, a budget timeout, the
//! watchdog) is treated as ending at that round: its state freezes
//! there and the error is reported in the [`BisectReport`].

use codesign_fault::SharedInjector;
use codesign_rtl::state::{fnv1a_bytes, StateWriter};
use codesign_sim::engine::Coordinator;
use codesign_sim::error::SimError;
use codesign_sim::fingerprint::coordinator_fingerprint;

use crate::session::require_snapshots;

/// How a divergence search concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BisectReport {
    /// The first round index after which the two runs' coordinator
    /// states differ (1-based: divergence introduced *during* this
    /// round). `None` when the runs never diverge within the horizon.
    pub first_divergent_round: Option<u64>,
    /// State comparisons made: one per round up to the first divergence,
    /// or every round when there is none.
    pub probes: u64,
    /// The comparisons [`linear_first_divergence`] makes on the same
    /// pair; equal to `probes`, since the search compares every round
    /// the linear scan does.
    pub linear_probes: u64,
    /// Rounds both runs executed.
    pub rounds: u64,
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

impl BisectReport {
    /// Whether the runs diverged yet ended with equal fingerprints.
    #[must_use]
    pub fn healed(&self) -> bool {
        self.first_divergent_round.is_some() && self.golden_fingerprint == self.faulty_fingerprint
    }
}

/// One run of a pair: its coordinator, stepped a round at a time, with
/// an error latch — an erroring run "ends" at the error round and its
/// error is kept for the report.
struct Twin {
    coord: Coordinator,
    budget: u64,
    /// Rounds executed without error.
    rounds: u64,
    error: Option<String>,
    /// The coordinator state, serialized after the latest compared round.
    state: StateWriter,
}

impl Twin {
    fn new(
        factory: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
        budget: u64,
    ) -> Result<Twin, SimError> {
        // The engines hold their own handles on the injector.
        let (coord, _) = factory()?;
        // An engine without snapshot support serializes nothing, which
        // would make every comparison vacuously equal.
        require_snapshots(&coord)?;
        Ok(Twin {
            coord,
            budget,
            rounds: 0,
            error: None,
            state: StateWriter::new(),
        })
    }

    /// Steps one round; `false` once the run has finished or errored.
    fn step(&mut self) -> bool {
        if self.error.is_some() || self.coord.is_done() {
            return false;
        }
        match self.coord.run_one_round(self.budget) {
            Ok(()) => {
                self.rounds += 1;
                true
            }
            Err(e) => {
                self.error = Some(e.to_string());
                false
            }
        }
    }

    /// The coordinator state, serialized into the reused buffer.
    fn state(&mut self) -> &[u8] {
        self.state.clear();
        self.coord.save_state(&mut self.state);
        self.state.as_bytes()
    }

    /// The oracle's observable: an FNV digest of the coordinator state,
    /// serialized into a writer of its own.
    fn digest(&self) -> u64 {
        let mut w = StateWriter::new();
        self.coord.save_state(&mut w);
        fnv1a_bytes(w.as_bytes())
    }

    fn fingerprint(&self) -> String {
        coordinator_fingerprint(&self.coord, self.coord.stats().time)
    }
}

/// Steps both twins together, comparing them with `differ` after every
/// round in which either advanced, for at most `max_rounds` rounds.
/// Returns the first round they differ, if any, and the comparisons
/// made.
fn first_difference(
    g: &mut Twin,
    f: &mut Twin,
    max_rounds: u64,
    mut differ: impl FnMut(&mut Twin, &mut Twin) -> bool,
) -> (Option<u64>, u64) {
    let mut round = 0;
    while round < max_rounds {
        // `|`, not `||`: both twins step every round.
        if !(g.step() | f.step()) {
            break;
        }
        round += 1;
        if differ(g, f) {
            return (Some(round), round);
        }
    }
    (None, round)
}

/// Finds the first round the runs built by the two factories diverge,
/// and whether they end alike again. Each factory must produce a
/// *freshly built*, deterministic run (coordinator plus its optional
/// injector); the two must be structurally identical and use lockstep
/// coordination. The third argument, once a checkpoint cadence, is
/// unused: the search compares every round. `budget` caps simulated
/// time per run (use `u64::MAX` for none) so fault-induced spins end in
/// a budget error instead of running to `max_rounds`.
///
/// # Errors
///
/// Propagates build errors, and returns [`SimError::Hardware`] if an
/// engine of either run does not support snapshots; *run* errors end the
/// affected run and are reported in the [`BisectReport`] instead.
pub fn bisect_divergence(
    golden: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    faulty: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    _cadence: u64,
    max_rounds: u64,
    budget: u64,
) -> Result<BisectReport, SimError> {
    let mut g = Twin::new(golden, budget)?;
    let mut f = Twin::new(faulty, budget)?;
    let (first_divergent_round, probes) =
        first_difference(&mut g, &mut f, max_rounds, |g, f| g.state() != f.state());
    while g.rounds < max_rounds && g.step() {}
    while f.rounds < max_rounds && f.step() {}
    Ok(BisectReport {
        first_divergent_round,
        probes,
        linear_probes: probes,
        rounds: g.rounds.min(f.rounds),
        golden_fingerprint: g.fingerprint(),
        faulty_fingerprint: f.fingerprint(),
        golden_error: g.error,
        faulty_error: f.error,
    })
}

/// The reference oracle: steps both runs together and compares FNV
/// digests of their states after every round; the tests pin
/// [`bisect_divergence`] against this.
///
/// # Errors
///
/// As [`bisect_divergence`]; run errors end the affected run.
pub fn linear_first_divergence(
    golden: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    faulty: impl Fn() -> Result<(Coordinator, Option<SharedInjector>), SimError>,
    max_rounds: u64,
    budget: u64,
) -> Result<Option<u64>, SimError> {
    let mut g = Twin::new(golden, budget)?;
    let mut f = Twin::new(faulty, budget)?;
    Ok(first_difference(&mut g, &mut f, max_rounds, |g, f| g.digest() != f.digest()).0)
}
