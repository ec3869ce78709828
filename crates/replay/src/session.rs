//! Checkpoint/restore of whole co-simulations, and the replay session
//! that turns checkpoints into time travel.
//!
//! A checkpoint blob is `[coordinator bytes][injector bytes]`, each
//! length-prefixed: the coordinator part is the complete dynamic state
//! of every engine (ISS architectural state, bus and device state,
//! message queues, clocks and stats), the optional injector part is the
//! fault injector's substream positions and fault log. Restoring a blob
//! into a structurally identical coordinator resumes the run such that
//! it is *bit-identical* to one that never stopped — the property the
//! crate's proptests pin across all four abstraction-ladder levels.
//!
//! [`ReplaySession`] records checkpoints at a fixed round cadence while
//! stepping a coordinator, and implements reverse execution as
//! nearest-checkpoint restore plus deterministic forward re-execution.

use codesign_fault::SharedInjector;
use codesign_rtl::state::{StateReader, StateWriter};
use codesign_rtl::RtlError;
use codesign_sim::engine::Coordinator;
use codesign_sim::error::SimError;
use codesign_sim::fingerprint::coordinator_fingerprint;

use crate::store::{StateStore, DEFAULT_PAGE_SIZE};

/// Bytes [`snapshot`] reserves up front: a CPU checkpoint (4 KiB of
/// data memory plus registers, bus and devices) fits without regrowing.
const CHECKPOINT_CAPACITY: usize = 8 << 10;

/// Serializes a coordinator (and optionally the run's fault injector)
/// into one checkpoint blob.
#[must_use]
pub fn snapshot(coord: &Coordinator, injector: Option<&SharedInjector>) -> Vec<u8> {
    let mut w = StateWriter::with_capacity(CHECKPOINT_CAPACITY);
    w.nested(|w| coord.save_state(w));
    match injector {
        Some(inj) => {
            w.bool(true);
            w.nested(|w| inj.borrow().save_state(w));
        }
        None => w.bool(false),
    }
    w.into_bytes()
}

/// Restores a checkpoint blob taken by [`snapshot`] into a structurally
/// identical coordinator (same engines, same order, same programs).
///
/// # Errors
///
/// Returns [`SimError::Hardware`] on truncated or shape-mismatched
/// bytes, including an injector section restored into a run whose
/// injector has a different seed.
pub fn restore(
    coord: &mut Coordinator,
    injector: Option<&SharedInjector>,
    blob: &[u8],
) -> Result<(), SimError> {
    let mut r = StateReader::new(blob);
    let coord_bytes = r.bytes()?;
    let mut cr = StateReader::new(coord_bytes);
    coord.restore_state(&mut cr)?;
    cr.finish()?;
    if r.bool()? {
        let inj_bytes = r.bytes()?;
        let Some(inj) = injector else {
            return Err(SimError::Hardware(RtlError::State {
                reason: "checkpoint carries injector state but the run has no injector".into(),
            }));
        };
        let mut ir = StateReader::new(inj_bytes);
        inj.borrow_mut().restore_state(&mut ir)?;
        ir.finish()?;
    }
    r.finish()?;
    Ok(())
}

/// Fails unless every engine of `coord` supports snapshots: the default
/// `save_state` writes nothing, so such an engine could be neither
/// restored nor compared.
///
/// # Errors
///
/// Returns [`SimError::Hardware`] naming the missing support.
pub(crate) fn require_snapshots(coord: &Coordinator) -> Result<(), SimError> {
    if coord.supports_snapshot() {
        Ok(())
    } else {
        Err(SimError::Hardware(RtlError::State {
            reason: "an engine does not support snapshots".into(),
        }))
    }
}

/// A coordinator stepped round by round under checkpoint recording,
/// with reverse execution by restore-and-replay.
#[derive(Debug)]
pub struct ReplaySession {
    coord: Coordinator,
    injector: Option<SharedInjector>,
    store: StateStore,
    cadence: u64,
    step: u64,
    budget: u64,
}

impl ReplaySession {
    /// Wraps a freshly built coordinator (step 0 — not yet run) and
    /// records the step-0 checkpoint. `cadence` is the number of rounds
    /// between checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hardware`] if any engine does not support
    /// snapshots.
    pub fn new(
        coord: Coordinator,
        injector: Option<SharedInjector>,
        cadence: u64,
    ) -> Result<Self, SimError> {
        require_snapshots(&coord)?;
        let mut session = ReplaySession {
            coord,
            injector,
            store: StateStore::new(DEFAULT_PAGE_SIZE),
            cadence: cadence.max(1),
            step: 0,
            budget: u64::MAX,
        };
        session.record();
        Ok(session)
    }

    /// Caps the simulated-time budget passed to each round (defaults to
    /// unlimited; fault scenarios use it to convert spins into
    /// [`SimError::Budget`]).
    pub fn set_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// The wrapped coordinator.
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator {
        &self.coord
    }

    /// Mutable access to the wrapped coordinator (debugger frontends).
    #[must_use]
    pub fn coordinator_mut(&mut self) -> &mut Coordinator {
        &mut self.coord
    }

    /// The checkpoint store.
    #[must_use]
    pub fn store(&self) -> &StateStore {
        &self.store
    }

    /// Rounds executed since the session began.
    #[must_use]
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// The checkpoint cadence in rounds.
    #[must_use]
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Serializes the *current* state (not a stored checkpoint).
    #[must_use]
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        snapshot(&self.coord, self.injector.as_ref())
    }

    /// The shared golden fingerprint of the current state.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        coordinator_fingerprint(&self.coord, self.coord.stats().time)
    }

    fn record(&mut self) {
        let blob = self.snapshot_bytes();
        self.store.insert(self.step, &blob);
    }

    /// Executes one coordination round and records a checkpoint when the
    /// step lands on the cadence. Returns `false` (without stepping) if
    /// the coordination is already done.
    ///
    /// # Errors
    ///
    /// Propagates engine and coordinator errors.
    pub fn step_round(&mut self) -> Result<bool, SimError> {
        if self.coord.is_done() {
            return Ok(false);
        }
        self.coord.run_one_round(self.budget)?;
        self.step += 1;
        if self.step.is_multiple_of(self.cadence) || self.coord.is_done() {
            self.record();
        }
        Ok(true)
    }

    /// Runs to completion (or `max_rounds`), recording checkpoints.
    /// Returns the number of rounds executed by this call.
    ///
    /// # Errors
    ///
    /// Propagates engine and coordinator errors.
    pub fn run_to_end(&mut self, max_rounds: u64) -> Result<u64, SimError> {
        let mut executed = 0;
        while executed < max_rounds && self.step_round()? {
            executed += 1;
        }
        Ok(executed)
    }

    /// Restores the *exact* checkpoint at `step` (no forward replay).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hardware`] if no checkpoint exists at `step`
    /// or the blob fails to restore.
    pub fn restore_checkpoint(&mut self, step: u64) -> Result<(), SimError> {
        let blob = self.store.get(step).ok_or_else(|| {
            SimError::Hardware(RtlError::State {
                reason: format!("no checkpoint at step {step}"),
            })
        })?;
        restore(&mut self.coord, self.injector.as_ref(), &blob)?;
        self.step = step;
        Ok(())
    }

    /// Travels to `step`: restores the nearest checkpoint at or before
    /// it, then deterministically re-executes forward to exactly `step`
    /// rounds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hardware`] if `step` precedes every
    /// checkpoint (cannot happen while step 0 is retained), and
    /// propagates replay errors.
    pub fn restore_to(&mut self, step: u64) -> Result<(), SimError> {
        let anchor = self.store.nearest_at_or_before(step).ok_or_else(|| {
            SimError::Hardware(RtlError::State {
                reason: format!("no checkpoint at or before step {step}"),
            })
        })?;
        self.restore_checkpoint(anchor)?;
        while self.step < step && self.step_round()? {}
        Ok(())
    }

    /// Steps `n` rounds backwards (saturating at step 0) by restoring
    /// the nearest checkpoint and replaying forward.
    ///
    /// # Errors
    ///
    /// As [`ReplaySession::restore_to`].
    pub fn reverse_step(&mut self, n: u64) -> Result<(), SimError> {
        let target = self.step.saturating_sub(n);
        self.restore_to(target)
    }
}
