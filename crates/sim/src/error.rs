//! Error types for co-simulation.

use std::error::Error;
use std::fmt;

use codesign_ir::IrError;
use codesign_isa::IsaError;
use codesign_rtl::RtlError;

/// One engine's state inside a [`WatchdogSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Engine name.
    pub name: String,
    /// The engine's local clock when the watchdog fired.
    pub local_time: u64,
    /// The engine's [`next_event_hint`](crate::engine::SimEngine::next_event_hint).
    pub hint: Option<u64>,
    /// Whether the engine had finished.
    pub done: bool,
    /// Engine-specific diagnostics (e.g. blocked message processes).
    pub detail: String,
}

/// Diagnostics captured when the coordinator's no-progress watchdog
/// fires: enough to see *which* engine wedged and *why* — local times,
/// hints, and per-engine detail — without attaching a debugger to a
/// simulation that would otherwise loop forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogSnapshot {
    /// Global time when the watchdog fired.
    pub time: u64,
    /// Consecutive rounds in which the minimum unfinished local time
    /// failed to advance (0 when a hint regression fired instead).
    pub stalled_rounds: u64,
    /// The synchronization round after which the minimum unfinished
    /// local time last advanced — the last round with visible progress.
    /// 0 when no round ever made progress.
    pub last_progress_round: u64,
    /// Every registered engine's state.
    pub engines: Vec<EngineSnapshot>,
}

impl WatchdogSnapshot {
    /// Names of the engines that still had work when the watchdog fired
    /// — the suspects.
    #[must_use]
    pub fn stuck(&self) -> Vec<&str> {
        self.engines
            .iter()
            .filter(|e| !e.done)
            .map(|e| e.name.as_str())
            .collect()
    }

    /// Names of the engines actually *holding the run back*: the
    /// unfinished engines pinned at the minimum unfinished local time.
    /// An engine that kept advancing until a peer wedged is a suspect
    /// ([`stuck`](Self::stuck)) but not a culprit; this is the list a
    /// server (or `codesign faults`) should blame in its report.
    #[must_use]
    pub fn culprits(&self) -> Vec<&str> {
        let min_time = self
            .engines
            .iter()
            .filter(|e| !e.done)
            .map(|e| e.local_time)
            .min();
        match min_time {
            Some(t) => self
                .engines
                .iter()
                .filter(|e| !e.done && e.local_time == t)
                .map(|e| e.name.as_str())
                .collect(),
            None => Vec::new(),
        }
    }
}

/// Errors produced by the co-simulation engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The process network deadlocked: blocked processes with no runnable
    /// work left.
    Deadlock {
        /// Simulation time at which the deadlock was detected.
        time: u64,
        /// Names of the blocked processes.
        blocked: Vec<String>,
    },
    /// The simulation exceeded its cycle budget.
    Budget {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// A placement references an unknown process or resource.
    BadPlacement {
        /// Human-readable reason.
        reason: String,
    },
    /// An error from the software side (instruction-set simulator).
    Software(IsaError),
    /// An error from the hardware side (RTL simulator).
    Hardware(RtlError),
    /// A system specification failed validation before any level ran.
    Spec(IrError),
    /// The coordinator's no-progress watchdog fired: no unfinished engine
    /// advanced its clock for too many consecutive rounds, or an engine's
    /// lookahead hint regressed behind its own clock.
    Watchdog {
        /// Per-engine diagnostics at the moment the watchdog fired.
        snapshot: WatchdogSnapshot,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { time, blocked } => {
                write!(
                    f,
                    "deadlock at cycle {time}: blocked {}",
                    blocked.join(", ")
                )
            }
            SimError::Budget { limit } => write!(f, "cycle budget {limit} exhausted"),
            SimError::BadPlacement { reason } => write!(f, "bad placement: {reason}"),
            SimError::Software(e) => write!(f, "software: {e}"),
            SimError::Hardware(e) => write!(f, "hardware: {e}"),
            SimError::Spec(e) => write!(f, "{e}"),
            SimError::Watchdog { snapshot } => {
                write!(
                    f,
                    "watchdog: no progress at cycle {} after {} stalled rounds \
                     (last progress in round {}); stalled engine(s): {};",
                    snapshot.time,
                    snapshot.stalled_rounds,
                    snapshot.last_progress_round,
                    {
                        let culprits = snapshot.culprits();
                        if culprits.is_empty() {
                            "none".to_string()
                        } else {
                            culprits.join(", ")
                        }
                    }
                )?;
                for e in &snapshot.engines {
                    write!(
                        f,
                        " {}@{} (hint {}, {}{})",
                        e.name,
                        e.local_time,
                        e.hint.map_or_else(|| "none".to_string(), |h| h.to_string()),
                        if e.done { "done" } else { "running" },
                        if e.detail.is_empty() {
                            String::new()
                        } else {
                            format!(", {}", e.detail)
                        },
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Software(e) => Some(e),
            SimError::Hardware(e) => Some(e),
            SimError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<IsaError> for SimError {
    fn from(e: IsaError) -> Self {
        SimError::Software(e)
    }
}

#[doc(hidden)]
impl From<RtlError> for SimError {
    fn from(e: RtlError) -> Self {
        SimError::Hardware(e)
    }
}

impl From<IrError> for SimError {
    fn from(e: IrError) -> Self {
        SimError::Spec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_domain() {
        let e = SimError::from(RtlError::BusFault { addr: 1 });
        assert!(e.to_string().starts_with("hardware:"));
        let e = SimError::from(IsaError::Timeout { cycles: 9 });
        assert!(e.to_string().starts_with("software:"));
    }
}
