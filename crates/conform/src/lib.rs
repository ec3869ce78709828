//! # codesign-conform
//!
//! Differential conformance across the abstraction ladder of Adams &
//! Thomas, DAC 1996 (Figure 3) — a bug-finding machine for the rest of
//! the workspace.
//!
//! The paper's central claim is that the four interface-abstraction
//! levels (pin, register, driver call, OS message) trade simulation
//! speed for timing accuracy *while agreeing on what the system does*.
//! This crate makes that claim falsifiable at scale:
//!
//! * [`runner`] — realizes one generated
//!   [`SystemSpec`](codesign_ir::workload::sysgen::SystemSpec) at all
//!   four levels through `codesign_sim::ladder`'s realization, which
//!   extracts the architected observables (payload bytes per channel,
//!   interrupt counts, final architectural state, channel completion
//!   order) plus each level's simulated cycles;
//! * [`observables`] — the observable definitions, the per-level modeled
//!   cycle-error bounds, and the check that turns a four-level run into
//!   a (hopefully empty) list of [`observables::Divergence`]s;
//! * [`lockstep`] — an ISS-vs-pin-accurate-ISS lockstep checker that
//!   compares full architectural state after every retired instruction,
//!   validated by a deliberate-fault self-test that fails loudly when
//!   checking is disabled;
//! * [`shrink`] — binary-search shrinking of a failing generator
//!   configuration down to a minimal reproduction;
//! * [`sweep`] — the deterministic, parallel N-system campaign behind
//!   `codesign conform` and `bench-conform`; its report is byte-identical
//!   at any thread count.
//!
//! Every divergence this harness has surfaced so far became a fix plus a
//! frozen-seed regression test in the owning crate (see the repository
//! README's conformance section for the ledger).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lockstep;
pub mod observables;
pub mod runner;
pub mod shrink;
pub mod sweep;

use std::error::Error;
use std::fmt;

use codesign_ir::IrError;
use codesign_isa::IsaError;
use codesign_rtl::RtlError;
use codesign_sim::SimError;

/// Errors produced by the conformance harness.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConformError {
    /// Generator / specification error.
    Ir(IrError),
    /// Instruction-set-simulator error while realizing a level.
    Isa(IsaError),
    /// Bus / device error while realizing a level.
    Rtl(RtlError),
    /// Co-simulation error while realizing a level.
    Sim(SimError),
    /// The lockstep checker's deliberate-fault self-test did not detect
    /// the injected fault — the check is disabled or broken, so every
    /// "agreed" verdict it produced is meaningless.
    SelfTest {
        /// What the self-test observed.
        detail: String,
    },
    /// A harness configuration the sweep cannot honor.
    Config {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ConformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformError::Ir(e) => write!(f, "generator: {e}"),
            ConformError::Isa(e) => write!(f, "iss: {e}"),
            ConformError::Rtl(e) => write!(f, "rtl: {e}"),
            ConformError::Sim(e) => write!(f, "sim: {e}"),
            ConformError::SelfTest { detail } => {
                write!(f, "lockstep self-test FAILED: {detail}")
            }
            ConformError::Config { reason } => write!(f, "config: {reason}"),
        }
    }
}

impl Error for ConformError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConformError::Ir(e) => Some(e),
            ConformError::Isa(e) => Some(e),
            ConformError::Rtl(e) => Some(e),
            ConformError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<IrError> for ConformError {
    fn from(e: IrError) -> Self {
        ConformError::Ir(e)
    }
}

#[doc(hidden)]
impl From<IsaError> for ConformError {
    fn from(e: IsaError) -> Self {
        ConformError::Isa(e)
    }
}

#[doc(hidden)]
impl From<RtlError> for ConformError {
    fn from(e: RtlError) -> Self {
        ConformError::Rtl(e)
    }
}

#[doc(hidden)]
impl From<SimError> for ConformError {
    fn from(e: SimError) -> Self {
        ConformError::Sim(e)
    }
}
