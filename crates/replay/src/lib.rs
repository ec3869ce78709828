//! # codesign-replay
//!
//! Time-travel debugging for the mixed HW/SW co-simulation stack
//! (Adams & Thomas, DAC 1996): the paper's co-simulation environment
//! answers "what does the system do?"; this crate answers "*when* did
//! it start doing the wrong thing?".
//!
//! * [`store`] — the versioned state store: page-based,
//!   content-deduplicated checkpoints indexed by coordination step.
//! * [`session`] — checkpoint/restore of a whole
//!   [`Coordinator`](codesign_sim::engine::Coordinator) (ISS
//!   architectural state, RTL bus/FIFO/peripheral state, message-engine
//!   queues, clocks and stats, plus the fault injector's RNG
//!   substreams), and [`session::ReplaySession`]: record at a cadence,
//!   restore to any step, reverse-step by deterministic re-execution. A
//!   restored run is bit-identical to an uninterrupted one.
//! * [`gdb`] — a GDB Remote Serial Protocol server over the CR32 ISS
//!   with breakpoints, bus-address watchpoints, and
//!   `ReverseStep`/`ReverseContinue`, usable mid-co-simulation.
//! * [`bisect`] — divergence search: step a faulty run and its golden
//!   twin together, compare their serialized states byte for byte
//!   after every round, and report the exact first round they differ
//!   and whether the runs end alike again (a healed divergence).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bisect;
pub mod gdb;
pub mod session;
pub mod store;

pub use bisect::{bisect_divergence, linear_first_divergence, BisectReport};
pub use gdb::{serve, DebugSession, StopReason};
pub use session::{restore, snapshot, ReplaySession};
pub use store::{StateStore, StoreStats};
