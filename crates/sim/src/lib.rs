//! # codesign-sim
//!
//! Hardware/software co-simulation for the mixed HW/SW co-design
//! framework (Adams & Thomas, DAC 1996, Section 3.1).
//!
//! The paper's Figure 3 stacks the abstractions at which HW/SW
//! interaction can be modeled, and observes the central trade-off: pin
//! -level simulation "is most accurate for evaluating performance, but is
//! computationally expensive", while OS-level `send`/`receive`/`wait`
//! modeling "is very efficient computationally, but may not be useful for
//! evaluating performance". This crate makes that ladder executable:
//!
//! * [`engine`] — the co-simulation kernel: a [`engine::SimEngine`] trait
//!   for heterogeneous simulators and a conservative, quantum-based
//!   [`engine::Coordinator`] that keeps their local clocks within a
//!   bounded skew (the structure of Becker et al.'s environment \[4\]).
//! * [`adapters`] — the real simulators under that coordinator: the
//!   CR32 instruction-set simulator and synthesized FSMDs as engines.
//! * [`message`] — the top of the ladder: rendezvous simulation of
//!   `codesign-ir` process networks with `send`/`receive`/`wait`
//!   semantics (after Coumeri & Thomas \[3\]), including placement-aware
//!   execution where processes mapped to the same software resource
//!   contend for it — the evaluation engine for multi-threaded
//!   co-processor partitions (Section 4.5.1).
//! * [`pinproto`] — the bottom of the ladder: each bus transaction is
//!   expanded into a req/ack pin handshake driven through the
//!   event-driven gate simulator of `codesign-rtl`, with device wait
//!   states visible only at this level.
//! * [`ladder`] — one realization per level for any generated
//!   `SystemSpec` (bus, ISS run, driver model, message-level run), and
//!   the E3 experiment as a one-FIFO spec, reporting simulated cycles,
//!   kernel events, and wall-clock time per level.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapters;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod ladder;
pub mod message;
pub mod pinproto;

pub use error::SimError;

/// The tracing layer the engines report to (`set_tracer`), re-exported
/// so dependents can name its types and share its JSON codec without a
/// manifest entry of their own.
pub use codesign_trace as trace;
