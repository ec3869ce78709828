//! # codesign-serve
//!
//! Co-simulation as a service: the transport- and policy-hardened core
//! of the `codesign serve` job server.
//!
//! Adams & Thomas frame co-design as an iterative loop — partition,
//! co-simulate, evaluate, repeat — and in practice that loop is run by
//! *teams* against shared compute: many tenants submitting partition,
//! exploration, co-simulation, fault-campaign, and conformance jobs
//! against one warm evaluation cache. This crate provides the serving
//! substrate those workloads need to share a process safely:
//!
//! * a **line-oriented JSON protocol** ([`protocol`]) where malformed
//!   input becomes a typed, machine-readable error reply — never a
//!   panic, never a dropped connection;
//! * a **bounded three-class priority queue** ([`queue`]) whose
//!   admission bound is the backpressure signal: overload sheds
//!   explicitly with `overloaded` replies, never silently;
//! * **seeded, bounded retry backoff** ([`retry`]) for failures the
//!   fault taxonomy classifies as transient — deterministic schedules,
//!   replayable chaos campaigns;
//! * a **panic-isolated worker pool** ([`server`]) with per-job
//!   queue-wait deadlines, graceful drain (in-flight jobs finish,
//!   queued jobs are flushed with `draining` replies, every accepted
//!   job gets exactly one terminal reply), and honest counters;
//! * **stdin and TCP transports** ([`net`]) sharing one dispatch path.
//!
//! The crate is deliberately generic over a [`server::JobRunner`]: the
//! concrete job registry (which knows how to run a co-simulation and
//! render it byte-identically to the CLI) lives in the `codesign` core
//! crate, which depends on this one — not the other way around.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod net;
pub mod protocol;
pub mod queue;
pub mod retry;
pub mod server;

pub use net::{serve_lines, serve_tcp};
pub use protocol::{parse_request, Priority, Request, RequestError};
pub use queue::BoundedQueue;
pub use retry::{backoff_delay, backoff_schedule, job_key, RetryConfig};
pub use server::{
    Handle, JobError, JobRunner, RunOutcome, Server, ServerConfig, StatsSnapshot, SubmitOutcome,
};
