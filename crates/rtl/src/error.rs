//! Error types for netlist construction and simulation.

use std::error::Error;
use std::fmt;

/// Errors produced while building or simulating hardware models.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RtlError {
    /// A gate or flip-flop references a net that does not exist.
    UnknownNet {
        /// The out-of-range net index.
        index: usize,
    },
    /// A gate was declared with the wrong number of inputs for its kind.
    GateArity {
        /// Gate kind name.
        kind: &'static str,
        /// Inputs required.
        expected: usize,
        /// Inputs supplied.
        actual: usize,
    },
    /// Two drivers contend for the same net.
    MultipleDrivers {
        /// The doubly-driven net index.
        net: usize,
    },
    /// Combinational logic failed to settle (a zero-delay loop).
    Oscillation {
        /// Simulation time at which the oscillation was detected.
        time: u64,
    },
    /// An FSMD referenced a state, register, or port out of range.
    FsmdBounds {
        /// What was out of range (`"state"`, `"register"`, ...).
        what: &'static str,
        /// The out-of-range index.
        index: usize,
    },
    /// An FSMD ran longer than the supplied cycle budget without
    /// asserting `done`.
    FsmdTimeout {
        /// Cycles executed before giving up.
        cycles: u64,
    },
    /// A bus access hit an address no slave claims.
    BusFault {
        /// The unclaimed address.
        addr: u32,
    },
    /// A device could not be mapped on the bus: its address range
    /// overlaps an existing mapping or wraps the 32-bit address space.
    MapOverlap {
        /// Name of the device being mapped.
        device: String,
        /// Requested base address.
        base: u32,
        /// Requested range size in bytes.
        size: u32,
        /// What the range collided with.
        conflict: String,
    },
    /// The FPGA fabric cannot satisfy a request (out of LUTs, unknown
    /// bitstream, region busy).
    Fpga {
        /// Human-readable reason.
        reason: String,
    },
    /// A netlist that must settle within one clock period cannot: it
    /// holds a flip-flop or a combinational loop, or a gate path at
    /// least one period long.
    SettleBound {
        /// What breaks the bound.
        reason: String,
    },
    /// A serialized state blob could not be decoded (truncated bytes,
    /// a version/shape mismatch, or a checkpoint restored into a
    /// structurally different model).
    State {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::UnknownNet { index } => write!(f, "reference to unknown net {index}"),
            RtlError::GateArity {
                kind,
                expected,
                actual,
            } => write!(f, "{kind} gate takes {expected} inputs, got {actual}"),
            RtlError::MultipleDrivers { net } => write!(f, "net {net} has multiple drivers"),
            RtlError::Oscillation { time } => {
                write!(f, "combinational logic oscillates at time {time}")
            }
            RtlError::FsmdBounds { what, index } => {
                write!(f, "fsmd {what} index {index} out of range")
            }
            RtlError::FsmdTimeout { cycles } => {
                write!(f, "fsmd did not assert done within {cycles} cycles")
            }
            RtlError::BusFault { addr } => write!(f, "bus fault at address {addr:#010x}"),
            RtlError::MapOverlap {
                device,
                base,
                size,
                conflict,
            } => write!(
                f,
                "cannot map {device} at [{base:#010x}, {:#010x}): {conflict}",
                u64::from(*base) + u64::from(*size)
            ),
            RtlError::Fpga { reason } => write!(f, "fpga: {reason}"),
            RtlError::SettleBound { reason } => {
                write!(f, "netlist cannot settle within one clock period: {reason}")
            }
            RtlError::State { reason } => write!(f, "state: {reason}"),
        }
    }
}

impl Error for RtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            RtlError::BusFault { addr: 0x10 }.to_string(),
            "bus fault at address 0x00000010"
        );
        assert_eq!(
            RtlError::Oscillation { time: 7 }.to_string(),
            "combinational logic oscillates at time 7"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtlError>();
    }
}
