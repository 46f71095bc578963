//! Simulator error type.

use qccd_machine::ValidateScheduleError;
use qccd_timing::LowerError;
use std::error::Error;
use std::fmt;

/// Errors raised by [`simulate`](crate::simulate).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The schedule failed replay validation against the circuit/machine.
    InvalidSchedule(ValidateScheduleError),
    /// The simulation parameters (or the timing model) contain negative or
    /// non-finite values.
    InvalidParams,
    /// The transport rounds handed to
    /// [`simulate_timed`](crate::simulate_timed) do not match the
    /// schedule's shuttle operations.
    TransportMismatch {
        /// Index of the first schedule operation the rounds disagree with.
        op_index: usize,
    },
    /// Lowering the schedule onto the device clock failed for a reason
    /// other than a transport mismatch (e.g. an illegal hand-built round).
    Timing(LowerError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSchedule(e) => write!(f, "schedule is not executable: {e}"),
            SimError::InvalidParams => {
                write!(f, "simulation parameters must be finite and non-negative")
            }
            SimError::TransportMismatch { op_index } => write!(
                f,
                "transport rounds disagree with the schedule at operation {op_index}"
            ),
            SimError::Timing(e) => write!(f, "timeline lowering failed: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidSchedule(e) => Some(e),
            SimError::Timing(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::GateId;

    #[test]
    fn display_and_source() {
        let e = SimError::InvalidSchedule(ValidateScheduleError::MissingGate { gate: GateId(3) });
        assert!(e.to_string().contains("g3"));
        assert!(e.source().is_some());
        assert!(SimError::InvalidParams.source().is_none());
    }
}
