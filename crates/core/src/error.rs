//! Compiler error type.

use qccd_machine::{IonId, MachineError, TrapId, ValidateScheduleError};
use qccd_route::TransportError;
use qccd_timing::{LowerError, ReplayError};
use std::error::Error;
use std::fmt;

/// Errors raised by [`compile`](crate::compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The circuit has more qubits than the machine can initially host.
    CircuitTooLarge {
        /// Qubits in the circuit.
        qubits: u32,
        /// Initial hosting capacity (`traps × (total − comm)`).
        capacity: u32,
    },
    /// A machine-level operation failed (invalid spec, etc.).
    Machine(MachineError),
    /// Re-balancing could not free space anywhere: every candidate
    /// destination was full or unreachable within the recursion budget.
    /// With a sane communication capacity (≥ 1 free slot per trap on
    /// average) this indicates an over-subscribed machine.
    ShuttleDeadlock {
        /// The trap that could not be freed.
        trap: TrapId,
    },
    /// No shuttle path connects an ion's trap to its destination — the
    /// topology is disconnected.
    Unreachable {
        /// The ion being routed.
        ion: IonId,
        /// Where the move started.
        from: TrapId,
        /// The unreachable destination.
        to: TrapId,
    },
    /// Routing an ion to its destination exhausted the planner's hop
    /// budget (the routed path length plus re-route slack; see
    /// `qccd_route::route_budget`): every re-plan kept hitting full
    /// traps. Replaces the old silent `4 × traps + 8` cap.
    RouteExhausted {
        /// The ion being routed.
        ion: IonId,
        /// Where the move started.
        from: TrapId,
        /// The unreached destination.
        to: TrapId,
        /// The exhausted hop budget.
        budget: u32,
    },
    /// The produced schedule failed replay validation — an internal
    /// compiler bug, reported rather than silently returned.
    InternalValidation(ValidateScheduleError),
    /// The round-packed transport schedule failed replay validation — an
    /// internal compiler bug, reported rather than silently returned.
    InternalTransport(TransportError),
    /// Lowering the compiled schedule onto the device clock failed — an
    /// internal compiler bug (or an invalid configured timing model),
    /// reported rather than silently returned.
    InternalTimeline(LowerError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::CircuitTooLarge { qubits, capacity } => write!(
                f,
                "circuit with {qubits} qubits exceeds machine initial capacity of {capacity} ions"
            ),
            CompileError::Machine(e) => write!(f, "machine error: {e}"),
            CompileError::ShuttleDeadlock { trap } => {
                write!(
                    f,
                    "re-balancing deadlock: no destination can relieve trap {trap}"
                )
            }
            CompileError::Unreachable { ion, from, to } => write!(
                f,
                "no shuttle path connects {from} to {to} for {ion}: the topology is disconnected"
            ),
            CompileError::RouteExhausted {
                ion,
                from,
                to,
                budget,
            } => write!(
                f,
                "routing {ion} from {from} to {to} exhausted its hop budget of {budget}"
            ),
            CompileError::InternalValidation(e) => {
                write!(
                    f,
                    "internal error: compiled schedule failed validation: {e}"
                )
            }
            CompileError::InternalTransport(e) => {
                write!(
                    f,
                    "internal error: transport schedule failed validation: {e}"
                )
            }
            CompileError::InternalTimeline(e) => {
                write!(f, "internal error: timeline lowering failed: {e}")
            }
        }
    }
}

impl From<ReplayError> for CompileError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::Schedule(e) => CompileError::InternalValidation(e),
            ReplayError::Transport(e) => CompileError::InternalTransport(e),
            ReplayError::Lower(e) => CompileError::InternalTimeline(e),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Machine(e) => Some(e),
            CompileError::InternalValidation(e) => Some(e),
            CompileError::InternalTransport(e) => Some(e),
            CompileError::InternalTimeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for CompileError {
    fn from(e: MachineError) -> Self {
        CompileError::Machine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = CompileError::CircuitTooLarge {
            qubits: 100,
            capacity: 90,
        };
        assert!(e.to_string().contains("100 qubits"));
        let e = CompileError::ShuttleDeadlock { trap: TrapId(4) };
        assert!(e.to_string().contains("T4"));
    }

    #[test]
    fn machine_error_converts_and_chains() {
        let e: CompileError = MachineError::NoTraps.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn route_exhausted_names_the_move() {
        let e = CompileError::RouteExhausted {
            ion: IonId(3),
            from: TrapId(0),
            to: TrapId(5),
            budget: 21,
        };
        let text = e.to_string();
        assert!(text.contains("ion3"));
        assert!(text.contains("T5"));
        assert!(text.contains("21"));
    }
}
