//! Compiled schedules and their replay validator.

use crate::error::MachineError;
use crate::ids::IonId;
use crate::mapping::InitialMapping;
use crate::ops::Operation;
use crate::placement::Placement;
use crate::spec::MachineSpec;
use qccd_circuit::{Circuit, GateId};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A compiled program: the initial ion placement plus the ordered operation
/// stream (gates pinned to traps, interleaved with shuttle hops).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    /// Where each ion starts.
    pub initial_mapping: InitialMapping,
    /// The operation stream in execution order.
    pub operations: Vec<Operation>,
}

/// Aggregate counts over a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScheduleStats {
    /// Total shuttle hops (the paper's "number of shuttles").
    pub shuttles: usize,
    /// Total gate executions.
    pub gates: usize,
}

impl Schedule {
    /// Creates a schedule from parts.
    pub fn new(initial_mapping: InitialMapping, operations: Vec<Operation>) -> Self {
        Schedule {
            initial_mapping,
            operations,
        }
    }

    /// Counts shuttles and gates.
    pub fn stats(&self) -> ScheduleStats {
        let shuttles = self.operations.iter().filter(|o| o.is_shuttle()).count();
        ScheduleStats {
            shuttles,
            gates: self.operations.len() - shuttles,
        }
    }

    /// Number of shuttle hops — the metric of Table II.
    pub fn shuttle_count(&self) -> usize {
        self.stats().shuttles
    }

    /// Renders the schedule as a human-readable program listing: the
    /// initial placement header followed by one operation per line.
    pub fn to_text(&self, circuit: &Circuit) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.operations.len() * 32);
        let _ = writeln!(
            out,
            "# initial mapping ({} ions)",
            self.initial_mapping.num_ions()
        );
        for (i, t) in self.initial_mapping.as_slice().iter().enumerate() {
            let _ = writeln!(out, "#   ion{i} @ {t}");
        }
        for op in &self.operations {
            match *op {
                Operation::Gate { gate, trap } => {
                    let _ = writeln!(out, "{} @ {trap}", circuit.gate(gate));
                }
                Operation::Shuttle { ion, from, to } => {
                    let _ = writeln!(out, "SHUTTLE {ion}: {from} -> {to};");
                }
            }
        }
        out
    }

    /// Replays the schedule against `circuit` on `spec` (on a chain-free
    /// [`Placement`]), verifying every compiled-program invariant:
    ///
    /// 1. every shuttle hop is legal (the ion is in the stated source trap,
    ///    adjacent traps, destination not full);
    /// 2. at every gate execution all operand ions are co-located in the
    ///    stated trap (an operand with no ion counts as elsewhere);
    /// 3. every circuit gate executes exactly once;
    /// 4. execution order respects the gate-dependency DAG.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`ValidateScheduleError`].
    pub fn validate(
        &self,
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Result<(), ValidateScheduleError> {
        let mut placement = Placement::with_mapping(spec, &self.initial_mapping)
            .map_err(ValidateScheduleError::BadMapping)?;
        let dag = circuit.dependency_dag();
        let mut ready = dag.ready_set();
        let mut executed = vec![false; circuit.len()];

        for (step, op) in self.operations.iter().enumerate() {
            match *op {
                Operation::Shuttle { ion, from, to } => {
                    if placement
                        .traps()
                        .get(ion.index())
                        .is_some_and(|&t| t != from)
                    {
                        return Err(ValidateScheduleError::WrongSourceTrap { step, ion });
                    }
                    placement
                        .shuttle(ion, to)
                        .map_err(|source| ValidateScheduleError::IllegalShuttle { step, source })?;
                }
                Operation::Gate { gate, trap } => {
                    if gate.index() >= circuit.len() {
                        return Err(ValidateScheduleError::UnknownGate { step, gate });
                    }
                    if executed[gate.index()] {
                        return Err(ValidateScheduleError::DuplicateGate { step, gate });
                    }
                    if !ready.is_ready(gate) {
                        return Err(ValidateScheduleError::DependencyViolation { step, gate });
                    }
                    let g = circuit.gate(gate);
                    for q in g.qubits.iter() {
                        if placement.traps().get(q.index()) != Some(&trap) {
                            return Err(ValidateScheduleError::NotCoLocated { step, gate });
                        }
                    }
                    executed[gate.index()] = true;
                    ready.mark_done(&dag, gate);
                }
            }
        }

        if let Some(missing) = executed.iter().position(|&e| !e) {
            return Err(ValidateScheduleError::MissingGate {
                gate: GateId(missing as u32),
            });
        }
        Ok(())
    }
}

/// A violated schedule invariant, reported by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateScheduleError {
    /// The initial mapping does not fit the machine spec.
    BadMapping(MachineError),
    /// A shuttle op claims the ion is in a trap it is not in.
    WrongSourceTrap {
        /// Operation index in the schedule.
        step: usize,
        /// The ion in question.
        ion: IonId,
    },
    /// A shuttle hop violated adjacency or capacity.
    IllegalShuttle {
        /// Operation index in the schedule.
        step: usize,
        /// The machine-level rejection.
        source: MachineError,
    },
    /// Gate id outside the circuit.
    UnknownGate {
        /// Operation index in the schedule.
        step: usize,
        /// The unknown gate.
        gate: GateId,
    },
    /// A gate executed twice.
    DuplicateGate {
        /// Operation index in the schedule.
        step: usize,
        /// The repeated gate.
        gate: GateId,
    },
    /// A gate executed before one of its DAG predecessors.
    DependencyViolation {
        /// Operation index in the schedule.
        step: usize,
        /// The premature gate.
        gate: GateId,
    },
    /// A gate executed while its operand ions were in different traps.
    NotCoLocated {
        /// Operation index in the schedule.
        step: usize,
        /// The gate in question.
        gate: GateId,
    },
    /// A circuit gate never executed.
    MissingGate {
        /// The unexecuted gate.
        gate: GateId,
    },
}

impl fmt::Display for ValidateScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateScheduleError::BadMapping(e) => write!(f, "invalid initial mapping: {e}"),
            ValidateScheduleError::WrongSourceTrap { step, ion } => {
                write!(f, "step {step}: shuttle source trap does not hold {ion}")
            }
            ValidateScheduleError::IllegalShuttle { step, source } => {
                write!(f, "step {step}: illegal shuttle: {source}")
            }
            ValidateScheduleError::UnknownGate { step, gate } => {
                write!(f, "step {step}: gate {gate} not in circuit")
            }
            ValidateScheduleError::DuplicateGate { step, gate } => {
                write!(f, "step {step}: gate {gate} executed twice")
            }
            ValidateScheduleError::DependencyViolation { step, gate } => {
                write!(
                    f,
                    "step {step}: gate {gate} executed before its dependencies"
                )
            }
            ValidateScheduleError::NotCoLocated { step, gate } => {
                write!(f, "step {step}: operands of gate {gate} are not co-located")
            }
            ValidateScheduleError::MissingGate { gate } => {
                write!(f, "gate {gate} never executed")
            }
        }
    }
}

impl Error for ValidateScheduleError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ValidateScheduleError::BadMapping(e)
            | ValidateScheduleError::IllegalShuttle { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TrapId;
    use qccd_circuit::{Opcode, Qubit};

    fn two_trap_setup() -> (Circuit, MachineSpec, InitialMapping) {
        // Fig. 2a program on the Fig. 1 machine.
        let mut c = Circuit::new(6);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
        (c, spec, mapping)
    }

    #[test]
    fn valid_schedule_passes() {
        let (c, spec, mapping) = two_trap_setup();
        let ops = vec![
            Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            },
            // Gate 1 needs ions 2 (T0) and 3 (T1): shuttle ion 2 over.
            Operation::Shuttle {
                ion: IonId(2),
                from: TrapId(0),
                to: TrapId(1),
            },
            Operation::Gate {
                gate: GateId(1),
                trap: TrapId(1),
            },
        ];
        let s = Schedule::new(mapping, ops);
        s.validate(&c, &spec).unwrap();
        assert_eq!(s.shuttle_count(), 1);
        assert_eq!(s.stats().gates, 2);
    }

    #[test]
    fn to_text_lists_every_operation() {
        let (c, spec, mapping) = two_trap_setup();
        let ops = vec![
            Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            },
            Operation::Shuttle {
                ion: IonId(2),
                from: TrapId(0),
                to: TrapId(1),
            },
            Operation::Gate {
                gate: GateId(1),
                trap: TrapId(1),
            },
        ];
        let s = Schedule::new(mapping, ops);
        s.validate(&c, &spec).unwrap();
        let text = s.to_text(&c);
        assert!(text.contains("MS q[0], q[1]; @ T0"));
        assert!(text.contains("SHUTTLE ion2: T0 -> T1;"));
        assert!(text.contains("MS q[2], q[3]; @ T1"));
        assert!(text.contains("ion5 @ T1"));
    }

    #[test]
    fn detects_not_co_located() {
        let (c, spec, mapping) = two_trap_setup();
        let ops = vec![
            Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            },
            Operation::Gate {
                gate: GateId(1),
                trap: TrapId(0),
            }, // ion 3 is in T1
        ];
        let err = Schedule::new(mapping, ops).validate(&c, &spec).unwrap_err();
        assert_eq!(
            err,
            ValidateScheduleError::NotCoLocated {
                step: 1,
                gate: GateId(1)
            }
        );
    }

    #[test]
    fn detects_missing_gate() {
        let (c, spec, mapping) = two_trap_setup();
        let ops = vec![Operation::Gate {
            gate: GateId(0),
            trap: TrapId(0),
        }];
        let err = Schedule::new(mapping, ops).validate(&c, &spec).unwrap_err();
        assert_eq!(err, ValidateScheduleError::MissingGate { gate: GateId(1) });
    }

    #[test]
    fn detects_duplicate_gate() {
        let (c, spec, mapping) = two_trap_setup();
        let g0 = Operation::Gate {
            gate: GateId(0),
            trap: TrapId(0),
        };
        let err = Schedule::new(mapping, vec![g0, g0])
            .validate(&c, &spec)
            .unwrap_err();
        assert_eq!(
            err,
            ValidateScheduleError::DuplicateGate {
                step: 1,
                gate: GateId(0)
            }
        );
    }

    #[test]
    fn detects_dependency_violation() {
        let mut c = Circuit::new(2);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        let spec = MachineSpec::linear(1, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 2).unwrap();
        let ops = vec![
            Operation::Gate {
                gate: GateId(1),
                trap: TrapId(0),
            },
            Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            },
        ];
        let err = Schedule::new(mapping, ops).validate(&c, &spec).unwrap_err();
        assert_eq!(
            err,
            ValidateScheduleError::DependencyViolation {
                step: 0,
                gate: GateId(1)
            }
        );
    }

    #[test]
    fn detects_wrong_source_trap() {
        let (c, spec, mapping) = two_trap_setup();
        let ops = vec![Operation::Shuttle {
            ion: IonId(2),
            from: TrapId(1), // actually in T0
            to: TrapId(0),
        }];
        let err = Schedule::new(mapping, ops).validate(&c, &spec).unwrap_err();
        assert_eq!(
            err,
            ValidateScheduleError::WrongSourceTrap {
                step: 0,
                ion: IonId(2)
            }
        );
    }

    #[test]
    fn detects_illegal_shuttle_into_full_trap() {
        let (c, spec, mapping) = two_trap_setup();
        let ops = vec![
            Operation::Shuttle {
                ion: IonId(2),
                from: TrapId(0),
                to: TrapId(1),
            },
            // T1 now holds 4 ions (full): this hop must fail.
            Operation::Shuttle {
                ion: IonId(1),
                from: TrapId(0),
                to: TrapId(1),
            },
        ];
        let err = Schedule::new(mapping, ops).validate(&c, &spec).unwrap_err();
        assert!(matches!(
            err,
            ValidateScheduleError::IllegalShuttle { step: 1, .. }
        ));
        assert!(err.source().is_some());
    }
}
