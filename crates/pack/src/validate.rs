//! The pack validator: full replay equivalence between the original and
//! the packed program.

use crate::PackError;
use qccd_circuit::Circuit;
use qccd_machine::{IonId, MachineSpec, Operation, Placement, Schedule};

/// Proves `packed` is an equivalent rewrite of `original`:
///
/// 1. **Executability** — `packed` passes the strict schedule validator
///    against `circuit` on `spec`: every shuttle hop is serially legal,
///    every gate executes exactly once in dependency order with its
///    operands co-located in the stated trap (gate *operand availability*).
/// 2. **Gate sequence** — `packed` runs the same gates in the same order
///    in the same traps as `original` (packing moves transport, never
///    computation).
/// 3. **Final mapping** — replaying both programs leaves every ion in the
///    same trap.
///
/// Transport-round legality is validated separately against the packed
/// schedule by the round validators in `qccd-route`.
///
/// # Errors
///
/// The first violated property, as a [`PackError`].
pub fn validate_equivalent(
    original: &Schedule,
    packed: &Schedule,
    circuit: &Circuit,
    spec: &MachineSpec,
) -> Result<(), PackError> {
    packed
        .validate(circuit, spec)
        .map_err(|e| PackError::InvalidPacked(e.to_string()))?;

    let gates_of = |s: &Schedule| -> Vec<Operation> {
        s.operations
            .iter()
            .filter(|op| matches!(op, Operation::Gate { .. }))
            .copied()
            .collect()
    };
    let (a, b) = (gates_of(original), gates_of(packed));
    if a != b {
        let index = a
            .iter()
            .zip(&b)
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        return Err(PackError::GateSequenceDiverged { index });
    }

    let replay = |s: &Schedule| -> Result<Placement, PackError> {
        let mut state = Placement::with_mapping(spec, &s.initial_mapping)
            .map_err(|e| PackError::InvalidPacked(e.to_string()))?;
        for op in &s.operations {
            if let Operation::Shuttle { ion, to, .. } = *op {
                state
                    .shuttle(ion, to)
                    .map_err(|e| PackError::InvalidPacked(e.to_string()))?;
            }
        }
        Ok(state)
    };
    let (sa, sb) = (replay(original)?, replay(packed)?);
    for ion in 0..sa.num_ions() {
        let ion = IonId(ion);
        if sa.trap_of(ion) != sb.trap_of(ion) {
            return Err(PackError::FinalMappingDiverged { ion });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{GateId, Opcode, Qubit};
    use qccd_machine::{InitialMapping, TrapId};

    fn fixture() -> (Circuit, MachineSpec, Schedule) {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(1)])
                .unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![
                Operation::Shuttle {
                    ion: IonId(1),
                    from: TrapId(1),
                    to: TrapId(0),
                },
                Operation::Gate {
                    gate: GateId(0),
                    trap: TrapId(0),
                },
            ],
        );
        (c, spec, schedule)
    }

    #[test]
    fn identical_schedules_are_equivalent() {
        let (c, spec, s) = fixture();
        validate_equivalent(&s, &s.clone(), &c, &spec).unwrap();
    }

    #[test]
    fn diverging_final_mapping_is_rejected() {
        let (c, spec, s) = fixture();
        let mut other = s.clone();
        other.operations.push(Operation::Shuttle {
            ion: IonId(2),
            from: TrapId(1),
            to: TrapId(0),
        });
        assert!(matches!(
            validate_equivalent(&s, &other, &c, &spec),
            Err(PackError::FinalMappingDiverged { ion: IonId(2) })
        ));
    }

    #[test]
    fn reordered_gates_are_rejected() {
        let (c, spec, s) = fixture();
        // Executable alternative that runs the gate in the *other* trap:
        // ion 0 travels to T1 instead of ion 1 to T0. Same gate id, valid
        // placement — but not the same program, and the gate-sequence
        // check fires before the final-mapping comparison.
        let other = Schedule::new(
            s.initial_mapping.clone(),
            vec![
                Operation::Shuttle {
                    ion: IonId(0),
                    from: TrapId(0),
                    to: TrapId(1),
                },
                Operation::Gate {
                    gate: GateId(0),
                    trap: TrapId(1),
                },
            ],
        );
        assert!(matches!(
            validate_equivalent(&s, &other, &c, &spec),
            Err(PackError::GateSequenceDiverged { index: 0 })
        ));
    }
}
