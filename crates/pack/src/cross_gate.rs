//! Cross-gate round packing: hoisting shuttle hops across non-conflicting
//! gates.
//!
//! The in-run packers (`pack_concurrent`, `pack_lookahead`) never let a
//! round span a gate, so a hop that *follows* a gate can never ride with a
//! round that *precedes* it — even when the hop and the gate touch
//! disjoint traps and the hardware would happily run them together. On
//! gate-dense programs (QAOA's alternating gate/rebalance traffic) that is
//! where almost all of the remaining transport depth lives.
//!
//! This packer rebuilds the round structure globally on the shared
//! [`RoundBackfill`] core (`qccd-route`), instantiated with the rules that
//! make cross-gate hoisting safe. Every hop first-fits into the earliest
//! existing round that can *prove* the hoist legal:
//!
//! * **trap-disjointness** — for every gate between the candidate round
//!   and the hop's original position, neither hop endpoint is the gate's
//!   trap (the core's `note_gate` fences). This simultaneously guarantees
//!   the gate's operands are untouched (an operand ion's hop always
//!   touches the gate trap) and that every gate still runs over an
//!   identical chain length;
//! * **per-ion order** — a hop joins a round strictly after its ion's
//!   previous hop;
//! * **machine round rules** — fresh segment, one split and one merge per
//!   trap per round;
//! * **no-credit capacity** ([`CreditRule::NoCredit`]) — an arrival is
//!   only placed where the destination has room *before* the round, never
//!   relying on a same-round departure. This keeps every round's moves
//!   serially replayable in any order, so the emitted flat schedule stays
//!   valid under the strict serial validator and downstream consumers.
//!
//! The result is a rewritten flat schedule plus strict-validating flat
//! rounds ([`FlatRounds`]) with the same gates in the same traps, the same
//! per-ion hop sequences, and an identical final mapping.

use qccd_machine::{Operation, Schedule, ShuttleMove};
use qccd_route::{BackfillRules, CreditRule, FlatRounds, RoundBackfill};

/// One rebuilt schedule + transport pair from the cross-gate packer.
#[derive(Clone, PartialEq)]
pub(crate) struct CrossGatePacked {
    /// The rewritten flat operation stream (round-ordered hops).
    pub ops: Vec<Operation>,
    /// The matching rounds, strict-validating against `ops`.
    pub rounds: FlatRounds,
    /// Hops that crossed at least one gate on their way into a round.
    pub hoisted_hops: usize,
}

/// Packs `schedule`'s hops into rounds that may precede non-conflicting
/// gates. With `share_only`, a hop joins an existing round only when it
/// shares an endpoint trap with a member move (the pipeline/corridor case
/// where merging genuinely shortens the critical path); without it, any
/// compatible round within the window accepts.
///
/// `window` bounds how far back (in rounds) the first-fit scan looks,
/// keeping the packer linear in schedule length and its backfill state at
/// O(window × traps) rows.
pub(crate) fn pack_cross_gate(
    schedule: &Schedule,
    cap: u32,
    num_traps: usize,
    window: usize,
    share_only: bool,
) -> CrossGatePacked {
    let _phase = qccd_obs::span("backfill");
    let mut occ0 = vec![0u32; num_traps];
    for t in schedule.initial_mapping.as_slice() {
        occ0[t.index()] += 1;
    }

    let mut bf = RoundBackfill::new(
        num_traps,
        cap,
        occ0,
        BackfillRules {
            credit: CreditRule::NoCredit,
            share_only,
            window,
        },
    );
    // How many gates precede each round's creation point.
    let mut gates_before: Vec<usize> = Vec::new();
    let mut gates = 0usize;
    let mut hoisted_hops = 0usize;

    for op in &schedule.operations {
        match *op {
            Operation::Gate { trap, .. } => {
                gates += 1;
                bf.note_gate(trap);
            }
            Operation::Shuttle { ion, from, to } => {
                let placement = bf.place(ShuttleMove { ion, from, to });
                if placement.opened {
                    gates_before.push(gates);
                }
                if placement.hoisted {
                    hoisted_hops += 1;
                }
            }
        }
    }

    // Emit: gates in place, each round's moves contiguously at its
    // creation point. Under the no-credit rule any within-round order
    // replays serially, so insertion order is kept (it matches the strict
    // transport validator's in-order expectation by construction).
    let rounds = bf.into_flat();
    let mut ops = Vec::with_capacity(schedule.operations.len());
    let mut gate_ops = schedule
        .operations
        .iter()
        .filter(|op| matches!(op, Operation::Gate { .. }));
    let mut emitted = 0usize;
    for (moves, &before) in rounds.iter().zip(&gates_before) {
        ops.extend(gate_ops.by_ref().take(before - emitted));
        emitted = before;
        ops.extend(moves.iter().map(|m| Operation::Shuttle {
            ion: m.ion,
            from: m.from,
            to: m.to,
        }));
    }
    ops.extend(gate_ops);
    CrossGatePacked {
        ops,
        rounds,
        hoisted_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::GateId;
    use qccd_machine::{InitialMapping, IonId, MachineSpec, TrapId};

    fn sh(ion: u32, from: u32, to: u32) -> Operation {
        Operation::Shuttle {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    fn gate(g: u32, trap: u32) -> Operation {
        Operation::Gate {
            gate: GateId(g),
            trap: TrapId(trap),
        }
    }

    /// L4, capacity 4/comm 1, ions 0-2 in T0, 3-5 in T1, 6-8 in T2.
    fn fixture() -> (MachineSpec, InitialMapping) {
        let spec = MachineSpec::linear(4, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 9).unwrap();
        (spec, mapping)
    }

    fn pack(schedule: &Schedule, spec: &MachineSpec, share_only: bool) -> CrossGatePacked {
        pack_cross_gate(
            schedule,
            spec.total_capacity(),
            spec.num_traps() as usize,
            96,
            share_only,
        )
    }

    #[test]
    fn hop_rides_across_a_trap_disjoint_gate() {
        // Gate in T3 separates two corridor hops T0→T1, T1→T2; both are
        // trap-disjoint from the gate, so they pipeline into one round.
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), gate(0, 3), sh(5, 1, 2)]);
        let packed = pack(&schedule, &spec, false);
        assert_eq!(packed.rounds.depth(), 1, "one merged round");
        assert_eq!(packed.hoisted_hops, 1);
        packed
            .rounds
            .into_schedule()
            .validate(
                &Schedule::new(schedule.initial_mapping.clone(), packed.ops.clone()),
                &spec,
            )
            .unwrap();
    }

    #[test]
    fn hop_touching_the_gate_trap_never_crosses() {
        // The second hop arrives in the gate's trap: it must stay behind
        // the gate (the gate's chain length depends on it).
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), gate(0, 2), sh(5, 1, 2)]);
        let packed = pack(&schedule, &spec, false);
        assert_eq!(packed.rounds.depth(), 2);
        assert_eq!(packed.hoisted_hops, 0);
        // Flat order keeps the hop after the gate.
        let gate_pos = packed
            .ops
            .iter()
            .position(|o| matches!(o, Operation::Gate { .. }))
            .unwrap();
        assert_eq!(gate_pos, 1);
    }

    #[test]
    fn per_ion_order_is_preserved_across_gates() {
        // Same ion hops twice around a disjoint gate: the hops must stay
        // in distinct ordered rounds.
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), gate(0, 3), sh(2, 1, 2)]);
        let packed = pack(&schedule, &spec, false);
        assert_eq!(packed.rounds.depth(), 2);
        let rounds: Vec<&[ShuttleMove]> = packed.rounds.iter().collect();
        let (first, second) = (&rounds[0][0], &rounds[1][0]);
        assert_eq!((first.from, first.to), (TrapId(0), TrapId(1)));
        assert_eq!((second.from, second.to), (TrapId(1), TrapId(2)));
    }

    #[test]
    fn share_only_skips_disjoint_merges() {
        // Two fully disjoint hops around a gate in T3... T0→T1 and T2→T3
        // shares T3 with the gate; use a 5-trap machine instead.
        let spec = MachineSpec::linear(5, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 12).unwrap();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), gate(0, 4), sh(8, 2, 3)]);
        let share = pack(&schedule, &spec, true);
        assert_eq!(
            share.rounds.depth(),
            2,
            "disjoint hops stay in their own rounds under share-only"
        );
        let any = pack(&schedule, &spec, false);
        assert_eq!(any.rounds.depth(), 1, "first-fit merges them");
    }

    #[test]
    fn no_credit_rule_blocks_arrivals_into_full_traps() {
        // T1 full (comm 0 lets traps start full): ion 1 leaves T1 and ion 0
        // enters it. The greedy in-run packers would pipeline both into one
        // round via the departure credit; the cross-gate packer's no-credit
        // rule keeps them sequential so the flat emission stays serially
        // valid in any order.
        let spec = MachineSpec::linear(3, 2, 0).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(2)])
                .unwrap();
        let schedule = Schedule::new(mapping, vec![sh(1, 1, 2), sh(0, 0, 1)]);
        let packed = pack(&schedule, &spec, false);
        assert_eq!(packed.rounds.depth(), 2);
        packed
            .rounds
            .into_schedule()
            .validate(
                &Schedule::new(schedule.initial_mapping.clone(), packed.ops.clone()),
                &spec,
            )
            .unwrap();
    }
}
