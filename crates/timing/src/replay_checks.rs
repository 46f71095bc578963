//! Differential checks of the checked [`replay`] against the standalone
//! passes it replaces: `Schedule::validate`, the strict
//! `TransportSchedule::validate` and `lower`, run one after the other.
//!
//! Compiled schedules and their rounds get one fault injected at a time,
//! one of each class: a wrong source trap, a non-adjacent hop, a hop into
//! a full trap; an unknown, duplicate, premature, non-co-located or
//! missing gate; a bad mapping; a moved, dropped or extra round move; a
//! round that spans a gate; two rounds merged so a segment, an ion or a
//! junction is used twice; and a round that overfills a trap. A single
//! fault is found first by the pass that owns its rule, so the sequential
//! passes' first error is the one the walk must return, variant and step.
//! On fault-free programs the walk's timeline must equal `lower`'s.

use crate::model::TimingModel;
use crate::replay::{replay, ReplayError, Rounds};
use crate::scheduler::lower;
use crate::timeline::Timeline;
use proptest::prelude::*;
use qccd_circuit::generators::random_circuit;
use qccd_circuit::{Circuit, GateId};
use qccd_core::{compile, CompilerConfig, RouterPolicy};
use qccd_machine::{
    InitialMapping, IonId, MachineError, MachineSpec, Operation, Placement, Schedule, ShuttleMove,
    TrapId, TrapTopology, ValidateScheduleError, ZoneLayout,
};
use qccd_route::{TransportError, TransportRound, TransportSchedule};

/// How a case's rounds were packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Packer {
    /// One hop per round (serial router).
    Serial,
    /// Greedy in-order rounds (congestion router).
    Concurrent,
    /// Lookahead rounds that may reorder hops within a run.
    Lookahead,
}

/// The fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fault {
    WrongSource,
    NotAdjacent,
    FullDestination,
    UnknownGate,
    DuplicateGate,
    PrematureGate,
    NotCoLocated,
    MissingGate,
    BadMapping,
    MovedMove,
    DroppedMove,
    ExtraMove,
    SpansGate,
    DoubleUse,
    Overfill,
}

const FAULTS: [Fault; 15] = [
    Fault::WrongSource,
    Fault::NotAdjacent,
    Fault::FullDestination,
    Fault::UnknownGate,
    Fault::DuplicateGate,
    Fault::PrematureGate,
    Fault::NotCoLocated,
    Fault::MissingGate,
    Fault::BadMapping,
    Fault::MovedMove,
    Fault::DroppedMove,
    Fault::ExtraMove,
    Fault::SpansGate,
    Fault::DoubleUse,
    Fault::Overfill,
];

#[derive(Debug, Clone)]
struct Case {
    circuit: Circuit,
    spec: MachineSpec,
    schedule: Schedule,
    transport: TransportSchedule,
}

/// A compiled random circuit on a small, tight machine, so traps fill up
/// and evictions run: linear, ring or grid, single-zone or zoned.
fn compiled(topology: u32, zoned: bool, gates: usize, seed: u64, packer: Packer) -> Option<Case> {
    let topology = match topology {
        0 => TrapTopology::linear(4),
        1 => TrapTopology::ring(4),
        _ => TrapTopology::grid(2, 2),
    };
    let qubits = 10u32;
    let comm = 2u32;
    let capacity = qubits.div_ceil(topology.num_traps()) + comm + 1;
    let mut spec = MachineSpec::new(topology, capacity, comm).ok()?;
    if zoned {
        let layout = ZoneLayout::new(capacity - 3, 1, 2).ok()?;
        spec = spec.with_zone_layout(layout).ok()?;
    }
    let circuit = random_circuit(qubits, gates, seed);
    let config = match packer {
        Packer::Serial => CompilerConfig::optimized(),
        Packer::Concurrent => CompilerConfig::optimized().with_router(RouterPolicy::congestion()),
        Packer::Lookahead => CompilerConfig::optimized()
            .with_router(RouterPolicy::congestion())
            .with_lookahead(true),
    };
    let result = compile(&circuit, &spec, &config).ok()?;
    Some(Case {
        circuit,
        spec,
        schedule: result.schedule,
        transport: result.transport,
    })
}

/// The transport rules a packer's rounds answer to inside `compile`.
fn compile_rules(case: &Case, packer: Packer) -> Rounds<'_> {
    match packer {
        Packer::Lookahead => Rounds::Lowered(&case.transport),
        _ => Rounds::Strict(&case.transport),
    }
}

/// The standalone passes in sequence: the schedule validator, the strict
/// transport validator under strict rules, then `lower`.
fn sequential(
    case: &Case,
    rounds: Rounds<'_>,
    model: &TimingModel,
) -> Result<Timeline, ReplayError> {
    let (transport, strict) = match rounds {
        Rounds::Serial => (None, false),
        Rounds::Strict(t) => (Some(t), true),
        Rounds::Lowered(t) => (Some(t), false),
    };
    case.schedule
        .validate(&case.circuit, &case.spec)
        .map_err(ReplayError::Schedule)?;
    if let (true, Some(t)) = (strict, transport) {
        t.validate(&case.schedule, &case.spec)
            .map_err(ReplayError::Transport)?;
    }
    lower(&case.schedule, transport, &case.circuit, &case.spec, model).map_err(ReplayError::Lower)
}

/// The checked walk, collecting its events into a timeline.
fn walked(case: &Case, rounds: Rounds<'_>, model: &TimingModel) -> Result<Timeline, ReplayError> {
    let dag = case.circuit.dependency_dag();
    let mut timeline = Timeline::for_schedule(&case.schedule);
    let fold = replay(
        &case.schedule,
        rounds,
        &case.circuit,
        &dag,
        &case.spec,
        model,
        &mut |e| timeline.push(e),
    )?;
    Ok(fold.finish(timeline))
}

/// The gate-free runs of `ops` as `(start, end)` op ranges, with the
/// range of rounds covering each (every packer partitions rounds by run).
fn runs(ops: &[Operation], rounds: &[TransportRound]) -> Vec<(usize, usize, usize, usize)> {
    let mut out = Vec::new();
    let mut round = 0usize;
    let mut i = 0usize;
    while i < ops.len() {
        if !ops[i].is_shuttle() {
            i += 1;
            continue;
        }
        let start = i;
        while ops.get(i).is_some_and(Operation::is_shuttle) {
            i += 1;
        }
        let first = round;
        let mut covered = 0usize;
        while covered < i - start && round < rounds.len() {
            covered += rounds[round].moves.len();
            round += 1;
        }
        out.push((start, i, first, round));
    }
    out
}

fn as_move(op: Operation) -> ShuttleMove {
    match op {
        Operation::Shuttle { ion, from, to } => ShuttleMove { ion, from, to },
        Operation::Gate { .. } => unreachable!("a shuttle op"),
    }
}

/// The round member carrying the shuttle op at `k`: ops of a run are
/// matched in order to the first unmatched equal member of its rounds.
fn locate(case: &Case, k: usize) -> (usize, usize) {
    let ops = &case.schedule.operations;
    let rounds = &case.transport.rounds;
    let &(start, _, first, last) = runs(ops, rounds)
        .iter()
        .find(|&&(s, e, ..)| (s..e).contains(&k))
        .expect("k is a shuttle op");
    let mut taken: Vec<(usize, usize)> = Vec::new();
    let mut found = (first, 0);
    for &op in &ops[start..=k] {
        let want = as_move(op);
        found = (first..last)
            .flat_map(|r| (0..rounds[r].moves.len()).map(move |m| (r, m)))
            .find(|&(r, m)| rounds[r].moves[m] == want && !taken.contains(&(r, m)))
            .expect("rounds cover their run");
        taken.push(found);
    }
    found
}

/// The number of rounds that cover the shuttle ops before op `k`, where
/// `k` starts a gate op (rounds end exactly at gates).
fn rounds_before(case: &Case, k: usize) -> usize {
    let shuttles = case.schedule.operations[..k]
        .iter()
        .filter(|op| op.is_shuttle())
        .count();
    let mut covered = 0usize;
    case.transport
        .rounds
        .iter()
        .take_while(|r| {
            let before = covered < shuttles;
            covered += r.moves.len();
            before
        })
        .count()
}

fn nth<T: Copy>(items: &[T], pick: u32) -> Option<T> {
    (!items.is_empty()).then(|| items[pick as usize % items.len()])
}

/// Positions of the shuttle ops and of the gate ops.
fn positions(ops: &[Operation]) -> (Vec<usize>, Vec<usize>) {
    (0..ops.len()).partition(|&i| ops[i].is_shuttle())
}

/// The hops that would enter a full trap from a neighbour, at op `k`
/// before a gate, found by replaying the schedule: `(k, ion, from, to)`.
fn into_full(case: &Case) -> Vec<(usize, IonId, TrapId, TrapId)> {
    let mut placement = Placement::with_mapping(&case.spec, &case.schedule.initial_mapping)
        .expect("compiled mapping fits");
    let topology = case.spec.topology();
    let mut out = Vec::new();
    for (k, op) in case.schedule.operations.iter().enumerate() {
        match *op {
            Operation::Gate { .. } if out.len() < 64 => {
                for (i, &t) in placement.traps().iter().enumerate() {
                    for n in topology.neighbors(t) {
                        if placement.is_full(n) {
                            out.push((k, IonId(i as u32), t, n));
                        }
                    }
                }
            }
            Operation::Gate { .. } => {}
            Operation::Shuttle { ion, to, .. } => {
                placement
                    .shuttle(ion, to)
                    .expect("compiled schedule replays");
            }
        }
    }
    out
}

/// `case` with one fault of class `fault`, or `None` when the case offers
/// no place for it.
fn inject(case: &Case, fault: Fault, pick: u32) -> Option<Case> {
    let mut bad = case.clone();
    let ops = &mut bad.schedule.operations;
    let rounds = &mut bad.transport.rounds;
    let (shuttles, gates) = positions(ops);
    let traps = case.spec.num_traps();
    let topology = case.spec.topology();
    match fault {
        Fault::WrongSource | Fault::NotAdjacent => {
            let k = nth(&shuttles, pick)?;
            let (r, m) = locate(case, k);
            let mut hop = as_move(ops[k]);
            if fault == Fault::WrongSource {
                hop.from = TrapId((hop.from.0 + 1) % traps);
            } else {
                hop.to = topology
                    .traps()
                    .find(|&t| t != hop.from && !topology.are_adjacent(hop.from, t))?;
            }
            ops[k] = Operation::Shuttle {
                ion: hop.ion,
                from: hop.from,
                to: hop.to,
            };
            rounds[r].moves[m] = hop;
        }
        Fault::FullDestination | Fault::Overfill => {
            let (k, ion, from, to) = nth(&into_full(case), pick)?;
            let r = rounds_before(case, k);
            let mut moves = vec![ShuttleMove { ion, from, to }];
            let mut inserted = vec![Operation::Shuttle { ion, from, to }];
            if fault == Fault::Overfill {
                // A second, legal hop rides in the same round, so the
                // round's own check sees the arrival into the full trap.
                let (other, at, next) = (0..case.schedule.initial_mapping.num_ions())
                    .map(IonId)
                    .filter(|&i| i != ion)
                    .find_map(|i| {
                        let mut p =
                            Placement::with_mapping(&case.spec, &case.schedule.initial_mapping)
                                .ok()?;
                        for op in &case.schedule.operations[..k] {
                            if let Operation::Shuttle { ion, to, .. } = *op {
                                p.shuttle(ion, to).ok()?;
                            }
                        }
                        let at = p.trap_of(i);
                        if at == from || at == to {
                            return None;
                        }
                        let next = topology
                            .neighbors(at)
                            .iter()
                            .copied()
                            .find(|&n| n != from && n != to && !p.is_full(n))?;
                        Some((i, at, next))
                    })?;
                moves.insert(
                    0,
                    ShuttleMove {
                        ion: other,
                        from: at,
                        to: next,
                    },
                );
                inserted.insert(
                    0,
                    Operation::Shuttle {
                        ion: other,
                        from: at,
                        to: next,
                    },
                );
            }
            ops.splice(k..k, inserted);
            rounds.insert(r, TransportRound { moves });
        }
        Fault::UnknownGate | Fault::NotCoLocated => {
            let k = nth(&gates, pick)?;
            let Operation::Gate { gate, trap } = ops[k] else {
                unreachable!("a gate op");
            };
            ops[k] = if fault == Fault::UnknownGate {
                Operation::Gate {
                    gate: GateId(case.circuit.len() as u32 + 3),
                    trap,
                }
            } else {
                Operation::Gate {
                    gate,
                    trap: TrapId((trap.0 + 1) % traps),
                }
            };
        }
        Fault::DuplicateGate => {
            let k = nth(&gates, pick)?;
            ops.insert(k + 1, ops[k]);
        }
        Fault::PrematureGate => {
            let dag = case.circuit.dependency_dag();
            let at = |g: GateId| {
                ops.iter()
                    .position(|op| matches!(*op, Operation::Gate { gate, .. } if gate == g))
            };
            let candidates: Vec<(usize, usize)> = gates
                .iter()
                .filter_map(|&k| {
                    let Operation::Gate { gate, .. } = ops[k] else {
                        return None;
                    };
                    let first = dag.predecessors(gate).iter().filter_map(|&p| at(p)).min()?;
                    Some((k, first))
                })
                .collect();
            let (k, j) = nth(&candidates, pick)?;
            let op = ops.remove(k);
            ops.insert(j, op);
        }
        Fault::MissingGate => {
            let k = *gates.last()?;
            ops.remove(k);
        }
        Fault::BadMapping => {
            let n = case.schedule.initial_mapping.num_ions();
            let loose = MachineSpec::new(topology.clone(), n + 1, 1).ok()?;
            bad.schedule.initial_mapping =
                InitialMapping::from_traps(&loose, vec![TrapId(pick % traps); n as usize]).ok()?;
        }
        Fault::MovedMove | Fault::DroppedMove | Fault::ExtraMove => {
            let members: Vec<(usize, usize)> = (0..rounds.len())
                .flat_map(|r| (0..rounds[r].moves.len()).map(move |m| (r, m)))
                .collect();
            let (r, m) = nth(&members, pick)?;
            match fault {
                Fault::MovedMove => {
                    let hop = &mut rounds[r].moves[m];
                    let nbrs = topology.neighbors(hop.from);
                    hop.to = nbrs
                        .iter()
                        .copied()
                        .find(|&t| t != hop.to)
                        .unwrap_or(hop.from);
                }
                Fault::DroppedMove => {
                    rounds[r].moves.remove(m);
                    if rounds[r].moves.is_empty() && pick.is_multiple_of(2) {
                        rounds.remove(r);
                    }
                }
                _ => {
                    let hop = rounds[r].moves[m];
                    rounds[r].moves.insert(m + 1, hop);
                }
            }
        }
        Fault::SpansGate => {
            // Merge the last round of a run with the first of the next.
            let spans: Vec<usize> = runs(ops, rounds).windows(2).map(|w| w[0].3 - 1).collect();
            let r = nth(&spans, pick)?;
            let next = rounds.remove(r + 1);
            rounds[r].moves.extend(next.moves);
        }
        Fault::DoubleUse => {
            // A second hop joins an in-order round right after its moves:
            // over the same segment, out of the same trap, or by the same
            // ion, each legal in op order.
            case.transport.validate(&case.schedule, &case.spec).ok()?;
            // A hop straight back, in a round of its own, restores the
            // placement, so the rest of the program stays legal.
            let (r, k, extra) = double_use(case, pick)?;
            let back = ShuttleMove {
                ion: extra.ion,
                from: extra.to,
                to: extra.from,
            };
            let op = |m: ShuttleMove| Operation::Shuttle {
                ion: m.ion,
                from: m.from,
                to: m.to,
            };
            ops.splice(k..k, [op(extra), op(back)]);
            rounds[r].moves.push(extra);
            rounds.insert(r + 1, TransportRound { moves: vec![back] });
        }
    }
    Some(bad)
}

/// For an in-order transport: a round `r`, the op index `k` just after its
/// moves, and a hop that is legal at `k` in op order but uses the round's
/// first segment, its first source trap, or its first ion a second time.
fn double_use(case: &Case, pick: u32) -> Option<(usize, usize, ShuttleMove)> {
    let ops = &case.schedule.operations;
    let rounds = &case.transport.rounds;
    let topology = case.spec.topology();
    let mut before = Placement::with_mapping(&case.spec, &case.schedule.initial_mapping).ok()?;
    let mut found = Vec::new();
    let mut next_op = 0usize;
    for (r, round) in rounds.iter().enumerate() {
        // The op index just after this round's moves.
        let mut left = round.moves.len();
        while left > 0 {
            left -= usize::from(ops[next_op].is_shuttle());
            next_op += 1;
        }
        let mut after = before.clone();
        for m in &round.moves {
            after.shuttle(m.ion, m.to).ok()?;
        }
        let first = round.moves[0];
        let moved = |ion| round.moves.iter().any(|m| m.ion == ion);
        let stay = (0..before.num_ions())
            .map(IonId)
            .filter(|&i| !moved(i) && before.trap_of(i) == first.from);
        let mut extras: Vec<ShuttleMove> = Vec::new();
        for ion in stay {
            // The same segment, then the same source trap.
            extras.push(ShuttleMove {
                ion,
                from: first.from,
                to: first.to,
            });
            for to in topology.neighbors(first.from) {
                if to != first.to {
                    extras.push(ShuttleMove {
                        ion,
                        from: first.from,
                        to,
                    });
                }
            }
        }
        let at = after.trap_of(first.ion);
        for to in topology.neighbors(at) {
            extras.push(ShuttleMove {
                ion: first.ion,
                from: at,
                to,
            });
        }
        for extra in extras {
            if after.clone().shuttle(extra.ion, extra.to).is_ok() && found.len() < 64 {
                found.push((r, next_op, extra));
            }
        }
        before = after;
    }
    nth(&found, pick)
}

/// Whether some in-order round of `case` overfills a trap when checked
/// against the placement before it. The strict validator itself never
/// names this rule first: a round can only overfill where the serial
/// replay already hit a full trap.
fn round_overfills(case: &Case) -> bool {
    let Ok(mut placement) = Placement::with_mapping(&case.spec, &case.schedule.initial_mapping)
    else {
        return false;
    };
    for round in &case.transport.rounds {
        if let Err(MachineError::RoundOverfill { .. }) = placement.check_round(&round.moves) {
            return true;
        }
        for m in &round.moves {
            if placement.shuttle(m.ion, m.to).is_err() {
                return false;
            }
        }
    }
    false
}

/// A short label for an error, for coverage counts.
fn label(e: &ReplayError) -> String {
    match e {
        ReplayError::Schedule(ValidateScheduleError::IllegalShuttle { source, .. }) => {
            format!("schedule/illegal/{}", machine_label(source))
        }
        ReplayError::Schedule(e) => format!("schedule/{}", variant(&format!("{e:?}"))),
        ReplayError::Transport(TransportError::Machine(m)) => {
            format!("transport/machine/{}", machine_label(m))
        }
        ReplayError::Transport(e) => format!("transport/{}", variant(&format!("{e:?}"))),
        ReplayError::Lower(e) => format!("lower/{}", variant(&format!("{e:?}"))),
    }
}

fn machine_label(e: &MachineError) -> String {
    variant(&format!("{e:?}"))
}

fn variant(debug: &str) -> String {
    debug
        .split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or_default()
        .to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One fault of every class, under the rules `compile` applies to
    /// each packer and under the simulator's lowering rules: the walk
    /// returns the sequential passes' first error, or their timeline.
    #[test]
    fn checked_replay_matches_the_sequential_passes(
        topology in 0u32..3,
        zoned in any::<bool>(),
        gates in 20usize..90,
        seed in any::<u64>(),
        pick in any::<u32>(),
    ) {
        let model = TimingModel::realistic();
        for packer in [Packer::Serial, Packer::Concurrent, Packer::Lookahead] {
            let Some(case) = compiled(topology, zoned, gates, seed, packer) else {
                continue;
            };
            let clean = walked(&case, compile_rules(&case, packer), &model);
            prop_assert_eq!(&clean, &sequential(&case, compile_rules(&case, packer), &model));
            prop_assert!(clean.is_ok());
            for fault in FAULTS {
                let Some(bad) = inject(&case, fault, pick) else {
                    continue;
                };
                for rounds in [
                    Rounds::Strict(&bad.transport),
                    Rounds::Lowered(&bad.transport),
                    Rounds::Serial,
                ] {
                    let want = sequential(&bad, rounds, &model);
                    let got = walked(&bad, rounds, &model);
                    prop_assert_eq!(&got, &want, "{:?} {:?} {:?}", packer, fault, rounds);
                }
            }
        }
    }
}

/// Every fault class is injected and rejected somewhere in the sampled
/// cases, and the rejections cover the rules each class targets.
#[test]
fn sampled_faults_hit_every_class_and_rule() {
    use std::collections::BTreeSet;
    let model = TimingModel::ideal();
    let mut rejected: BTreeSet<Fault> = BTreeSet::new();
    let mut labels: BTreeSet<String> = BTreeSet::new();
    let mut overfills = 0usize;
    for seed in 0..8u64 {
        for topology in 0..3 {
            for packer in [Packer::Serial, Packer::Concurrent, Packer::Lookahead] {
                let Some(case) = compiled(topology, seed % 2 == 1, 70, seed, packer) else {
                    continue;
                };
                for fault in FAULTS {
                    for pick in [seed as u32, 7 + 13 * seed as u32, 4 * seed as u32 + 1] {
                        let Some(bad) = inject(&case, fault, pick) else {
                            continue;
                        };
                        let rules = compile_rules(&bad, packer);
                        if let Err(e) = walked(&bad, rules, &model) {
                            rejected.insert(fault);
                            labels.insert(label(&e));
                        }
                        if fault == Fault::Overfill && packer != Packer::Lookahead {
                            overfills += usize::from(round_overfills(&bad));
                        }
                    }
                }
            }
        }
    }
    let missed: Vec<Fault> = FAULTS
        .into_iter()
        .filter(|f| !rejected.contains(f))
        .collect();
    assert!(missed.is_empty(), "never rejected: {missed:?}");
    assert!(overfills > 0, "no injected round overfills");
    for want in [
        "schedule/WrongSourceTrap",
        "schedule/illegal/NotAdjacent",
        "schedule/illegal/TrapFull",
        "schedule/UnknownGate",
        "schedule/DuplicateGate",
        "schedule/DependencyViolation",
        "schedule/NotCoLocated",
        "schedule/MissingGate",
        "schedule/BadMapping",
        "transport/MoveMismatch",
        "transport/RoundSpansGate",
        "transport/machine/EdgeInUse",
        "transport/machine/JunctionBusy",
        "transport/machine/WrongSourceTrap",
        "lower/TransportMismatch",
    ] {
        assert!(labels.contains(want), "{want} never hit: {labels:?}");
    }
}

/// The one visible change of the fused walk: a schedule that breaks a
/// rule at op k while its rounds already disagree with it at op j < k.
/// The sequential passes reported the schedule error; the walk reports
/// the first violation in operation order, the mismatch.
#[test]
fn first_violation_in_operation_order_wins() {
    use qccd_circuit::{Opcode, Qubit};
    let spec = MachineSpec::linear(3, 4, 1).unwrap();
    let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
    let mut circuit = Circuit::new(6);
    circuit
        .push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1))
        .unwrap();
    let sh = |ion, from, to| Operation::Shuttle {
        ion: IonId(ion),
        from: TrapId(from),
        to: TrapId(to),
    };
    // Op 0 hops ion 2 to T1, op 1 runs gate 0 in T1 where ion 0 is not.
    let schedule = Schedule::new(
        mapping,
        vec![
            sh(2, 0, 1),
            Operation::Gate {
                gate: GateId(0),
                trap: TrapId(1),
            },
        ],
    );
    // The rounds name a different hop for op 0.
    let transport = TransportSchedule {
        rounds: vec![TransportRound {
            moves: vec![ShuttleMove {
                ion: IonId(1),
                from: TrapId(0),
                to: TrapId(1),
            }],
        }],
    };
    let case = Case {
        circuit,
        spec,
        schedule,
        transport,
    };
    let model = TimingModel::ideal();
    let rounds = Rounds::Strict(&case.transport);
    assert_eq!(
        sequential(&case, rounds, &model).unwrap_err(),
        ReplayError::Schedule(ValidateScheduleError::NotCoLocated {
            step: 1,
            gate: GateId(0)
        })
    );
    assert_eq!(
        walked(&case, rounds, &model).unwrap_err(),
        ReplayError::Transport(TransportError::MoveMismatch { op_index: 0 })
    );
}

/// A hop of an ion the mapping does not have, and a gate on such an ion,
/// are the schedule's errors, named alike by the validator and the walk
/// (neither indexes past the placement).
#[test]
fn ions_missing_from_the_mapping_are_errors() {
    use qccd_circuit::{Opcode, Qubit};
    let spec = MachineSpec::linear(2, 4, 1).unwrap();
    let mapping = InitialMapping::round_robin(&spec, 2).unwrap();
    let mut circuit = Circuit::new(4);
    circuit
        .push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3))
        .unwrap();
    let gate = Operation::Gate {
        gate: GateId(0),
        trap: TrapId(0),
    };
    let hop = Operation::Shuttle {
        ion: IonId(3),
        from: TrapId(0),
        to: TrapId(1),
    };
    let model = TimingModel::ideal();
    for (ops, want) in [
        (
            vec![gate],
            ValidateScheduleError::NotCoLocated {
                step: 0,
                gate: GateId(0),
            },
        ),
        (
            vec![hop, gate],
            ValidateScheduleError::IllegalShuttle {
                step: 0,
                source: MachineError::IonOutOfRange {
                    ion: IonId(3),
                    num_ions: 2,
                },
            },
        ),
    ] {
        let schedule = Schedule::new(mapping.clone(), ops);
        let case = Case {
            circuit: circuit.clone(),
            spec: spec.clone(),
            transport: TransportSchedule::pack_serial(&schedule),
            schedule,
        };
        for rounds in [Rounds::Serial, Rounds::Strict(&case.transport)] {
            let want = Err(ReplayError::Schedule(want.clone()));
            assert_eq!(sequential(&case, rounds, &model), want);
            assert_eq!(walked(&case, rounds, &model), want);
        }
    }
}
