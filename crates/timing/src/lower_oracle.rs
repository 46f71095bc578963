//! The pre-streaming `lower`, kept as the differential oracle of the
//! streamed fold: one `Vec` of moves and one of involved traps per round,
//! events collected into a vector as they are built. The streamed
//! [`lower`] must reproduce its events, round slices, times and counters
//! bit for bit, and its errors exactly.

use crate::model::TimingModel;
use crate::scheduler::{lower, LowerError};
use crate::timeline::{EventRef, TimedMove, Timeline};
use proptest::prelude::*;
use qccd_circuit::generators::random_circuit;
use qccd_circuit::{Circuit, GateId, GateQubits};
use qccd_core::{compile, CompilerConfig, RouterPolicy};
use qccd_machine::{
    IonId, MachineError, MachineSpec, MachineState, Operation, Schedule, ShuttleMove, TrapId,
    TrapTopology, ZoneLayout,
};
use qccd_route::{TransportRound, TransportSchedule};

/// One event with its round members owned.
#[derive(Debug, Clone, PartialEq)]
enum OracleEvent {
    Gate {
        gate: GateId,
        trap: TrapId,
        chain_len: u32,
        start_us: f64,
        end_us: f64,
    },
    TransportRound {
        moves: Vec<TimedMove>,
        involved: Vec<TrapId>,
        start_us: f64,
        end_us: f64,
    },
    ZoneMove {
        ion: IonId,
        trap: TrapId,
        start_us: f64,
        end_us: f64,
    },
}

/// The oracle's result: events plus the fold's makespan and counters.
#[derive(Debug)]
struct OracleTimeline {
    events: Vec<OracleEvent>,
    makespan_us: f64,
    gates: usize,
    shuttles: usize,
    shuttle_depth: usize,
    zone_moves: usize,
    junction_crossings: usize,
}

/// The pre-streaming `lower`: `LowerState::new` + `advance` + `finish`,
/// with every per-round buffer allocated afresh.
fn oracle_lower(
    schedule: &Schedule,
    transport: Option<&TransportSchedule>,
    circuit: &Circuit,
    spec: &MachineSpec,
    model: &TimingModel,
) -> Result<OracleTimeline, LowerError> {
    type Move = (IonId, TrapId, TrapId);
    if !model.is_valid() {
        return Err(LowerError::InvalidModel);
    }
    let mut state =
        MachineState::with_mapping(spec, &schedule.initial_mapping).map_err(LowerError::Machine)?;
    let mut clock = vec![0.0f64; spec.num_traps() as usize];
    let mut avail = vec![0.0f64; state.num_ions() as usize];
    let (mut gates, mut shuttles, mut shuttle_depth) = (0usize, 0usize, 0usize);
    let (mut zone_moves, mut junction_crossings) = (0usize, 0usize);
    let mut events = Vec::with_capacity(schedule.operations.len());
    let ops = &schedule.operations;
    let transport = transport.map(|t| t.rounds.as_slice());
    let topology = spec.topology();
    let mut round_idx = 0usize;
    let mut i = 0usize;
    while i < ops.len() {
        match ops[i] {
            Operation::Gate { gate, trap } => {
                let g = circuit.gate(gate);
                let t = trap.index();
                if !spec.zone_layout().is_single() {
                    loop {
                        let mut promoted = false;
                        for q in g.qubits.iter() {
                            let ion = IonId::from(q);
                            if state.promote_to_gate_zone(ion) {
                                let start = clock[t].max(avail[ion.index()]);
                                let end = start + model.zone_move_us();
                                clock[t] = end;
                                avail[ion.index()] = end;
                                zone_moves += 1;
                                events.push(OracleEvent::ZoneMove {
                                    ion,
                                    trap,
                                    start_us: start,
                                    end_us: end,
                                });
                                promoted = true;
                            }
                        }
                        if !promoted {
                            break;
                        }
                    }
                }
                let chain_len = state.occupancy(trap);
                let tau = match g.qubits {
                    GateQubits::One(_) => model.one_qubit_gate_us(),
                    GateQubits::Two(_, _) => model.two_qubit_gate_us(chain_len),
                };
                let start = g
                    .qubits
                    .iter()
                    .map(|q| avail[q.index()])
                    .fold(clock[t], f64::max);
                let end = start + tau;
                clock[t] = end;
                for q in g.qubits.iter() {
                    avail[q.index()] = end;
                }
                gates += 1;
                events.push(OracleEvent::Gate {
                    gate,
                    trap,
                    chain_len,
                    start_us: start,
                    end_us: end,
                });
                i += 1;
            }
            Operation::Shuttle { .. } => {
                let run_start = i;
                let mut run: Vec<Option<Move>> = Vec::new();
                while let Some(&Operation::Shuttle { ion, from, to }) = ops.get(i) {
                    run.push(Some((ion, from, to)));
                    i += 1;
                }
                let mut live = 0usize;
                let mut consumed = 0usize;
                while consumed < run.len() {
                    let mut members: Vec<Move> = Vec::new();
                    match transport {
                        None => members.push(run[consumed].take().expect("in order")),
                        Some(rounds) => {
                            let mismatch = LowerError::TransportMismatch {
                                op_index: run_start + consumed,
                            };
                            let round = rounds.get(round_idx).ok_or_else(|| mismatch.clone())?;
                            if round.moves.is_empty() {
                                return Err(mismatch);
                            }
                            round_idx += 1;
                            for m in &round.moves {
                                let want = (m.ion, m.from, m.to);
                                let slot = run[live..]
                                    .iter_mut()
                                    .find(|slot| **slot == Some(want))
                                    .ok_or_else(|| mismatch.clone())?;
                                *slot = None;
                                members.push(want);
                                while run.get(live) == Some(&None) {
                                    live += 1;
                                }
                            }
                        }
                    }
                    let mut timed: Vec<TimedMove> = Vec::with_capacity(members.len());
                    let mut pending = members.clone();
                    while !pending.is_empty() {
                        let mut progressed = false;
                        let mut still = Vec::new();
                        for &(ion, from, to) in &pending {
                            let src_occupancy = state.occupancy(from);
                            match state.shuttle(ion, to) {
                                Ok(()) => {
                                    let junctions =
                                        TimingModel::junctions_crossed(topology, from, to);
                                    junction_crossings += junctions as usize;
                                    timed.push(TimedMove {
                                        ion,
                                        from,
                                        to,
                                        src_occupancy,
                                        junctions,
                                    });
                                    progressed = true;
                                }
                                Err(MachineError::TrapFull { .. }) => still.push((ion, from, to)),
                                Err(e) => return Err(LowerError::Machine(e)),
                            }
                        }
                        if !progressed {
                            return Err(LowerError::StalledRound {
                                round: shuttle_depth,
                            });
                        }
                        pending = still;
                    }
                    let mut involved: Vec<TrapId> = Vec::with_capacity(2 * members.len());
                    for &(_, from, to) in &members {
                        for t in [from, to] {
                            if !involved.contains(&t) {
                                involved.push(t);
                            }
                        }
                    }
                    let tau = timed
                        .iter()
                        .map(|m| model.hop_us(m.junctions))
                        .fold(0.0f64, f64::max);
                    let start = members
                        .iter()
                        .map(|&(ion, _, _)| avail[ion.index()])
                        .chain(involved.iter().map(|t| clock[t.index()]))
                        .fold(0.0f64, f64::max);
                    let end = start + tau;
                    for &(ion, _, _) in &members {
                        avail[ion.index()] = end;
                    }
                    for t in &involved {
                        clock[t.index()] = end;
                    }
                    shuttles += members.len();
                    shuttle_depth += 1;
                    consumed += members.len();
                    events.push(OracleEvent::TransportRound {
                        moves: timed,
                        involved,
                        start_us: start,
                        end_us: end,
                    });
                }
            }
        }
    }
    if let Some(rounds) = transport {
        if round_idx != rounds.len() {
            return Err(LowerError::TransportMismatch {
                op_index: ops.len(),
            });
        }
    }
    Ok(OracleTimeline {
        events,
        makespan_us: clock.iter().copied().fold(0.0f64, f64::max),
        gates,
        shuttles,
        shuttle_depth,
        zone_moves,
        junction_crossings,
    })
}

/// Asserts the streamed timeline equals the oracle's bit for bit: every
/// event's kind, fields and start/end bits, every round's member and
/// involved slices, the makespan and every counter.
fn assert_same(got: &Timeline, want: &OracleTimeline) -> Result<(), String> {
    prop_assert_eq!(got.events.len(), want.events.len());
    for (k, (g, w)) in got.iter().zip(&want.events).enumerate() {
        let same = match (g, w) {
            (
                EventRef::Gate {
                    gate,
                    trap,
                    chain_len,
                    start_us,
                    end_us,
                },
                OracleEvent::Gate {
                    gate: wg,
                    trap: wt,
                    chain_len: wc,
                    start_us: ws,
                    end_us: we,
                },
            ) => {
                (gate, trap, chain_len) == (*wg, *wt, *wc)
                    && start_us.to_bits() == ws.to_bits()
                    && end_us.to_bits() == we.to_bits()
            }
            (
                EventRef::TransportRound {
                    moves,
                    involved,
                    start_us,
                    end_us,
                },
                OracleEvent::TransportRound {
                    moves: wm,
                    involved: wi,
                    start_us: ws,
                    end_us: we,
                },
            ) => {
                moves == wm.as_slice()
                    && involved == wi.as_slice()
                    && start_us.to_bits() == ws.to_bits()
                    && end_us.to_bits() == we.to_bits()
            }
            (
                EventRef::ZoneMove {
                    ion,
                    trap,
                    start_us,
                    end_us,
                },
                OracleEvent::ZoneMove {
                    ion: wion,
                    trap: wt,
                    start_us: ws,
                    end_us: we,
                },
            ) => {
                (ion, trap) == (*wion, *wt)
                    && start_us.to_bits() == ws.to_bits()
                    && end_us.to_bits() == we.to_bits()
            }
            _ => false,
        };
        prop_assert!(same, "event {}: {:?} vs oracle {:?}", k, g, w);
    }
    prop_assert_eq!(got.makespan_us.to_bits(), want.makespan_us.to_bits());
    prop_assert_eq!(
        (
            got.gates,
            got.shuttles,
            got.shuttle_depth,
            got.zone_moves,
            got.junction_crossings
        ),
        (
            want.gates,
            want.shuttles,
            want.shuttle_depth,
            want.zone_moves,
            want.junction_crossings
        )
    );
    Ok(())
}

/// A compiled random circuit on a linear, ring or grid machine, single-zone
/// or zoned.
fn compiled(
    topology: u32,
    zoned: bool,
    gates: usize,
    seed: u64,
) -> (Circuit, MachineSpec, Schedule) {
    let topology = match topology {
        0 => TrapTopology::linear(4),
        1 => TrapTopology::ring(5),
        _ => TrapTopology::grid(2, 3),
    };
    let qubits = 12u32;
    let comm = 2u32;
    let capacity = qubits.div_ceil(topology.num_traps()) + comm + 2;
    let mut spec = MachineSpec::new(topology, capacity, comm).expect("valid spec");
    if zoned {
        let layout = ZoneLayout::new(capacity - 3, 1, 2).expect("valid layout");
        spec = spec.with_zone_layout(layout).expect("layout fits");
    }
    let circuit = random_circuit(qubits, gates, seed);
    let config = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
    let result = compile(&circuit, &spec, &config).expect("circuit fits");
    (circuit, spec, result.schedule)
}

/// The schedule's rounds three ways: serial, strict concurrent, and
/// lookahead-reordered.
fn transports(schedule: &Schedule, spec: &MachineSpec) -> [TransportSchedule; 3] {
    [
        TransportSchedule::pack_serial(schedule),
        TransportSchedule::pack_concurrent(schedule, spec).expect("strict packing"),
        TransportSchedule::pack_lookahead(schedule, spec).expect("lookahead packing"),
    ]
}

/// Corruptions of a valid transport that lowering must reject: an empty
/// round, a leftover round, a wrong move, and (when the schedule has one)
/// a round spanning a gate.
fn corruptions(schedule: &Schedule, transport: &TransportSchedule) -> Vec<TransportSchedule> {
    let mut out = Vec::new();
    let Some(last) = transport.rounds.last() else {
        return out;
    };
    let mut empty = transport.clone();
    empty
        .rounds
        .insert(transport.rounds.len() / 2, TransportRound { moves: vec![] });
    out.push(empty);
    let mut leftover = transport.clone();
    leftover.rounds.push(last.clone());
    out.push(leftover);
    let mut wrong = transport.clone();
    let k = transport.rounds.len() / 2;
    let hop: &mut ShuttleMove = &mut wrong.rounds[k].moves[0];
    hop.to = hop.from;
    out.push(wrong);
    // Merge the last round before a gate with the first one after it.
    let serial = TransportSchedule::pack_serial(schedule);
    let mut seen = 0usize;
    let mut gate_since = false;
    for op in &schedule.operations {
        match op {
            Operation::Gate { .. } => gate_since = seen > 0,
            Operation::Shuttle { .. } if gate_since => break,
            Operation::Shuttle { .. } => seen += 1,
        }
    }
    if gate_since && seen < serial.rounds.len() {
        let mut spanning = serial.clone();
        let next = spanning.rounds.remove(seen);
        spanning.rounds[seen - 1].moves.extend(next.moves);
        out.push(spanning);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streamed fold reproduces the oracle on compiled schedules under
    /// every transport shape, layout and timing model, and rejects every
    /// corrupted transport with the oracle's exact error.
    #[test]
    fn streamed_lower_equals_the_per_round_vec_oracle(
        topology in 0u32..3,
        zoned in any::<bool>(),
        gates in 20usize..120,
        seed in any::<u64>(),
    ) {
        let (circuit, spec, schedule) = compiled(topology, zoned, gates, seed);
        for model in [TimingModel::ideal(), TimingModel::realistic()] {
            let want = oracle_lower(&schedule, None, &circuit, &spec, &model).expect("lowers");
            let got = lower(&schedule, None, &circuit, &spec, &model).expect("lowers");
            assert_same(&got, &want)?;
            for transport in transports(&schedule, &spec) {
                let want = oracle_lower(&schedule, Some(&transport), &circuit, &spec, &model)
                    .expect("lowers");
                let got =
                    lower(&schedule, Some(&transport), &circuit, &spec, &model).expect("lowers");
                assert_same(&got, &want)?;
                prop_assert!(got.validate().is_ok());
                for bad in corruptions(&schedule, &transport) {
                    let want = oracle_lower(&schedule, Some(&bad), &circuit, &spec, &model);
                    let got = lower(&schedule, Some(&bad), &circuit, &spec, &model);
                    prop_assert!(want.is_err(), "corruption accepted by the oracle");
                    prop_assert_eq!(got.err(), want.err());
                }
            }
        }
    }
}

/// The sampled schedules exercise every path the oracle comparison needs:
/// multi-member rounds, departures-first reordering, zone moves and the
/// gate-spanning corruption.
#[test]
fn sampled_schedules_cover_wide_rounds_zone_moves_and_spanning_rounds() {
    let (mut wide, mut zone_moves, mut spanning) = (0usize, 0usize, 0usize);
    for seed in 0..6u64 {
        for topology in 0..3 {
            let (circuit, spec, schedule) = compiled(topology, seed % 2 == 1, 80, seed);
            for transport in transports(&schedule, &spec) {
                wide += usize::from(transport.max_round_width() > 1);
                spanning += usize::from(corruptions(&schedule, &transport).len() == 4);
                let t = lower(
                    &schedule,
                    Some(&transport),
                    &circuit,
                    &spec,
                    &TimingModel::ideal(),
                )
                .expect("lowers");
                zone_moves += t.zone_moves;
            }
        }
    }
    assert!(wide > 0 && zone_moves > 0 && spanning > 0);
}
