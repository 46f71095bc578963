//! Schedule replay: timed event timelines, chain heating, program fidelity.
//!
//! Since the `qccd-timing` subsystem landed, the simulator no longer keeps
//! its own ad-hoc clock arithmetic: it drives the ASAP lowering fold
//! ([`LowerState`]: per-trap and per-ion frontiers, critical-path round
//! durations, synthesized zone moves) once over the schedule, and the
//! physics replay accumulates heating and fidelity on each timed event as
//! the fold emits it. No [`Timeline`](qccd_timing::Timeline) is stored.

use crate::attribution::LedgerRecorder;
use crate::error::SimError;
use crate::fidelity::{one_qubit_gate_fidelity, two_qubit_gate_fidelity};
use crate::params::SimParams;
use crate::report::SimReport;
use qccd_circuit::{Circuit, GateId, GateQubits};
use qccd_machine::{IonId, MachineSpec, Schedule, TrapId};
use qccd_route::TransportSchedule;
use qccd_timing::{replay, EventRef, LowerError, ReplayError, Rounds, TimingModel};

/// Distribution of `1 − F` per replayed gate, in parts per billion
/// (`--profile` surfaces count/mean/p50/p99).
static GATE_INFIDELITY: qccd_obs::Histogram = qccd_obs::Histogram::new("sim.gate_infidelity");

/// Distribution of the chain's `n̄` per replayed gate, in milliquanta.
static GATE_NBAR: qccd_obs::Histogram = qccd_obs::Histogram::new("sim.gate_nbar");

/// Event passed to the observer for every replayed gate and shuttle: the
/// fidelity attribution pass builds its loss terms from these.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpObserver {
    Gate {
        gate: GateId,
        trap: TrapId,
        start_us: f64,
        end_us: f64,
        fidelity: f64,
        n_bar: f64,
        chain_len: u32,
    },
    Shuttle {
        ion: IonId,
        from: TrapId,
        to: TrapId,
        start_us: f64,
        end_us: f64,
    },
}

/// Replays `schedule` through the physical model and reports program
/// fidelity and makespan.
///
/// The schedule is replay-validated (legal shuttles, co-located gate
/// operands, dependency order) while it is lowered, one hop per round,
/// into an ASAP event timeline under the uniform-hop
/// [`TimingModel::ideal`]. Validation and lowering are one walk
/// ([`qccd_timing::replay`]): the first violation in operation order is
/// reported.
/// Simulation then tracks:
///
/// * a clock per trap (serial in-trap execution, parallel across traps;
///   a shuttle hop occupies both endpoint traps for its full
///   split+move+merge duration);
/// * an availability time per qubit (a gate cannot start before the gates
///   feeding it have finished, even across traps);
/// * a motional mode `n̄` per chain, fed by background heating (per
///   trap-local elapsed time) and by shuttle split/merge quanta.
///
/// # Errors
///
/// * [`SimError::InvalidParams`] — `params` contains negative or
///   non-finite values (checked before the replay starts).
/// * [`SimError::InvalidSchedule`] — the schedule does not execute
///   `circuit` legally on `spec`.
///
/// The replay reports the first violation in operation order.
pub fn simulate(
    schedule: &Schedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
) -> Result<SimReport, SimError> {
    simulate_inner(
        schedule,
        circuit,
        spec,
        params,
        None,
        None,
        None,
        &mut |_| {},
    )
    .map(|(report, _)| report)
}

/// Replays `schedule` with its shuttle traffic executed as the concurrent
/// rounds of `transport`, on the device clock `model`.
///
/// Every round occupies all its member traps for its critical-path
/// duration — its moves split, fly and merge simultaneously on disjoint
/// shuttle-path segments — so transport time scales with the schedule's
/// *depth* (`transport.depth()`, reported as
/// [`shuttle_depth`](SimReport::shuttle_depth)) rather than its raw
/// shuttle count. Linear-segment transit, junction corner/swap costs and
/// timed intra-trap zone moves on multi-zone machines all come from
/// `model`; `params` supplies the error physics (heating rates and
/// quanta, Γ, motional coupling). Each member move deposits its
/// split/move/merge quanta.
///
/// With [`TimingModel::ideal`] and one hop per round
/// ([`TransportSchedule::pack_serial`]) this reproduces [`simulate`]
/// exactly.
///
/// # Errors
///
/// As [`simulate`], plus [`SimError::TransportMismatch`] if the rounds do
/// not cover the schedule's shuttle operations, [`SimError::Timing`] if a
/// round breaks a machine rule or no order can apply it, and
/// [`SimError::InvalidParams`] if `model` has non-finite or negative
/// constants. The first violation in operation order wins: rounds that
/// disagree with a gate-free run are reported before a schedule fault
/// after that run.
pub fn simulate_timed(
    schedule: &Schedule,
    transport: &TransportSchedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
    model: &TimingModel,
) -> Result<SimReport, SimError> {
    simulate_inner(
        schedule,
        circuit,
        spec,
        params,
        Some(transport),
        Some(model),
        None,
        &mut |_| {},
    )
    .map(|(report, _)| report)
}

/// Core replay loop shared by [`simulate`], [`simulate_timed`] and
/// [`attribute_fidelity`](crate::attribute_fidelity). Returns the report
/// plus the final per-trap motional modes.
///
/// The checked lowering fold runs once, validating each operation before
/// it folds it, and every event it emits is replayed immediately, in
/// schedule order.
///
/// When `ledger` is given, every `n̄` update is additionally recorded as a
/// tagged heat deposit. The recording is a pure side channel — the replay
/// arithmetic is identical with or without it, so reports stay bit for
/// bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_inner(
    schedule: &Schedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
    transport: Option<&TransportSchedule>,
    model: Option<&TimingModel>,
    mut ledger: Option<&mut LedgerRecorder>,
    observer: &mut dyn FnMut(OpObserver),
) -> Result<(SimReport, Vec<f64>), SimError> {
    if !params.is_valid() {
        return Err(SimError::InvalidParams);
    }
    let model = &device_model(model);
    let dag = circuit.dependency_dag();
    let rounds = transport.map_or(Rounds::Serial, Rounds::Lowered);

    let num_traps = spec.num_traps() as usize;
    let mut clock = vec![0.0f64; num_traps]; // µs, per trap
    let mut n_bar = vec![0.0f64; num_traps]; // motional mode per chain

    // Chain occupancy per trap, maintained across shuttles so the report
    // can average `n̄` over *occupied* chains only.
    let mut occupancy = vec![0u32; num_traps];
    for ion in 0..schedule.initial_mapping.num_ions() {
        occupancy[schedule.initial_mapping.trap_of(IonId(ion)).index()] += 1;
    }

    // Energy carried by an ion in transit (Fig. 3: "MOVE ... q[a1] energy ^").
    let mut carried = vec![0.0f64; schedule.initial_mapping.num_ions() as usize];

    let mut fidelity_log_sum = 0.0f64; // sum of ln(F); exp at the end
    let mut zero_fidelity = false;
    let mut min_gate_fidelity = 1.0f64;
    let mut gates = 0usize;
    let mut shuttles = 0usize;
    let mut shuttle_depth = 0usize;
    let heat_rate_per_us = params.background_heating_quanta_per_s * 1e-6;

    // The device clock: the checked lowering fold emits every timed event
    // in schedule order, and the physics runs on each one as it arrives.
    let fold = replay(
        schedule,
        rounds,
        circuit,
        &dag,
        spec,
        model,
        &mut |event| match event {
            EventRef::Gate {
                gate,
                trap,
                chain_len,
                start_us,
                end_us,
            } => {
                let g = circuit.gate(gate);
                let t = trap.index();
                let tau = match g.qubits {
                    GateQubits::One(_) => model.one_qubit_gate_us(),
                    GateQubits::Two(_, _) => model.two_qubit_gate_us(chain_len),
                };
                // Background heating for the idle + busy interval, then
                // the fidelity sampled at the heated n̄.
                let heat = heat_rate_per_us * (end_us - clock[t]).max(0.0);
                n_bar[t] += heat;
                if let Some(lr) = ledger.as_deref_mut() {
                    lr.background(t, heat, end_us);
                    lr.note_gate(t);
                }
                let fidelity = match g.qubits {
                    GateQubits::One(_) => one_qubit_gate_fidelity(params, tau),
                    GateQubits::Two(_, _) => {
                        two_qubit_gate_fidelity(params, tau, n_bar[t], chain_len)
                    }
                };
                clock[t] = end_us;
                if qccd_obs::is_enabled() {
                    GATE_INFIDELITY.record(((1.0 - fidelity) * 1e9) as u64);
                    GATE_NBAR.record((n_bar[t] * 1e3) as u64);
                }
                observer(OpObserver::Gate {
                    gate: g.id,
                    trap,
                    start_us,
                    end_us,
                    fidelity,
                    n_bar: n_bar[t],
                    chain_len,
                });
                gates += 1;
                min_gate_fidelity = min_gate_fidelity.min(fidelity);
                if fidelity <= 0.0 {
                    zero_fidelity = true;
                } else {
                    fidelity_log_sum += fidelity.ln();
                }
            }
            EventRef::TransportRound {
                moves,
                involved,
                start_us,
                end_us,
            } => {
                shuttle_depth += 1;
                // Background heating up to `end` on every involved chain.
                for t in involved {
                    let t = t.index();
                    let heat = heat_rate_per_us * (end_us - clock[t]).max(0.0);
                    n_bar[t] += heat;
                    if let Some(lr) = ledger.as_deref_mut() {
                        lr.background(t, heat, end_us);
                    }
                }
                for m in moves {
                    let (fi, ti) = (m.from.index(), m.to.index());
                    // Fig. 3 energy transport:
                    //   SPLIT — the departing ion carries its per-ion share
                    //   of the chain's motional energy ("Split reduces
                    //   chain-0's energy"), while the split pulse itself
                    //   deposits quanta into the remaining chain.
                    let m_src = f64::from(m.src_occupancy).max(1.0);
                    let share = n_bar[fi] / m_src;
                    n_bar[fi] = n_bar[fi] - share + params.split_heating_quanta;
                    //   MOVE — transit adds energy to the shuttled ion.
                    carried[m.ion.index()] += share + params.move_heating_quanta;
                    //   MERGE — the arriving ion's energy joins the
                    //   destination chain plus the merge pulse ("Merging
                    //   q[a1] increases chain-1's energy").
                    n_bar[ti] += carried[m.ion.index()] + params.merge_heating_quanta;
                    carried[m.ion.index()] = 0.0;
                    if let Some(lr) = ledger.as_deref_mut() {
                        lr.split(fi, share, params.split_heating_quanta, end_us, m.ion);
                        lr.merge(
                            ti,
                            share,
                            params.move_heating_quanta,
                            params.merge_heating_quanta,
                            end_us,
                            m.ion,
                        );
                    }
                    occupancy[fi] = occupancy[fi].saturating_sub(1);
                    occupancy[ti] += 1;
                    // The transport pulses themselves are lossy operations.
                    fidelity_log_sum += (1.0 - params.shuttle_infidelity).ln();
                    observer(OpObserver::Shuttle {
                        ion: m.ion,
                        from: m.from,
                        to: m.to,
                        start_us,
                        end_us,
                    });
                    shuttles += 1;
                }
                for t in involved {
                    clock[t.index()] = end_us;
                }
            }
            EventRef::ZoneMove {
                ion, trap, end_us, ..
            } => {
                // An intra-trap reorder: the chain idles (background
                // heating) and the reorder pulse deposits its own quanta.
                let t = trap.index();
                let heat = heat_rate_per_us * (end_us - clock[t]).max(0.0);
                n_bar[t] += heat + params.zone_move_heating_quanta;
                if let Some(lr) = ledger.as_deref_mut() {
                    lr.zone(t, heat, params.zone_move_heating_quanta, end_us, ion);
                }
                clock[t] = end_us;
            }
        },
    )
    .map_err(sim_replay_error)?;

    let (program_fidelity, log_program_fidelity) = if zero_fidelity {
        (0.0, f64::NEG_INFINITY)
    } else {
        (fidelity_log_sum.exp(), fidelity_log_sum)
    };
    let makespan_us = clock.iter().copied().fold(0.0f64, f64::max);
    let final_mean_motional_mode = if num_traps == 0 {
        0.0
    } else {
        n_bar.iter().sum::<f64>() / num_traps as f64
    };
    // The occupied-chain mean: empty traps carry no chain, so averaging
    // them in dilutes the heating figure on sparse machines.
    let occupied = occupancy.iter().filter(|&&o| o > 0).count();
    let final_mean_motional_mode_occupied = if occupied == 0 {
        0.0
    } else {
        n_bar
            .iter()
            .zip(&occupancy)
            .filter(|&(_, &o)| o > 0)
            .map(|(n, _)| n)
            .sum::<f64>()
            / occupied as f64
    };

    Ok((
        SimReport {
            program_fidelity,
            log_program_fidelity,
            makespan_us,
            timed_makespan_us: fold.makespan_us(),
            shuttles,
            shuttle_depth,
            gates,
            zone_moves: fold.zone_moves(),
            junction_crossings: fold.junction_crossings(),
            final_mean_motional_mode,
            final_mean_motional_mode_occupied,
            min_gate_fidelity,
        },
        n_bar,
    ))
}

/// The device clock the replay runs on: `model`, or without one the
/// uniform-hop [`TimingModel::ideal`].
pub(crate) fn device_model(model: Option<&TimingModel>) -> TimingModel {
    model.copied().unwrap_or_else(TimingModel::ideal)
}

/// Maps a checked-replay failure onto the simulator's error type. The
/// simulator's rounds answer to the lowering rules, so every transport
/// fault comes back as a lowering error.
fn sim_replay_error(e: ReplayError) -> SimError {
    match e {
        ReplayError::Schedule(e) => SimError::InvalidSchedule(e),
        ReplayError::Lower(e) => sim_lower_error(e),
        ReplayError::Transport(e) => unreachable!("lowered rounds raise no strict error: {e}"),
    }
}

/// Maps a lowering failure onto the simulator's error type.
fn sim_lower_error(e: LowerError) -> SimError {
    match e {
        LowerError::TransportMismatch { op_index } => SimError::TransportMismatch { op_index },
        LowerError::InvalidModel => SimError::InvalidParams,
        other => SimError::Timing(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{GateId, Opcode, Qubit};
    use qccd_machine::{InitialMapping, Operation, TrapId};

    fn two_trap_fixture() -> (Circuit, MachineSpec, InitialMapping) {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        (c, spec, mapping)
    }

    fn schedule_with_shuttle(mapping: InitialMapping) -> Schedule {
        Schedule::new(
            mapping,
            vec![
                Operation::Gate {
                    gate: GateId(0),
                    trap: TrapId(0),
                },
                Operation::Gate {
                    gate: GateId(1),
                    trap: TrapId(1),
                },
                Operation::Shuttle {
                    ion: IonId(1),
                    from: TrapId(0),
                    to: TrapId(1),
                },
                Operation::Gate {
                    gate: GateId(2),
                    trap: TrapId(1),
                },
            ],
        )
    }

    #[test]
    fn basic_replay_counts_and_bounds() {
        let (c, spec, mapping) = two_trap_fixture();
        let report = simulate(
            &schedule_with_shuttle(mapping),
            &c,
            &spec,
            &SimParams::default(),
        )
        .unwrap();
        assert_eq!(report.gates, 3);
        assert_eq!(report.shuttles, 1);
        assert_eq!(report.zone_moves, 0, "single-zone traps never reorder");
        assert_eq!(report.junction_crossings, 0, "a line has no junctions");
        assert!(report.program_fidelity > 0.0 && report.program_fidelity < 1.0);
        assert!(report.min_gate_fidelity <= 1.0);
        assert!(
            report.final_mean_motional_mode > 0.0,
            "shuttle must heat chains"
        );
        assert_eq!(
            report.timed_makespan_us, report.makespan_us,
            "timeline and clock replay must agree exactly"
        );
    }

    #[test]
    fn parallel_traps_overlap_in_time() {
        // Gates 0 and 1 run in different traps concurrently: the makespan
        // must be far less than the serial sum.
        let (c, spec, mapping) = two_trap_fixture();
        let report = simulate(
            &schedule_with_shuttle(mapping),
            &c,
            &spec,
            &SimParams::default(),
        )
        .unwrap();
        let m = TimingModel::ideal();
        let serial = 2.0 * m.two_qubit_gate_us(2) + m.hop_us(0) + m.two_qubit_gate_us(3);
        assert!(report.makespan_us < serial);
        // And at least gate + shuttle + gate on the critical path.
        let critical = m.two_qubit_gate_us(2) + m.hop_us(0);
        assert!(report.makespan_us > critical);
    }

    #[test]
    fn more_shuttles_means_lower_fidelity() {
        // Same circuit, same final placement — but the second schedule
        // ping-pongs an ion before the last gate.
        let (c, spec, mapping) = two_trap_fixture();
        let lean = schedule_with_shuttle(mapping.clone());
        let mut ops = lean.operations.clone();
        ops.insert(
            2,
            Operation::Shuttle {
                ion: IonId(2),
                from: TrapId(1),
                to: TrapId(0),
            },
        );
        ops.insert(
            3,
            Operation::Shuttle {
                ion: IonId(2),
                from: TrapId(0),
                to: TrapId(1),
            },
        );
        let wasteful = Schedule::new(mapping, ops);
        let p = SimParams::default();
        let lean_report = simulate(&lean, &c, &spec, &p).unwrap();
        let wasteful_report = simulate(&wasteful, &c, &spec, &p).unwrap();
        assert!(
            lean_report.program_fidelity > wasteful_report.program_fidelity,
            "extra shuttles must strictly reduce program fidelity"
        );
        assert!(lean_report.makespan_us < wasteful_report.makespan_us);
        assert!(wasteful_report.fidelity_improvement_over(&lean_report) < 1.0);
    }

    #[test]
    fn invalid_schedule_rejected() {
        let (c, spec, mapping) = two_trap_fixture();
        let bad = Schedule::new(mapping, vec![]); // misses every gate
        assert!(matches!(
            simulate(&bad, &c, &spec, &SimParams::default()),
            Err(SimError::InvalidSchedule(_))
        ));
    }

    #[test]
    fn invalid_params_rejected() {
        let (c, spec, mapping) = two_trap_fixture();
        let p = SimParams {
            gamma_per_us: f64::NAN,
            ..SimParams::default()
        };
        assert_eq!(
            simulate(&schedule_with_shuttle(mapping), &c, &spec, &p),
            Err(SimError::InvalidParams)
        );
    }

    #[test]
    fn invalid_timing_model_rejected() {
        let (c, spec, mapping) = two_trap_fixture();
        let schedule = schedule_with_shuttle(mapping);
        let transport = TransportSchedule::pack_serial(&schedule);
        let mut model = TimingModel::realistic();
        model.junction_cross_us = -1.0;
        assert_eq!(
            simulate_timed(
                &schedule,
                &transport,
                &c,
                &spec,
                &SimParams::default(),
                &model
            ),
            Err(SimError::InvalidParams)
        );
    }

    #[test]
    fn empty_schedule_is_perfect() {
        let c = Circuit::new(2);
        let spec = MachineSpec::linear(1, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 2).unwrap();
        let report = simulate(
            &Schedule::new(mapping, vec![]),
            &c,
            &spec,
            &SimParams::default(),
        )
        .unwrap();
        assert_eq!(report.program_fidelity, 1.0);
        assert_eq!(report.makespan_us, 0.0);
        assert_eq!(report.final_mean_motional_mode, 0.0);
    }

    #[test]
    fn transport_rounds_compress_makespan_and_depth() {
        use qccd_route::{TransportRound, TransportSchedule};
        // L3, no gates: a pipelined pair — ion 2 leaves T1 for T2 while
        // ion 1 enters T1 from T0. Serial replay serialises them on T1's
        // clock (2 hop durations); one concurrent round takes 1.
        let c = Circuit::new(4);
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let hops = [
            (IonId(2), TrapId(1), TrapId(2)),
            (IonId(1), TrapId(0), TrapId(1)),
        ];
        let ops = hops
            .iter()
            .map(|&(ion, from, to)| Operation::Shuttle { ion, from, to })
            .collect();
        let schedule = Schedule::new(mapping, ops);
        let params = SimParams::default();
        let ideal = TimingModel::ideal();
        let serial = simulate(&schedule, &c, &spec, &params).unwrap();
        assert_eq!(serial.shuttle_depth, 2, "serial: one round per hop");
        assert!((serial.makespan_us - 2.0 * ideal.hop_us(0)).abs() < 1e-9);

        let transport = TransportSchedule {
            rounds: vec![TransportRound {
                moves: hops
                    .iter()
                    .map(|&(ion, from, to)| qccd_machine::ShuttleMove { ion, from, to })
                    .collect(),
            }],
        };
        let concurrent = simulate_timed(&schedule, &transport, &c, &spec, &params, &ideal).unwrap();
        assert_eq!(concurrent.shuttle_depth, 1, "one concurrent round");
        assert_eq!(concurrent.shuttles, 2);
        assert!((concurrent.makespan_us - ideal.hop_us(0)).abs() < 1e-9);
        // Per-move split/move/merge quanta are identical, but background
        // heating accrues with elapsed time — halving the transport time
        // strictly reduces accumulated heat (and so improves fidelity).
        assert!(concurrent.final_mean_motional_mode < serial.final_mean_motional_mode);
        assert!(concurrent.program_fidelity >= serial.program_fidelity);
    }

    #[test]
    fn timed_replay_with_ideal_model_matches_uniform_replay() {
        let (c, spec, mapping) = two_trap_fixture();
        let schedule = schedule_with_shuttle(mapping);
        let transport = TransportSchedule::pack_serial(&schedule);
        let params = SimParams::default();
        let uniform = simulate(&schedule, &c, &spec, &params).unwrap();
        let timed = simulate_timed(
            &schedule,
            &transport,
            &c,
            &spec,
            &params,
            &TimingModel::ideal(),
        )
        .unwrap();
        assert_eq!(timed, uniform, "ideal timing is bit-for-bit the old replay");
    }

    #[test]
    fn realistic_model_stretches_makespan_and_heating() {
        let (c, spec, mapping) = two_trap_fixture();
        let schedule = schedule_with_shuttle(mapping);
        let transport = TransportSchedule::pack_serial(&schedule);
        let params = SimParams::default();
        let ideal = simulate_timed(
            &schedule,
            &transport,
            &c,
            &spec,
            &params,
            &TimingModel::ideal(),
        )
        .unwrap();
        let realistic = simulate_timed(
            &schedule,
            &transport,
            &c,
            &spec,
            &params,
            &TimingModel::realistic(),
        )
        .unwrap();
        assert!(realistic.timed_makespan_us > ideal.timed_makespan_us);
        assert!(
            realistic.final_mean_motional_mode > ideal.final_mean_motional_mode,
            "longer transport accrues more background heating"
        );
        assert!(realistic.program_fidelity < ideal.program_fidelity);
    }

    #[test]
    fn transport_mismatch_is_rejected() {
        use qccd_route::{TransportRound, TransportSchedule};
        let (c, spec, mapping) = two_trap_fixture();
        let schedule = schedule_with_shuttle(mapping);
        let wrong = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![qccd_machine::ShuttleMove {
                    ion: IonId(3),
                    from: TrapId(1),
                    to: TrapId(0),
                }],
            }],
        };
        assert!(matches!(
            simulate_timed(
                &schedule,
                &wrong,
                &c,
                &spec,
                &SimParams::default(),
                &TimingModel::ideal()
            ),
            Err(SimError::TransportMismatch { .. })
        ));
    }

    #[test]
    fn transport_rejects_empty_rounds() {
        use qccd_route::{TransportRound, TransportSchedule};
        let (c, spec, mapping) = two_trap_fixture();
        let schedule = schedule_with_shuttle(mapping);
        let mut padded = TransportSchedule::pack_serial(&schedule);
        padded.rounds.insert(0, TransportRound { moves: vec![] });
        assert!(matches!(
            simulate_timed(
                &schedule,
                &padded,
                &c,
                &spec,
                &SimParams::default(),
                &TimingModel::ideal()
            ),
            Err(SimError::TransportMismatch { .. })
        ));
    }

    #[test]
    fn dependency_forces_serialization_across_traps() {
        // Gate 2 depends on gates 0 and 1 via qubits 1 and 2; it cannot
        // start before both finish even though it runs in trap T1.
        let (c, spec, mapping) = two_trap_fixture();
        let report = simulate(
            &schedule_with_shuttle(mapping),
            &c,
            &spec,
            &SimParams::default(),
        )
        .unwrap();
        let m = TimingModel::ideal();
        // Critical path: gate0 (ion 1 busy) -> shuttle -> gate2.
        let expect = m.two_qubit_gate_us(2) + m.hop_us(0) + m.two_qubit_gate_us(3);
        assert!((report.makespan_us - expect).abs() < 1e-9);
    }

    #[test]
    fn zone_moves_heat_and_slow_multi_zone_machines() {
        use qccd_machine::ZoneLayout;
        // One trap split 2+1+1: the gate's operands start outside the gate
        // zone, so the timed replay inserts zone moves.
        let spec = MachineSpec::linear(1, 4, 1)
            .unwrap()
            .with_zone_layout(ZoneLayout::new(2, 1, 1).unwrap())
            .unwrap();
        let mapping = InitialMapping::round_robin(&spec, 3).unwrap();
        let mut c = Circuit::new(3);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            }],
        );
        let transport = TransportSchedule::pack_serial(&schedule);
        let params = SimParams::default();
        let report = simulate_timed(
            &schedule,
            &transport,
            &c,
            &spec,
            &params,
            &TimingModel::realistic(),
        )
        .unwrap();
        // Promoting ion 2 to the chain front displaces ion 1 out of the
        // 2-slot gate zone, so a second reorder is required.
        assert_eq!(report.zone_moves, 2);
        let m = TimingModel::realistic();
        let expect = 2.0 * m.zone_move_us() + m.two_qubit_gate_us(3);
        assert!((report.timed_makespan_us - expect).abs() < 1e-9);
        assert!(
            report.final_mean_motional_mode >= params.zone_move_heating_quanta,
            "the reorder pulse deposits quanta"
        );
    }
}
