//! The pre-streaming `simulate_inner`, kept as the differential oracle of
//! the streamed replay: it lowers a whole
//! [`Timeline`](qccd_timing::Timeline) first, then walks
//! its events. The streamed replay must reproduce its reports, final
//! motional modes, observer sequences and heat-ledger deposits bit for
//! bit, and its errors exactly.

use crate::attribution::LedgerRecorder;
use crate::error::SimError;
use crate::fidelity::{one_qubit_gate_fidelity, two_qubit_gate_fidelity};
use crate::params::SimParams;
use crate::report::SimReport;
use crate::simulator::{device_model, simulate_inner, OpObserver};
use proptest::prelude::*;
use qccd_circuit::generators::random_circuit;
use qccd_circuit::{Circuit, GateQubits};
use qccd_core::{compile, CompilerConfig, RouterPolicy};
use qccd_machine::{IonId, MachineSpec, Operation, Schedule, TrapTopology, ZoneLayout};
use qccd_route::{TransportRound, TransportSchedule};
use qccd_timing::{EventRef, LowerError, TimingModel};

/// The pre-streaming replay: lower, then iterate.
#[allow(clippy::too_many_arguments)]
fn oracle_simulate_inner(
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
    schedule
        .validate(circuit, spec)
        .map_err(SimError::InvalidSchedule)?;
    let model = &device_model(model);
    let timeline =
        qccd_timing::lower(schedule, transport, circuit, spec, model).map_err(|e| match e {
            LowerError::TransportMismatch { op_index } => SimError::TransportMismatch { op_index },
            LowerError::InvalidModel => SimError::InvalidParams,
            other => SimError::Timing(other),
        })?;

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

    for event in timeline.iter() {
        match event {
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
        }
    }

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
            timed_makespan_us: timeline.makespan_us,
            shuttles,
            shuttle_depth,
            gates,
            zone_moves: timeline.zone_moves,
            junction_crossings: timeline.junction_crossings,
            final_mean_motional_mode,
            final_mean_motional_mode_occupied,
            min_gate_fidelity,
        },
        n_bar,
    ))
}

/// Everything one replay produces, rendered with `{:?}` so equal strings
/// mean equal bits (`f64` debug output round-trips exactly).
fn replay(
    streamed: bool,
    schedule: &Schedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    params: &SimParams,
    transport: Option<&TransportSchedule>,
    model: Option<&TimingModel>,
) -> Result<String, SimError> {
    let mut ledger = LedgerRecorder::new(spec.num_traps() as usize);
    let mut seen: Vec<OpObserver> = Vec::new();
    let run = if streamed {
        simulate_inner
    } else {
        oracle_simulate_inner
    };
    let (report, n_bar) = run(
        schedule,
        circuit,
        spec,
        params,
        transport,
        model,
        Some(&mut ledger),
        &mut |obs| seen.push(obs),
    )?;
    Ok(format!("{report:?}\n{n_bar:?}\n{seen:?}\n{ledger:?}"))
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

/// Corruptions of a valid transport the replay must reject: an empty
/// round, a leftover round, a wrong move, and (when the schedule has a
/// gate between two runs) a round spanning that gate.
fn corruptions(schedule: &Schedule, transport: &TransportSchedule) -> Vec<TransportSchedule> {
    let mut out = Vec::new();
    let Some(last) = transport.rounds.last() else {
        return out;
    };
    let mid = transport.rounds.len() / 2;
    let mut empty = transport.clone();
    empty.rounds.insert(mid, TransportRound { moves: vec![] });
    let mut leftover = transport.clone();
    leftover.rounds.push(last.clone());
    let mut wrong = transport.clone();
    let hop = &mut wrong.rounds[mid].moves[0];
    hop.to = hop.from;
    out.extend([empty, leftover, wrong]);
    let mut before = 0usize;
    let mut gate_since = false;
    for op in &schedule.operations {
        match op {
            Operation::Gate { .. } => gate_since = before > 0,
            Operation::Shuttle { .. } if gate_since => {
                let mut spanning = TransportSchedule::pack_serial(schedule);
                let next = spanning.rounds.remove(before);
                spanning.rounds[before - 1].moves.extend(next.moves);
                out.push(spanning);
                break;
            }
            Operation::Shuttle { .. } => before += 1,
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The streamed replay equals the lower-then-iterate oracle on compiled
    /// schedules: uniform-hop replays and timed replays of serial, strict
    /// and lookahead-reordered transports, single-zone and zoned; and
    /// corrupted transports fail with the oracle's exact error.
    #[test]
    fn streamed_replay_equals_the_lower_then_iterate_oracle(
        topology in 0u32..3,
        zoned in any::<bool>(),
        gates in 20usize..120,
        seed in any::<u64>(),
    ) {
        let (circuit, spec, schedule) = compiled(topology, zoned, gates, seed);
        let params = SimParams::default();
        let same = |transport: Option<&TransportSchedule>, model: Option<&TimingModel>| {
            let got = replay(true, &schedule, &circuit, &spec, &params, transport, model);
            let want = replay(false, &schedule, &circuit, &spec, &params, transport, model);
            (got == want)
                .then_some(())
                .ok_or_else(|| format!("{got:?}\nvs oracle\n{want:?}"))
        };
        same(None, None)?;
        let transports = [
            TransportSchedule::pack_serial(&schedule),
            TransportSchedule::pack_concurrent(&schedule, &spec).expect("strict packing"),
            TransportSchedule::pack_lookahead(&schedule, &spec).expect("lookahead packing"),
        ];
        for transport in &transports {
            same(Some(transport), None)?;
            same(Some(transport), Some(&TimingModel::realistic()))?;
            for bad in corruptions(&schedule, transport) {
                let want = replay(false, &schedule, &circuit, &spec, &params, Some(&bad), None);
                prop_assert!(
                    matches!(want, Err(SimError::TransportMismatch { .. })),
                    "oracle accepted a corruption: {:?}",
                    want
                );
                same(Some(&bad), None)?;
            }
        }
    }
}
