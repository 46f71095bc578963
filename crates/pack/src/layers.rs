//! Batched layer planning: re-routing a whole gate-free run of moves as a
//! multi-commodity flow.
//!
//! The congestion planner prices one move at a time, so the hops of a wide
//! ready layer (QAOA's rebalance bursts) only share rounds by accident.
//! This pass re-plans each gate-free run *jointly*: every ion that nets a
//! displacement across the run becomes one commodity, the commodities are
//! routed one unit of min-cost flow at a time with pairwise edge-disjoint
//! paths by `qccd-flow`'s [`CommodityRouter`] (built once per pass), and
//! the run is re-emitted layer by layer — the k-th hops of all
//! commodities side by side, exactly the shape the round packers turn
//! into one round each. Ions whose walk nets
//! to nothing (eviction ping-pongs) drop out entirely.
//!
//! When the flows conflict, the planner falls back per-commodity to the
//! raw shortest path; when the rewritten run does not replay legally (the
//! flow is capacity-blind) or does not beat the original run on the
//! device clock, the original run is kept verbatim. Every candidate is
//! scored with an incremental re-lower from the run's checkpoint
//! ([`LowerState`]), so the whole pass costs O(schedule), not O(n²) full
//! `lower` calls.

use crate::PackError;
use qccd_circuit::Circuit;
use qccd_flow::{Commodity, CommodityRouter};
use qccd_machine::{IonId, MachineSpec, Operation, Placement, Schedule, TrapId};
use qccd_route::TransportSchedule;
use qccd_timing::{LowerState, TimingModel};

/// Result of the batched layer-planning pass.
pub(crate) struct LayerPlanned {
    /// The rewritten flat operation stream.
    pub ops: Vec<Operation>,
    /// Runs whose flow-planned rewrite beat the original on the clock.
    pub replanned_runs: usize,
    /// Shuttle hops eliminated (net-zero walks and shortened routes).
    pub dropped_hops: usize,
}

/// Cost scale: hops dominate, a full destination trap costs extra (the
/// flow is capacity-blind; this steers it away from likely-invalid routes).
const HOP_COST: i64 = 1_000;
const FULL_TRAP_COST: i64 = 6_000;

/// One ion's net displacement across a run: `(ion, first from, last to)`.
type Mover = (IonId, TrapId, TrapId);

/// Re-plans every gate-free run of `schedule` as a multi-commodity flow,
/// keeping a rewrite only when it replays legally and strictly lowers the
/// run's clock under `model`. `transport` must be the schedule's validated
/// rounds (they time the original runs during scoring).
///
/// One pass over the stream, advancing the timed fold ([`LowerState`]).
/// At the start of every run worth re-planning ([`movers`]; most runs are
/// not) the rewrite is flow-planned against the fold's live machine, then
/// both variants are scored from that checkpoint and the fold advances
/// through the winner. A kept rewrite preserves the run's final mapping,
/// and the planner reads only ion positions and occupancy, so the plan is
/// the same one a shuttles-only replay of the input would price.
pub(crate) fn plan_layers(
    schedule: &Schedule,
    transport: &TransportSchedule,
    circuit: &Circuit,
    spec: &MachineSpec,
    model: &TimingModel,
) -> Result<LayerPlanned, PackError> {
    let _phase = qccd_obs::span("pack-layers");
    let stream = &schedule.operations;
    let rounds = &transport.rounds;
    let mut lower = LowerState::new(&schedule.initial_mapping, spec, model)?;
    let mut router = CommodityRouter::new(spec.topology().adjacency());
    let mut ops: Vec<Operation> = Vec::with_capacity(stream.len());
    let mut replanned_runs = 0usize;
    let mut dropped_hops = 0usize;
    let mut round_cursor = 0usize;
    let mut i = 0usize;
    while i < stream.len() {
        if let Operation::Gate { .. } = stream[i] {
            lower.advance(&stream[i..i + 1], Some(&[]), circuit, spec, &mut |_| {})?;
            ops.push(stream[i]);
            i += 1;
            continue;
        }
        let run_start = i;
        while matches!(stream.get(i), Some(Operation::Shuttle { .. })) {
            i += 1;
        }
        let rounds_start = round_cursor;
        let mut covered = 0usize;
        while covered < i - run_start {
            // A caller-assembled result whose rounds do not cover the
            // schedule is a typed error, never a panic.
            let round = rounds.get(round_cursor).ok_or(PackError::Lower(
                qccd_timing::LowerError::TransportMismatch {
                    op_index: run_start + covered,
                },
            ))?;
            covered += round.moves.len();
            round_cursor += 1;
        }
        let run_ops = &stream[run_start..i];
        let run_rounds = &rounds[rounds_start..round_cursor];
        let rewrite = movers(run_ops)
            .and_then(|m| rewrite_run(&m, lower.placement(), spec, &mut router))
            .filter(|n| n.len() <= run_ops.len());
        if let Some(new_ops) = rewrite {
            // Score both variants from the same checkpoint; the rewrite
            // must strictly win on the clock to be kept.
            let mut orig = lower.clone();
            orig.advance(run_ops, Some(run_rounds), circuit, spec, &mut |_| {})?;
            match score_rewrite(&lower, &new_ops, circuit, spec) {
                Some(new_state) if beats(&new_state, &orig) => {
                    replanned_runs += 1;
                    dropped_hops += run_ops.len() - new_ops.len();
                    lower = new_state;
                    ops.extend_from_slice(&new_ops);
                }
                _ => {
                    lower = orig;
                    ops.extend_from_slice(run_ops);
                }
            }
        } else {
            // No candidate rewrite: the fold just advances in place.
            lower.advance(run_ops, Some(run_rounds), circuit, spec, &mut |_| {})?;
            ops.extend_from_slice(run_ops);
        }
    }
    Ok(LayerPlanned {
        ops,
        replanned_runs,
        dropped_hops,
    })
}

/// The net movers of a gate-free run — each ion's first `from` and last
/// `to`, in first-touch order, net-zero walks dropped — or `None` when the
/// run is not worth re-planning: it needs either a net-zero walk to drop
/// or at least two movers to batch.
fn movers(run_ops: &[Operation]) -> Option<Vec<Mover>> {
    let mut walks: Vec<Mover> = Vec::new();
    for op in run_ops {
        let Operation::Shuttle { ion, from, to } = *op else {
            unreachable!("runs contain only shuttles");
        };
        match walks.iter_mut().find(|w| w.0 == ion) {
            Some(w) => w.2 = to,
            None => walks.push((ion, from, to)),
        }
    }
    let touched = walks.len();
    walks.retain(|&(_, a, b)| a != b);
    (touched > walks.len() || walks.len() >= 2).then_some(walks)
}

/// Builds the flow-planned rewrite of a run from its `movers`, or `None`
/// when the rewrite cannot be serialized legally. The rewrite is
/// round-major: layer k holds the k-th hop of every commodity still in
/// flight. `router` is the pass's network over `spec`'s topology.
fn rewrite_run(
    movers: &[Mover],
    machine: &Placement,
    spec: &MachineSpec,
    router: &mut CommodityRouter,
) -> Option<Vec<Operation>> {
    let cap = spec.total_capacity();
    let commodities: Vec<Commodity> = movers
        .iter()
        .map(|&(_, a, b)| Commodity {
            source: a.index(),
            sink: b.index(),
        })
        .collect();
    let cost = |_a: usize, b: usize| {
        HOP_COST
            + if machine.occupancy(TrapId(b as u32)) >= cap {
                FULL_TRAP_COST
            } else {
                0
            }
    };
    let routed = router.route(&commodities, cost);

    // Conflicting commodities fall back to the raw shortest path — they
    // simply pack opportunistically instead of deliberately.
    let mut paths: Vec<Vec<TrapId>> = Vec::with_capacity(movers.len());
    for (k, route) in routed.into_iter().enumerate() {
        let path = match route {
            Some(p) => p.into_iter().map(|t| TrapId(t as u32)).collect(),
            None => spec.topology().shortest_path(movers[k].1, movers[k].2)?,
        };
        paths.push(path);
    }

    // Layered, capacity-aware emission: each sweep advances every
    // commodity by at most one hop (the "layer"), and a hop whose
    // destination is currently full simply waits for a later sweep — the
    // order an eviction-shaped run needs (the evicted ion's first hop
    // frees the trap the mover enters). A sweep without progress means
    // the rewrite cannot be serialized legally; the caller keeps the
    // original run.
    let mut replay = machine.clone();
    let mut cursor = vec![0usize; paths.len()];
    let mut new_ops = Vec::new();
    loop {
        let mut progressed = false;
        let mut outstanding = false;
        for (c, path) in paths.iter().enumerate() {
            if cursor[c] + 1 >= path.len() {
                continue;
            }
            outstanding = true;
            let (from, to) = (path[cursor[c]], path[cursor[c] + 1]);
            if replay.shuttle(movers[c].0, to).is_ok() {
                new_ops.push(Operation::Shuttle {
                    ion: movers[c].0,
                    from,
                    to,
                });
                cursor[c] += 1;
                progressed = true;
            }
        }
        if !outstanding {
            break;
        }
        if !progressed {
            return None;
        }
    }
    Some(new_ops)
}

/// Local acceptance test: the rewrite wins when it *dominates* the
/// original on every device clock — no trap later, no ion later, at least
/// one strictly earlier. ASAP lowering is monotone in these vectors, so a
/// dominating state can only shorten (never stretch) whatever follows;
/// comparing the global running makespan alone would miss local wins
/// whose slack pays off rounds later.
fn beats(new: &LowerState, orig: &LowerState) -> bool {
    let le = new
        .trap_clocks()
        .iter()
        .zip(orig.trap_clocks())
        .all(|(a, b)| a <= b)
        && new
            .ion_avail()
            .iter()
            .zip(orig.ion_avail())
            .all(|(a, b)| a <= b);
    let lt = new
        .trap_clocks()
        .iter()
        .zip(orig.trap_clocks())
        .any(|(a, b)| a < b)
        || new
            .ion_avail()
            .iter()
            .zip(orig.ion_avail())
            .any(|(a, b)| a < b);
    le && lt
}

/// Scores the legalized rewrite from the checkpoint: packs it into greedy
/// concurrent rounds (the qccd-route packer, started from the mid-schedule
/// machine state) and advances a clone of the checkpoint through them.
/// `None` means the rewrite does not replay as legal rounds and the caller
/// keeps the original run.
fn score_rewrite(
    checkpoint: &LowerState,
    new_ops: &[Operation],
    circuit: &Circuit,
    spec: &MachineSpec,
) -> Option<LowerState> {
    let packed =
        TransportSchedule::pack_concurrent_from(checkpoint.placement().clone(), new_ops).ok()?;
    let mut state = checkpoint.clone();
    state
        .advance(new_ops, Some(&packed.rounds), circuit, spec, &mut |_| {})
        .ok()?;
    Some(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::{InitialMapping, MachineSpec};

    fn sh(ion: u32, from: u32, to: u32) -> Operation {
        Operation::Shuttle {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    #[test]
    fn net_zero_walks_are_dropped() {
        // Ion 2 ping-pongs T0→T1→T0 while ion 5 moves T1→T2: the rewrite
        // keeps only the mover.
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 8).unwrap();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(5, 1, 2), sh(2, 1, 0)]);
        let transport = TransportSchedule::pack_serial(&schedule);
        let circuit = Circuit::new(8);
        let planned = plan_layers(
            &schedule,
            &transport,
            &circuit,
            &spec,
            &TimingModel::realistic(),
        )
        .unwrap();
        assert_eq!(planned.replanned_runs, 1);
        assert_eq!(planned.dropped_hops, 2);
        assert_eq!(planned.ops, vec![sh(5, 1, 2)]);
    }

    #[test]
    fn conflicting_layer_splits_across_disjoint_paths() {
        // Ring of 4: ions at T0 and T2 swap... both 0→2 demands must take
        // opposite arcs, giving two 2-hop edge-disjoint paths that share
        // rounds layer by layer.
        let spec = MachineSpec::new(qccd_machine::TrapTopology::ring(4), 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(2), TrapId(2)])
                .unwrap();
        // Serial compile would route both through the same arc: 0-1-2 twice.
        let schedule = Schedule::new(
            mapping,
            vec![sh(0, 0, 1), sh(1, 0, 3), sh(0, 1, 2), sh(1, 3, 2)],
        );
        let transport = TransportSchedule::pack_serial(&schedule);
        let circuit = Circuit::new(4);
        let planned = plan_layers(
            &schedule,
            &transport,
            &circuit,
            &spec,
            &TimingModel::realistic(),
        )
        .unwrap();
        // Both ions still end in T2 and the rewrite (if adopted) stays
        // within the original hop budget.
        let shuttle_count = planned
            .ops
            .iter()
            .filter(|o| matches!(o, Operation::Shuttle { .. }))
            .count();
        assert!(shuttle_count <= 4);
        let packed_schedule = Schedule::new(schedule.initial_mapping.clone(), planned.ops.clone());
        let mut state = Placement::with_mapping(&spec, &packed_schedule.initial_mapping).unwrap();
        for op in &packed_schedule.operations {
            if let Operation::Shuttle { ion, to, .. } = *op {
                state.shuttle(ion, to).unwrap();
            }
        }
        assert_eq!(state.trap_of(IonId(0)), TrapId(2));
        assert_eq!(state.trap_of(IonId(1)), TrapId(2));
    }

    #[test]
    fn illegal_rewrites_fall_back_to_the_original_run() {
        // Tight machine (cap 2, comm 0): the flow-planned direct paths
        // would overfill T1, so the original (eviction-shaped) run must
        // survive verbatim.
        let spec = MachineSpec::linear(3, 2, 0).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(2)])
                .unwrap();
        // Ion 1 clears T1, then ion 0 enters: net movement for both.
        let schedule = Schedule::new(mapping, vec![sh(1, 1, 2), sh(0, 0, 1)]);
        let transport = TransportSchedule::pack_serial(&schedule);
        let circuit = Circuit::new(4);
        let planned = plan_layers(
            &schedule,
            &transport,
            &circuit,
            &spec,
            &TimingModel::realistic(),
        )
        .unwrap();
        // Whatever the planner chose, the result replays legally and ends
        // with the same mapping.
        let mut state = Placement::with_mapping(&spec, &schedule.initial_mapping).unwrap();
        for op in &planned.ops {
            if let Operation::Shuttle { ion, to, .. } = *op {
                state.shuttle(ion, to).unwrap();
            }
        }
        assert_eq!(state.trap_of(IonId(0)), TrapId(1));
        assert_eq!(state.trap_of(IonId(1)), TrapId(2));
    }

    /// The three-pass `plan_layers` the one-pass version replaced, kept
    /// as its oracle: discovery snapshots the machine at every run worth
    /// re-planning from a shuttles-only replay of the input, planning
    /// rewrites each snapshot, adoption scores the rewrites in order.
    fn three_pass_plan_layers(
        schedule: &Schedule,
        transport: &TransportSchedule,
        circuit: &Circuit,
        spec: &MachineSpec,
        model: &TimingModel,
    ) -> LayerPlanned {
        struct Run {
            start: usize,
            end: usize,
            rounds_start: usize,
            rounds_end: usize,
            plan: Option<(Vec<Mover>, Placement)>,
        }
        let stream = &schedule.operations;
        let rounds = &transport.rounds;
        let mut runs: Vec<Run> = Vec::new();
        let mut replay = Placement::with_mapping(spec, &schedule.initial_mapping).unwrap();
        let mut round_cursor = 0usize;
        let mut i = 0usize;
        while i < stream.len() {
            if let Operation::Gate { .. } = stream[i] {
                i += 1;
                continue;
            }
            let run_start = i;
            while matches!(stream.get(i), Some(Operation::Shuttle { .. })) {
                i += 1;
            }
            let rounds_start = round_cursor;
            let mut covered = 0usize;
            while covered < i - run_start {
                covered += rounds[round_cursor].moves.len();
                round_cursor += 1;
            }
            let plan = movers(&stream[run_start..i]).map(|m| (m, replay.clone()));
            for op in &stream[run_start..i] {
                if let Operation::Shuttle { ion, to, .. } = *op {
                    replay.shuttle(ion, to).unwrap();
                }
            }
            runs.push(Run {
                start: run_start,
                end: i,
                rounds_start,
                rounds_end: round_cursor,
                plan,
            });
        }
        let rewrites: Vec<Option<Vec<Operation>>> = runs
            .iter()
            .map(|run| {
                let (movers, machine) = run.plan.as_ref()?;
                let mut router = CommodityRouter::new(spec.topology().adjacency());
                rewrite_run(movers, machine, spec, &mut router)
                    .filter(|n| n.len() <= run.end - run.start)
            })
            .collect();
        let mut lower = LowerState::new(&schedule.initial_mapping, spec, model).unwrap();
        let mut ops: Vec<Operation> = Vec::with_capacity(stream.len());
        let mut replanned_runs = 0usize;
        let mut dropped_hops = 0usize;
        let mut i = 0usize;
        let advance = |lower: &mut LowerState, ops: &[Operation], rounds| {
            lower
                .advance(ops, Some(rounds), circuit, spec, &mut |_| {})
                .unwrap();
        };
        for (run, rewrite) in runs.iter().zip(&rewrites) {
            while i < run.start {
                advance(&mut lower, &stream[i..i + 1], &[]);
                ops.push(stream[i]);
                i += 1;
            }
            let run_ops = &stream[run.start..run.end];
            let run_rounds = &rounds[run.rounds_start..run.rounds_end];
            if let Some(new_ops) = rewrite {
                let mut orig = lower.clone();
                advance(&mut orig, run_ops, run_rounds);
                match score_rewrite(&lower, new_ops, circuit, spec) {
                    Some(new_state) if beats(&new_state, &orig) => {
                        replanned_runs += 1;
                        dropped_hops += run_ops.len() - new_ops.len();
                        lower = new_state;
                        ops.extend_from_slice(new_ops);
                    }
                    _ => {
                        lower = orig;
                        ops.extend_from_slice(run_ops);
                    }
                }
            } else {
                advance(&mut lower, run_ops, run_rounds);
                ops.extend_from_slice(run_ops);
            }
            i = run.end;
        }
        while i < stream.len() {
            advance(&mut lower, &stream[i..i + 1], &[]);
            ops.push(stream[i]);
            i += 1;
        }
        LayerPlanned {
            ops,
            replanned_runs,
            dropped_hops,
        }
    }

    /// A lookahead-packed clock-objective compile of a random circuit on
    /// a linear, ring or grid machine: the input `compile_clock`'s clock
    /// arm hands `plan_layers` (the shuttle objective rarely leaves a
    /// run worth re-planning).
    fn compiled(
        topology: usize,
        seed: u64,
        gates: usize,
    ) -> (Circuit, MachineSpec, qccd_core::CompileResult) {
        use qccd_circuit::generators::random_circuit;
        use qccd_core::{compile, CompilerConfig, Objective, RouterPolicy};
        use qccd_machine::TrapTopology;

        let spec = match topology {
            0 => MachineSpec::linear(4, 6, 2),
            1 => MachineSpec::new(TrapTopology::ring(5), 6, 2),
            _ => MachineSpec::new(TrapTopology::grid(2, 3), 6, 2),
        }
        .unwrap();
        let circuit = random_circuit(14, gates, seed);
        let config = CompilerConfig::optimized()
            .with_router(RouterPolicy::congestion())
            .with_lookahead(true)
            .with_timing(TimingModel::realistic())
            .with_objective(Objective::Clock);
        let result = compile(&circuit, &spec, &config).unwrap();
        (circuit, spec, result)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]
        /// The one-pass planner emits exactly the three-pass oracle's
        /// stream and stats on compiled linear, ring and grid schedules.
        #[test]
        fn one_pass_matches_three_pass_oracle(
            topology in 0usize..3,
            seed in 0u64..1_000_000,
            gates in 60usize..200,
        ) {
            let (circuit, spec, result) = compiled(topology, seed, gates);
            let model = TimingModel::realistic();
            let got = plan_layers(&result.schedule, &result.transport, &circuit, &spec, &model)
                .unwrap();
            let want =
                three_pass_plan_layers(&result.schedule, &result.transport, &circuit, &spec, &model);
            proptest::prop_assert_eq!(&got.ops, &want.ops);
            proptest::prop_assert_eq!(got.replanned_runs, want.replanned_runs);
            proptest::prop_assert_eq!(got.dropped_hops, want.dropped_hops);
        }
    }

    /// The oracle comparison has teeth only if the sampled schedules
    /// actually adopt rewrites.
    #[test]
    fn sampled_schedules_adopt_rewrites_on_every_topology() {
        for topology in 0..3 {
            let adopted: usize = (0..8u64)
                .map(|seed| {
                    let (circuit, spec, result) = compiled(topology, seed, 120);
                    let model = TimingModel::realistic();
                    plan_layers(&result.schedule, &result.transport, &circuit, &spec, &model)
                        .unwrap()
                        .replanned_runs
                })
                .sum();
            assert!(adopted > 0, "topology {topology}: no run re-planned");
        }
    }
}
