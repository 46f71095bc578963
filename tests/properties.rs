//! Property-based tests over the compiler pipeline and its substrates.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::circuit::parser::parse_program;
use muzzle_shuttle::circuit::{Circuit, Opcode, Qubit};
use muzzle_shuttle::compiler::ScheduleAnalysis;
use muzzle_shuttle::compiler::{
    compile, CompilerConfig, DirectionPolicy, IonSelection, MappingPolicy, RebalancePolicy,
    RouterPolicy,
};
use muzzle_shuttle::machine::{InitialMapping, IonId, MachineSpec, MachineState, TrapId};
use muzzle_shuttle::sim::{simulate, SimParams};
use muzzle_shuttle::timing::EventRef;
use proptest::prelude::*;

/// An arbitrary small machine spec that can host `min_ions`.
fn machine_strategy(min_ions: u32) -> impl Strategy<Value = MachineSpec> {
    (2u32..=5, 1u32..=3).prop_map(move |(traps, comm)| {
        // Capacity chosen so traps × (total − comm) ≥ min_ions with slack.
        let per_trap = min_ions.div_ceil(traps) + comm + 1;
        MachineSpec::linear(traps, per_trap + comm, comm).expect("validated by construction")
    })
}

fn config_strategy() -> impl Strategy<Value = CompilerConfig> {
    (
        prop_oneof![
            Just(DirectionPolicy::ExcessCapacity),
            (1u32..=12).prop_map(|p| DirectionPolicy::FutureOps { proximity: p }),
            (1u32..=12).prop_map(|p| DirectionPolicy::FutureOpsGateDistance { proximity: p }),
        ],
        any::<bool>(),
        prop_oneof![
            Just(RebalancePolicy::FromTrapZero),
            Just(RebalancePolicy::NearestNeighbor)
        ],
        prop_oneof![Just(IonSelection::ChainEnd), Just(IonSelection::MaxScore)],
        prop_oneof![
            Just(MappingPolicy::RoundRobin),
            Just(MappingPolicy::GreedyInteraction)
        ],
        prop_oneof![Just(RouterPolicy::Serial), Just(RouterPolicy::congestion())],
    )
        .prop_map(
            |(direction, reorder, rebalance, ion_selection, mapping, router)| CompilerConfig {
                direction,
                reorder,
                rebalance,
                ion_selection,
                mapping,
                router,
                ..CompilerConfig::baseline()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any (circuit, machine, config) triple yields a schedule that passes
    /// full replay validation: every gate once, dependencies respected,
    /// operands co-located, shuttles legal. This subsumes ion conservation
    /// and capacity invariants (the validator replays them).
    #[test]
    fn compiled_schedules_always_validate(
        qubits in 4u32..=16,
        gates in 1usize..=120,
        seed in any::<u64>(),
        config in config_strategy(),
        spec in machine_strategy(16),
    ) {
        let circuit = random_circuit(qubits, gates, seed);
        let result = compile(&circuit, &spec, &config).expect("compile succeeds");
        prop_assert!(result.schedule.validate(&circuit, &spec).is_ok());
        prop_assert_eq!(result.stats.gate_ops, gates);
        prop_assert_eq!(result.schedule.stats().shuttles, result.stats.shuttles);
    }

    /// Simulation of any valid schedule produces bounded outputs.
    #[test]
    fn simulation_outputs_are_bounded(
        qubits in 4u32..=12,
        gates in 1usize..=80,
        seed in any::<u64>(),
        spec in machine_strategy(12),
    ) {
        let circuit = random_circuit(qubits, gates, seed);
        let result = compile(&circuit, &spec, &CompilerConfig::optimized()).expect("compiles");
        let report = simulate(&result.schedule, &circuit, &spec, &SimParams::default())
            .expect("valid schedule simulates");
        prop_assert!(report.program_fidelity >= 0.0 && report.program_fidelity <= 1.0);
        prop_assert!(report.min_gate_fidelity >= 0.0 && report.min_gate_fidelity <= 1.0);
        prop_assert!(report.makespan_us >= 0.0);
        prop_assert!(report.final_mean_motional_mode >= 0.0);
        prop_assert_eq!(report.gates, gates);
    }

    /// The DAG layer structure is a correct topological stratification for
    /// arbitrary circuits.
    #[test]
    fn dag_layers_stratify(
        qubits in 2u32..=10,
        gates in 0usize..=60,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, seed);
        let dag = circuit.dependency_dag();
        for g in circuit.gates() {
            for p in dag.predecessors(g.id) {
                prop_assert!(dag.layer_of(*p) < dag.layer_of(g.id));
            }
        }
        let order = dag.topological_order();
        prop_assert!(dag.is_valid_execution_order(&order));
    }

    /// The compile's own timeline (the trace of its events on the device
    /// clock) agrees with the plain simulation, and its events are
    /// internally consistent.
    #[test]
    fn trace_is_consistent_with_report(
        qubits in 4u32..=10,
        gates in 1usize..=60,
        seed in any::<u64>(),
        spec in machine_strategy(10),
    ) {
        let circuit = random_circuit(qubits, gates, seed);
        let compiled = compile(&circuit, &spec, &CompilerConfig::optimized()).expect("compiles");
        let plain = simulate(&compiled.schedule, &circuit, &spec, &SimParams::default())
            .expect("simulates");
        let timeline = &compiled.timeline;
        prop_assert_eq!(timeline.makespan_us, plain.makespan_us);
        // Every event fits inside the makespan and has non-negative span.
        let (mut gate_events, mut moves) = (0usize, 0usize);
        for event in timeline.iter() {
            prop_assert!(event.start_us() <= event.end_us());
            prop_assert!(event.end_us() <= plain.makespan_us);
            match event {
                EventRef::Gate { .. } => gate_events += 1,
                EventRef::TransportRound { moves: m, .. } => moves += m.len(),
                EventRef::ZoneMove { .. } => {}
            }
        }
        // Event tallies match the schedule stats and the report.
        prop_assert_eq!(gate_events, gates);
        prop_assert_eq!(gate_events, plain.gates);
        prop_assert_eq!(moves, compiled.stats.shuttles);
        prop_assert_eq!(moves, plain.shuttles);
        // No trap is busy longer than the run, so the idle fraction is in
        // [0, 1].
        for busy in timeline.trap_busy_all(spec.num_traps() as usize) {
            prop_assert!((0.0..=plain.makespan_us).contains(&busy));
        }
    }

    /// Schedule analysis tallies are conserved.
    #[test]
    fn analysis_conservation(
        qubits in 4u32..=12,
        gates in 1usize..=80,
        seed in any::<u64>(),
        spec in machine_strategy(12),
    ) {
        let circuit = random_circuit(qubits, gates, seed);
        let compiled = compile(&circuit, &spec, &CompilerConfig::optimized()).expect("compiles");
        let a = ScheduleAnalysis::analyze(&compiled.schedule, spec.num_traps(), qubits);
        prop_assert_eq!(a.shuttles, compiled.stats.shuttles);
        prop_assert_eq!(a.gates, gates);
        // Ion travel sums to shuttle count; trap flow sums to shuttle count.
        prop_assert_eq!(a.ion_travel.iter().sum::<usize>(), a.shuttles);
        let flow_total: usize = a.trap_flow.iter().flatten().sum();
        prop_assert_eq!(flow_total, a.shuttles);
        prop_assert!((0.0..=1.0).contains(&a.stationary_ion_fraction()));
    }

    /// QASM export emits exactly one statement per gate plus the fixed
    /// 3-line header (and a creg when measures are present).
    #[test]
    fn qasm_export_statement_count(
        qubits in 2u32..=10,
        gates in 0usize..=50,
        seed in any::<u64>(),
    ) {
        use muzzle_shuttle::circuit::qasm::to_qasm;
        let circuit = random_circuit(qubits, gates, seed);
        let text = to_qasm(&circuit);
        let statements = text.lines().filter(|l| l.ends_with(';')).count();
        prop_assert_eq!(statements, 3 + gates);
        prop_assert!(text.starts_with("OPENQASM 2.0;"));
    }

    /// Text round-trip: rendering a circuit and parsing it back is the
    /// identity.
    #[test]
    fn program_text_round_trips(
        qubits in 2u32..=12,
        gates in 0usize..=50,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(qubits, gates, seed);
        let text = circuit.to_program_text();
        let parsed = parse_program(&text, qubits).expect("rendered text parses");
        prop_assert_eq!(parsed, circuit);
    }

    /// Machine-state invariants hold under arbitrary legal shuttle
    /// sequences.
    #[test]
    fn machine_invariants_under_random_shuttles(
        hops in proptest::collection::vec((0u32..8, 0u32..4), 0..60),
    ) {
        let spec = MachineSpec::linear(4, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 8).unwrap();
        let mut state = MachineState::with_mapping(&spec, &mapping).unwrap();
        for (ion, trap) in hops {
            // Apply the hop only if legal; illegal hops must error without
            // corrupting state.
            let _ = state.shuttle(IonId(ion), TrapId(trap));
            prop_assert!(state.check_invariants());
        }
        // Ion conservation: all 8 ions still present exactly once.
        let total: u32 = (0..4).map(|t| state.occupancy(TrapId(t))).sum();
        prop_assert_eq!(total, 8);
    }

    /// Excess capacity identity: EC = capacity − occupancy, for every trap,
    /// after any shuttle sequence.
    #[test]
    fn excess_capacity_identity(
        hops in proptest::collection::vec((0u32..6, 0u32..3), 0..40),
    ) {
        let spec = MachineSpec::linear(3, 5, 2).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
        let mut state = MachineState::with_mapping(&spec, &mapping).unwrap();
        for (ion, trap) in hops {
            let _ = state.shuttle(IonId(ion), TrapId(trap));
            for t in 0..3 {
                let trap = TrapId(t);
                prop_assert_eq!(
                    state.excess_capacity(trap),
                    spec.total_capacity() - state.occupancy(trap)
                );
            }
        }
    }

    /// Adding redundant shuttles to a schedule never increases simulated
    /// program fidelity (the Fig. 8 monotonicity the paper relies on).
    #[test]
    fn extra_shuttles_never_help(extra in 1usize..6) {
        use muzzle_shuttle::machine::{Operation, Schedule};
        let mut circuit = Circuit::new(4);
        circuit.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        circuit.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        let spec = MachineSpec::linear(2, 6, 2).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)],
        ).unwrap();
        let lean = Schedule::new(mapping.clone(), vec![
            Operation::Gate { gate: muzzle_shuttle::circuit::GateId(0), trap: TrapId(0) },
            Operation::Gate { gate: muzzle_shuttle::circuit::GateId(1), trap: TrapId(1) },
        ]);
        // Insert ping-pong round trips of ion 0 before the gates.
        let mut ops = Vec::new();
        for _ in 0..extra {
            ops.push(Operation::Shuttle { ion: IonId(0), from: TrapId(0), to: TrapId(1) });
            ops.push(Operation::Shuttle { ion: IonId(0), from: TrapId(1), to: TrapId(0) });
        }
        ops.extend(lean.operations.iter().copied());
        let wasteful = Schedule::new(mapping, ops);
        let params = SimParams::default();
        let lean_f = simulate(&lean, &circuit, &spec, &params).unwrap().program_fidelity;
        let wasteful_f = simulate(&wasteful, &circuit, &spec, &params).unwrap().program_fidelity;
        prop_assert!(wasteful_f <= lean_f);
    }
}
