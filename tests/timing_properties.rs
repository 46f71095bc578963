//! Property tests for the timing subsystem: random circuits × {linear,
//! ring, grid} topologies × both routers, lowered onto timed event
//! timelines.
//!
//! Invariants checked on every sampled instance:
//!
//! 1. **Timeline validity** — no two events overlap on any trap or any
//!    shuttle-path segment resource, under both the ideal and realistic
//!    timing models ([`Timeline::validate`]).
//! 2. **Ideal parity** — the ideal timeline's makespan equals the
//!    simulator's `makespan_us` *exactly* (the simulator consumes the same
//!    timeline; the equality is bit-for-bit, not approximate), and matches
//!    the compile-time timeline attached to the `CompileResult`.
//! 3. **Realistic monotonicity** — the realistic makespan never decreases
//!    when any duration constant grows, and never increases when the
//!    transport speed grows.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig, RouterPolicy};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::sim::{simulate_timed, SimParams};
use muzzle_shuttle::timing::{lower, TimingModel};
use proptest::prelude::*;

fn topology_strategy() -> impl Strategy<Value = TrapTopology> {
    prop_oneof![
        (2u32..=6).prop_map(TrapTopology::linear),
        (3u32..=8).prop_map(TrapTopology::ring),
        prop_oneof![
            Just(TrapTopology::grid(2, 2)),
            Just(TrapTopology::grid(2, 3)),
            Just(TrapTopology::grid(3, 3)),
        ],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn timelines_validate_and_ideal_matches_simulator(
        topology in topology_strategy(),
        qubits in 4u32..=12,
        gates in 1usize..=60,
        seed in any::<u64>(),
        congestion in any::<bool>(),
    ) {
        let traps = topology.num_traps();
        let comm = 2u32;
        let per_trap = qubits.div_ceil(traps) + 1;
        let spec = MachineSpec::new(topology, per_trap + comm, comm)
            .expect("constructed spec is valid");
        let circuit = random_circuit(qubits, gates, seed);
        let router = if congestion {
            RouterPolicy::congestion()
        } else {
            RouterPolicy::Serial
        };
        let config = CompilerConfig::optimized().with_router(router);
        let result = compile(&circuit, &spec, &config).expect("benchmark fits machine");

        // 1. Timeline validity under both models: no trap or segment is
        //    ever double-booked.
        let ideal = lower(
            &result.schedule,
            Some(&result.transport),
            &circuit,
            &spec,
            &TimingModel::ideal(),
        )
        .expect("compiled schedules lower");
        prop_assert!(ideal.validate().is_ok());
        let realistic = lower(
            &result.schedule,
            Some(&result.transport),
            &circuit,
            &spec,
            &TimingModel::realistic(),
        )
        .expect("compiled schedules lower");
        prop_assert!(realistic.validate().is_ok());

        // 2. Ideal parity: timeline makespan == simulator makespan,
        //    bit-for-bit, and == the compile-time timeline.
        let params = SimParams::default();
        let report = simulate_timed(
            &result.schedule,
            &result.transport,
            &circuit,
            &spec,
            &params,
            &TimingModel::ideal(),
        )
        .expect("compiled schedules simulate");
        prop_assert_eq!(ideal.makespan_us, report.makespan_us);
        prop_assert_eq!(ideal.makespan_us, report.timed_makespan_us);
        prop_assert_eq!(ideal.makespan_us, result.timeline.makespan_us);
        prop_assert_eq!(ideal.shuttles, report.shuttles);
        prop_assert_eq!(ideal.shuttle_depth, report.shuttle_depth);

        // 3. Realistic makespan is monotone in every duration constant
        //    (never decreases when an operation slows down), and antitone
        //    in the transport speed.
        let base = TimingModel::realistic();
        let base_makespan = realistic.makespan_us;
        let makespan_with = |model: &TimingModel| {
            lower(
                &result.schedule,
                Some(&result.transport),
                &circuit,
                &spec,
                model,
            )
            .expect("compiled schedules lower")
            .makespan_us
        };
        for bump in [
            |m: &mut TimingModel| m.one_qubit_gate_us *= 1.5,
            |m: &mut TimingModel| m.two_qubit_gate_base_us *= 1.5,
            |m: &mut TimingModel| m.gate_chain_slowdown *= 1.5,
            |m: &mut TimingModel| m.split_us *= 1.5,
            |m: &mut TimingModel| m.merge_us *= 1.5,
            |m: &mut TimingModel| m.segment_um *= 1.5,
            |m: &mut TimingModel| m.junction_cross_us *= 1.5,
            |m: &mut TimingModel| m.zone_move_us *= 1.5,
        ] {
            let mut model = base;
            bump(&mut model);
            prop_assert!(
                makespan_with(&model) >= base_makespan,
                "slowing an operation must not shrink the makespan"
            );
        }
        let mut faster = base;
        faster.speed_um_per_us *= 2.0;
        prop_assert!(
            makespan_with(&faster) <= base_makespan,
            "faster transport must not stretch the makespan"
        );
    }
}

/// Junction sensitivity, deterministically: the same compiled schedule
/// costs strictly more under the realistic model on a grid (which has
/// T-/X-junctions) than the ideal model says, and the realistic makespan
/// differs from ideal on ring and linear topologies too (finite segment
/// speed).
#[test]
fn realistic_model_is_junction_sensitive_on_grid_and_ring() {
    let params = SimParams::default();
    for topology in [
        TrapTopology::grid(2, 3),
        TrapTopology::ring(6),
        TrapTopology::linear(3),
    ] {
        let junctions_exist = (0..topology.num_traps())
            .any(|t| topology.is_junction(muzzle_shuttle::machine::TrapId(t)));
        let spec = MachineSpec::new(topology, 8, 2).expect("valid spec");
        let circuit = random_circuit(16, 120, 7);
        let result = compile(
            &circuit,
            &spec,
            &CompilerConfig::optimized().with_router(RouterPolicy::congestion()),
        )
        .expect("fits");
        let run = |model: &TimingModel| {
            simulate_timed(
                &result.schedule,
                &result.transport,
                &circuit,
                &spec,
                &params,
                model,
            )
            .expect("simulates")
        };
        let ideal = run(&TimingModel::ideal());
        let realistic = run(&TimingModel::realistic());
        assert!(
            realistic.timed_makespan_us > ideal.timed_makespan_us,
            "realistic must strictly differ on {spec}"
        );
        if junctions_exist {
            assert!(
                realistic.junction_crossings > 0,
                "grid transport must cross junctions on {spec}"
            );
            // Junction corners specifically (not just slower segments):
            // zeroing the corner cost must strictly shrink the makespan.
            let mut cornerless = TimingModel::realistic();
            cornerless.junction_cross_us = 0.0;
            assert!(
                run(&cornerless).timed_makespan_us < realistic.timed_makespan_us,
                "junction corner time must be on the critical path of {spec}"
            );
        }
    }
}
