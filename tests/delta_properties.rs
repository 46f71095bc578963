//! Property tests for the delta scorer ([`DeltaScorer`]): random circuits
//! × {linear, ring, grid} topologies × {ideal, realistic} timing.
//!
//! Invariants checked on every sampled instance:
//!
//! 1. **Delta == oracle at every decision point** — replaying the
//!    optimized compiler's own committed schedule through a
//!    [`DeltaScorer`], every sampled candidate suffix (legal and illegal)
//!    prices *bit-for-bit* identically on the O(delta) path, on the
//!    O(suffix) clone-and-re-lower oracle ([`LowerState::score_ops`] on
//!    the committed fold) and on the full re-lower oracle
//!    ([`DeltaScorer::score_ops_full`], handed the committed prefix).
//! 2. **apply+undo is traceless** — scoring a candidate twice returns the
//!    identical projection, and the committed fold's makespan never moves
//!    under speculation; after the full replay the fold equals a fresh
//!    transport-less [`lower`] of the whole schedule.
//! 3. **Mode equivalence end to end** — a clock-objective compile under
//!    `ScoreMode::Delta` produces the *same schedule, stats and
//!    threaded fold* as one under `ScoreMode::Full`.
//!
//! [`DeltaScorer`]: muzzle_shuttle::timing::DeltaScorer
//! [`DeltaScorer::score_ops_full`]: muzzle_shuttle::timing::DeltaScorer::score_ops_full
//! [`LowerState::score_ops`]: muzzle_shuttle::timing::LowerState::score_ops
//! [`lower`]: muzzle_shuttle::timing::lower

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig, Objective, ScoreMode};
use muzzle_shuttle::machine::{IonId, MachineSpec, Operation, TrapTopology};
use muzzle_shuttle::timing::{lower, DeltaScorer, TimingModel};
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

fn spec_for(topology: TrapTopology, qubits: u32) -> MachineSpec {
    let traps = topology.num_traps();
    let comm = 2u32;
    let per_trap = qubits.div_ceil(traps) + 1;
    MachineSpec::new(topology, per_trap + comm, comm).expect("constructed spec is valid")
}

/// Candidate suffixes sampled from the live machine state: for a few
/// ions, every single-hop walk out of their current trap plus every
/// two-hop extension — a mix of legal walks, full-destination walks and
/// bounce-backs (two-hop extensions returning to the source trap price
/// `None` on both paths).
fn sample_candidates(scorer: &DeltaScorer, seed: u64) -> Vec<Vec<Operation>> {
    let machine = scorer.state().placement();
    let topology = machine.spec().topology().clone();
    let num_ions = machine.num_ions();
    let mut candidates: Vec<Vec<Operation>> = vec![vec![]];
    for k in 0..3u32.min(num_ions) {
        let ion = IonId((seed as u32).wrapping_add(k.wrapping_mul(7)) % num_ions);
        let at = machine.trap_of(ion);
        for mid in topology.neighbors(at) {
            candidates.push(vec![Operation::Shuttle {
                ion,
                from: at,
                to: mid,
            }]);
            for far in topology.neighbors(mid) {
                candidates.push(vec![
                    Operation::Shuttle {
                        ion,
                        from: at,
                        to: mid,
                    },
                    Operation::Shuttle {
                        ion,
                        from: mid,
                        to: far,
                    },
                ]);
            }
        }
    }
    candidates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_equals_oracle_at_every_decision_point(
        topology in topology_strategy(),
        qubits in 4u32..=10,
        gates in 1usize..=40,
        seed in any::<u64>(),
        realistic in any::<bool>(),
    ) {
        let spec = spec_for(topology, qubits);
        let circuit = random_circuit(qubits, gates, seed);
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };
        // A realistic stream of decision points: the optimized compiler's
        // own committed operations, replayed one at a time.
        let result = compile(
            &circuit,
            &spec,
            &CompilerConfig::optimized().with_timing(model),
        )
        .expect("random circuits fit the constructed machine");
        let mut scorer = DeltaScorer::new(&result.schedule.initial_mapping, &spec, &model)
            .expect("initial mappings lower");
        let ops_all = &result.schedule.operations;
        for (i, op) in ops_all.iter().enumerate() {
            let candidates = sample_candidates(&scorer, seed);
            let before = scorer.makespan_us();
            for ops in &candidates {
                // (1) Bit-for-bit oracle parity at this decision point.
                let oracle = scorer.state().score_ops(ops, &circuit, &spec);
                let first = scorer.score_ops(ops, &circuit, &spec);
                prop_assert_eq!(
                    first.map(f64::to_bits),
                    oracle.map(f64::to_bits),
                    "candidate {:?} diverged from the oracle",
                    ops
                );
                let full = scorer.score_ops_full(&ops_all[..i], ops, &circuit, &spec);
                prop_assert_eq!(
                    full.map(f64::to_bits),
                    oracle.map(f64::to_bits),
                    "candidate {:?} diverged on the full re-lower",
                    ops
                );
                // (2) apply+undo is traceless: identical re-score,
                // untouched committed fold.
                let second = scorer.score_ops(ops, &circuit, &spec);
                prop_assert_eq!(first.map(f64::to_bits), second.map(f64::to_bits));
                prop_assert_eq!(scorer.makespan_us().to_bits(), before.to_bits());
            }
            scorer
                .commit(op, &circuit, &spec)
                .expect("committed schedules replay through the fold");
        }
        // The replayed fold is exactly a fresh transport-less lower of
        // the whole schedule.
        let fresh = lower(&result.schedule, None, &circuit, &spec, &model)
            .expect("committed schedules lower");
        prop_assert_eq!(scorer.makespan_us().to_bits(), fresh.makespan_us.to_bits());
    }

    #[test]
    fn clock_compiles_identically_under_both_score_modes(
        topology in topology_strategy(),
        qubits in 4u32..=10,
        gates in 1usize..=50,
        seed in any::<u64>(),
        realistic in any::<bool>(),
    ) {
        let spec = spec_for(topology, qubits);
        let circuit = random_circuit(qubits, gates, seed);
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };
        let base = CompilerConfig::optimized()
            .with_timing(model)
            .with_objective(Objective::Clock);
        let delta = compile(&circuit, &spec, &base.with_score_mode(ScoreMode::Delta))
            .expect("clock compiles under the delta scorer");
        let full = compile(&circuit, &spec, &base.with_score_mode(ScoreMode::Full))
            .expect("clock compiles under the full oracle");
        // (3) Same operations, same stats (including ties broken and
        // candidates priced), same threaded fold — the modes are
        // interchangeable everywhere, not just on the paper suite.
        prop_assert_eq!(&delta.schedule, &full.schedule);
        prop_assert_eq!(delta.stats, full.stats);
        prop_assert_eq!(
            delta.clock_serial_makespan_us.map(f64::to_bits),
            full.clock_serial_makespan_us.map(f64::to_bits)
        );
    }
}
