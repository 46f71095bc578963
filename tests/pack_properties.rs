//! Property tests for the `qccd-pack` transport optimizer: random circuits
//! × {linear, ring, grid} topologies × all routers.
//!
//! Invariants checked on every sampled instance:
//!
//! 1. **Replay equivalence** — the packed schedule runs the same gates in
//!    the same traps, passes the strict schedule validator, and replays to
//!    the *identical final ion mapping* as the compiled schedule
//!    ([`validate_equivalent`]).
//! 2. **Transport validity** — the packed rounds strict-validate against
//!    the packed flat schedule, and the packed timeline has no trap or
//!    segment resource overlaps.
//! 3. **Never regress** — the packed timed makespan is ≤ the input's under
//!    the scoring model, and the packed shuttle count never grows.
//! 4. **Incremental re-lowering** — splitting a schedule at any gate/run
//!    boundary and advancing a checkpointed [`LowerState`] through the two
//!    chunks produces a timeline *bit-for-bit equal* to one whole-schedule
//!    `lower` call, including after the suffix's transport is perturbed
//!    (repacked serially) — the foundation the packer's O(suffix) candidate
//!    scoring rests on.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig, RouterPolicy};
use muzzle_shuttle::machine::{MachineSpec, Operation, TrapTopology};
use muzzle_shuttle::pack::{pack, validate_equivalent, PackConfig};
use muzzle_shuttle::route::TransportSchedule;
use muzzle_shuttle::timing::{lower, LowerState, Timeline, TimingModel};
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

/// The three router stacks: serial, congestion, congestion + lookahead.
fn router_stack(selector: usize) -> (RouterPolicy, bool) {
    match selector % 3 {
        0 => (RouterPolicy::Serial, false),
        1 => (RouterPolicy::congestion(), false),
        _ => (RouterPolicy::congestion(), true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_schedules_replay_to_identical_final_mappings(
        topology in topology_strategy(),
        qubits in 4u32..=12,
        gates in 1usize..=60,
        seed in any::<u64>(),
        router_sel in 0usize..3,
        realistic in any::<bool>(),
    ) {
        let (router, lookahead) = router_stack(router_sel);
        let traps = topology.num_traps();
        let comm = 2u32;
        let per_trap = qubits.div_ceil(traps) + 1;
        let spec = MachineSpec::new(topology, per_trap + comm, comm)
            .expect("constructed spec is valid");
        let circuit = random_circuit(qubits, gates, seed);
        let config = CompilerConfig::optimized()
            .with_router(router)
            .with_lookahead(lookahead);
        let result = compile(&circuit, &spec, &config).expect("benchmark fits machine");
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };
        let packed = pack(&result, &circuit, &spec, &PackConfig::for_model(model))
            .expect("packing validates on compiled schedules");

        // (1) replay equivalence: same gates, same traps, same final mapping.
        validate_equivalent(&result.schedule, &packed.schedule, &circuit, &spec)
            .expect("packed schedule must be replay-equivalent");
        // (2) transport + timeline validity.
        packed
            .transport
            .validate(&packed.schedule, &spec)
            .expect("packed rounds must strict-validate");
        packed.timeline.validate().expect("packed timeline must validate");
        // (3) never regress: clock and shuttle count.
        prop_assert!(packed.stats.packed_makespan_us <= packed.stats.input_makespan_us);
        prop_assert!(
            packed.schedule.stats().shuttles <= result.schedule.stats().shuttles
        );
        prop_assert_eq!(packed.timeline.makespan_us, packed.stats.packed_makespan_us);
    }

    #[test]
    fn incremental_relowering_equals_full_lower_bit_for_bit(
        topology in topology_strategy(),
        qubits in 4u32..=10,
        gates in 1usize..=50,
        seed in any::<u64>(),
        split_sel in any::<u64>(),
        realistic in any::<bool>(),
    ) {
        let traps = topology.num_traps();
        let comm = 2u32;
        let per_trap = qubits.div_ceil(traps) + 1;
        let spec = MachineSpec::new(topology, per_trap + comm, comm)
            .expect("constructed spec is valid");
        let circuit = random_circuit(qubits, gates, seed);
        let config = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
        let result = compile(&circuit, &spec, &config).expect("benchmark fits machine");
        let schedule = &result.schedule;
        let model = if realistic {
            TimingModel::realistic()
        } else {
            TimingModel::ideal()
        };

        // Candidate split points: positions where neither a transport
        // round nor a gate-free run is cut (gate boundaries and run
        // starts). Index 0 and len are always legal.
        let ops = &schedule.operations;
        let mut boundaries: Vec<usize> = vec![0, ops.len()];
        for (i, op) in ops.iter().enumerate() {
            if matches!(op, Operation::Gate { .. }) {
                boundaries.push(i);
                boundaries.push(i + 1);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        let split = boundaries[(split_sel as usize) % boundaries.len()];

        // The perturbation: the suffix's transport is *repacked* serially
        // (one hop per round) — a different round structure over the same
        // hops, exactly the kind of candidate the packer scores.
        let prefix_sched = muzzle_shuttle::machine::Schedule::new(
            schedule.initial_mapping.clone(),
            ops[..split].to_vec(),
        );
        let prefix_rounds = {
            // Consume the compiled rounds covering the prefix's shuttles.
            let prefix_shuttles = prefix_sched.stats().shuttles;
            let mut covered = 0usize;
            let mut k = 0usize;
            while covered < prefix_shuttles {
                covered += result.transport.rounds[k].moves.len();
                k += 1;
            }
            // A split at a gate boundary never cuts a round.
            prop_assert_eq!(covered, prefix_shuttles);
            &result.transport.rounds[..k]
        };
        let suffix_serial = TransportSchedule::pack_serial(
            &muzzle_shuttle::machine::Schedule::new(
                schedule.initial_mapping.clone(),
                ops[split..].to_vec(),
            ),
        );

        // Stitched full lowering: prefix rounds + serial suffix rounds.
        let mut stitched_rounds = prefix_rounds.to_vec();
        stitched_rounds.extend(suffix_serial.rounds.iter().cloned());
        let full = lower(
            schedule,
            Some(&TransportSchedule { rounds: stitched_rounds.clone() }),
            &circuit,
            &spec,
            &model,
        )
        .expect("stitched schedule lowers");

        // Incremental: advance to the split, checkpoint, advance the
        // perturbed suffix from the clone.
        let mut state = LowerState::new(&schedule.initial_mapping, &spec, &model)
            .expect("valid model");
        let mut events = Timeline::default();
        state
            .advance(&ops[..split], Some(prefix_rounds), &circuit, &spec, &mut |e| {
                events.push(e)
            })
            .expect("prefix advances");
        let checkpoint = state.clone();
        let mut resumed = checkpoint.clone();
        resumed
            .advance(
                &ops[split..],
                Some(&suffix_serial.rounds),
                &circuit,
                &spec,
                &mut |e| events.push(e),
            )
            .expect("suffix advances");
        let incremental = resumed.finish(events);

        prop_assert_eq!(incremental, full, "incremental must equal full lower bit-for-bit");
    }
}
