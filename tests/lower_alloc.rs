//! Allocation counts of the lowering fold, under a counting global
//! allocator:
//!
//! 1. **`lower` is O(log n) in allocations.** Round members go into the
//!    timeline's two flat arrays and the fold reuses its per-round
//!    buffers, so doubling a schedule's round count adds at most a few
//!    regrowths, never one allocation per round.
//! 2. **`DeltaScorer::commit` allocates nothing in steady state.** A
//!    commit advances the fold with a no-op event sink, and the scorer
//!    keeps no operation log (the full re-lower oracle is handed the
//!    committed prefix by its caller).
//!
//! 3. **The serial router's next hop allocates nothing once warm.** The
//!    compile loop asks [`RoutePlanner::next_hop`] for one trap per hop;
//!    it reads the memoized BFS rows, and a blocked tree path runs the
//!    filtered BFS in buffers the planner keeps.
//! 4. **The checked replay allocates nothing per operation.** Beyond the
//!    [`Timeline`] it fills (sized up front here), its allocations are its
//!    setup: the placement, the clocks and the ready set. Doubling the
//!    schedule leaves the count unchanged.
//! 5. **`simulate_timed` allocates only its setup.** It runs the same
//!    checked replay with a physics sink: O(ions + traps + gates) state,
//!    a fixed number of allocations whatever the schedule's length.
//!
//! Counts are per thread, so the harness's other test threads do not
//! leak into a measurement.

use muzzle_shuttle::circuit::{Circuit, GateId, Opcode, Qubit};
use muzzle_shuttle::machine::{
    InitialMapping, IonId, MachineSpec, MachineState, Operation, Schedule, TrapId, TrapTopology,
};
use muzzle_shuttle::route::{RoutePlanner, RouterPolicy, TransportSchedule};
use muzzle_shuttle::sim::{simulate_timed, SimParams};
use muzzle_shuttle::timing::{lower, replay, DeltaScorer, Rounds, Timeline, TimingModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including regrowths) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

fn sh(ion: u32, from: u32, to: u32) -> Operation {
    Operation::Shuttle {
        ion: IonId(ion),
        from: TrapId(from),
        to: TrapId(to),
    }
}

/// L3, ions 0–1 in T0, ion 2 in T1, ion 3 in T2: `periods` repetitions of
/// a gate in T0 followed by a two-move swap of ions 2 and 3 across the
/// T1–T2 segment and back.
fn periodic(periods: usize) -> (Circuit, MachineSpec, Schedule) {
    let mut circuit = Circuit::new(4);
    circuit
        .push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1))
        .unwrap();
    let spec = MachineSpec::linear(3, 4, 1).unwrap();
    let mapping =
        InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(2)])
            .unwrap();
    let gate = Operation::Gate {
        gate: GateId(0),
        trap: TrapId(0),
    };
    let mut ops = Vec::new();
    for _ in 0..periods {
        ops.extend([
            gate,
            sh(2, 1, 2),
            sh(3, 2, 1),
            gate,
            sh(2, 2, 1),
            sh(3, 1, 2),
        ]);
    }
    (circuit, spec, Schedule::new(mapping, ops))
}

/// [`periodic`] as a valid program: every gate op runs its own gate of a
/// chain of `2 × periods` gates on qubits 0 and 1.
fn valid_periodic(periods: usize) -> (Circuit, MachineSpec, Schedule) {
    let (_, spec, mut schedule) = periodic(periods);
    let mut circuit = Circuit::new(4);
    for op in &mut schedule.operations {
        if let Operation::Gate { gate, .. } = op {
            *gate = circuit
                .push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1))
                .unwrap();
        }
    }
    (circuit, spec, schedule)
}

#[test]
fn checked_replay_allocates_nothing_per_operation() {
    let model = TimingModel::realistic();
    let measure = |periods: usize| {
        let (circuit, spec, schedule) = valid_periodic(periods);
        let transport = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        let dag = circuit.dependency_dag();
        let mut timeline = Timeline::for_schedule(&schedule);
        let count = allocations(|| {
            replay(
                &schedule,
                Rounds::Strict(&transport),
                &circuit,
                &dag,
                &spec,
                &model,
                &mut |e| timeline.push(e),
            )
            .unwrap()
        });
        assert_eq!(timeline.events.len(), 6 * periods);
        count
    };
    let (small, large) = (measure(2_000), measure(4_000));
    assert_eq!(
        small, large,
        "doubling the schedule grew the replay's allocations"
    );
}

#[test]
fn simulate_timed_allocates_only_its_setup() {
    let model = TimingModel::realistic();
    let params = SimParams::default();
    let measure = |periods: usize| {
        let (circuit, spec, schedule) = valid_periodic(periods);
        let transport = TransportSchedule::pack_serial(&schedule);
        allocations(|| {
            simulate_timed(&schedule, &transport, &circuit, &spec, &params, &model).unwrap()
        })
    };
    let (small, large) = (measure(2_000), measure(4_000));
    assert_eq!(
        small, large,
        "doubling the schedule grew the simulator's allocations"
    );
}

#[test]
fn doubling_the_rounds_adds_only_logarithmic_allocations_to_lower() {
    let model = TimingModel::realistic();
    let measure = |periods: usize, concurrent: bool| {
        let (circuit, spec, schedule) = periodic(periods);
        let transport = if concurrent {
            TransportSchedule::pack_concurrent(&schedule, &spec).unwrap()
        } else {
            TransportSchedule::pack_serial(&schedule)
        };
        let depth = transport.depth();
        let count =
            allocations(|| lower(&schedule, Some(&transport), &circuit, &spec, &model).unwrap());
        (depth, count)
    };
    for concurrent in [false, true] {
        let (small_depth, small) = measure(2_000, concurrent);
        let (large_depth, large) = measure(4_000, concurrent);
        assert_eq!(large_depth, 2 * small_depth);
        assert!(
            large <= small + 8,
            "doubling {small_depth} rounds grew lower's allocations from {small} to {large}"
        );
    }
}

#[test]
fn delta_scorer_commit_allocates_nothing_in_steady_state() {
    let (circuit, spec, schedule) = periodic(200);
    let mut scorer =
        DeltaScorer::new(&schedule.initial_mapping, &spec, &TimingModel::realistic()).unwrap();
    let (warm, steady) = schedule.operations.split_at(1_000);
    for op in warm {
        scorer.commit(op, &circuit, &spec).unwrap();
    }
    let count = allocations(|| {
        for op in &steady[..24] {
            scorer.commit(op, &circuit, &spec).unwrap();
        }
    });
    assert_eq!(count, 0, "24 steady-state commits allocated {count} times");
}

#[test]
fn warm_next_hop_allocates_nothing_even_around_full_traps() {
    // 4x4 grid, capacity 2, no comm reserve: traps 2 and 5 start full.
    // The memoized tree path 0-1-2-3-7-11-15 crosses full trap 2, so the
    // corner-to-corner hop comes from the filtered BFS (via trap 4).
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 2, 0).unwrap();
    let traps = [2, 2, 5, 5, 0, 15, 9].map(TrapId).to_vec();
    let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
    let state = MachineState::with_mapping(&spec, &mapping).unwrap();
    let mut planner = RoutePlanner::new(spec.topology());
    let serial = RouterPolicy::Serial;
    let queries = [(0, 15), (15, 0), (0, 3), (9, 15), (1, 6), (4, 7), (8, 2)];
    let mut hop = |a: u32, b: u32| planner.next_hop(serial, &state, TrapId(a), TrapId(b));
    assert_eq!(
        hop(0, 15),
        Some(TrapId(4)),
        "blocked tree path: BFS fallback"
    );
    assert_eq!(hop(9, 15), Some(TrapId(10)), "free tree path 9-10-11-15");
    for &(a, b) in &queries {
        hop(a, b);
    }
    let count = allocations(|| {
        for _ in 0..8 {
            for &(a, b) in &queries {
                std::hint::black_box(hop(a, b));
            }
        }
    });
    assert_eq!(count, 0, "56 warm next_hop calls allocated {count} times");
}
