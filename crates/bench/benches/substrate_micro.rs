//! Micro-benchmarks of the substrates: DAG construction, flow routing,
//! the split-graph search, memoized topology paths and per-hop route
//! queries (serial and congestion), round backfill, and
//! the replay passes every compile runs (schedule validation, transport
//! validation, lowering).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd_circuit::generators::{qft, random_circuit};
use qccd_core::{compile, CompilerConfig};
use qccd_flow::{Adjacency, Commodity, CommodityRouter, SplitCosts, SplitSearch, SplitSink};
use qccd_machine::{
    InitialMapping, MachineSpec, MachineState, Operation, ShuttleMove, TrapId, TrapTopology,
};
use qccd_route::{BackfillRules, CreditRule, RoundBackfill, RoutePlanner, RouterPolicy};
use std::hint::black_box;

fn bench_dag_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_build");
    for gates in [1000usize, 4000] {
        let circuit = random_circuit(64, gates, 2);
        group.bench_with_input(BenchmarkId::new("random", gates), &circuit, |b, circuit| {
            b.iter(|| black_box(circuit).dependency_dag())
        });
    }
    let qft_circuit = qft(64);
    group.bench_function("qft64", |b| {
        b.iter(|| black_box(&qft_circuit).dependency_dag())
    });
    group.finish();
}

fn bench_flow(c: &mut Criterion) {
    // The congestion planner's shape: a node-split 4x4 grid (in/out halves
    // per trap), segment costs one scaled hop plus a load surcharge, one
    // unit from a corner trap to the opposite one. Segments are priced as
    // the search relaxes them, as the planner does.
    struct Priced {
        costs: Vec<i64>,
    }
    impl SplitCosts for Priced {
        fn internal(&self, _trap: usize) -> i64 {
            0
        }
        fn segment(&self, k: usize) -> Option<i64> {
            Some(self.costs[k])
        }
    }
    let grid = Adjacency::grid(4, 4);
    let n = grid.len();
    let hop_scale = (n as i64 + 1) * 16;
    let mut search = SplitSearch::new(&grid);
    let priced = Priced {
        costs: (0..n)
            .flat_map(|a| grid.neighbors(a).iter().map(move |&nb| (a, nb)))
            .map(|(a, nb)| hop_scale + ((a + nb) % 3) as i64)
            .collect(),
    };
    c.bench_function("split_search_grid4x4", |b| {
        b.iter(|| {
            black_box(&mut search).search(0, SplitSink::Trap(n - 1), &priced);
            search.first_hop()
        })
    });
    // A batched layer at the compiler's batch limit: 8 commodities.
    let demands: Vec<Commodity> = [
        (0, 15),
        (3, 12),
        (1, 14),
        (4, 11),
        (2, 8),
        (7, 13),
        (5, 10),
        (6, 9),
    ]
    .map(|(source, sink)| Commodity { source, sink })
    .to_vec();
    c.bench_function("route_commodities_grid4x4_x8", |b| {
        b.iter(|| {
            CommodityRouter::new(black_box(&grid)).route(&demands, |a, b| 2 + ((a + b) % 3) as i64)
        })
    });
    let line = Adjacency::line(64);
    c.bench_function("bfs_line_64", |b| {
        b.iter(|| black_box(&line).shortest_path(0, 63))
    });
    // Corner to corner on the 4x4 grid. The memoized tree path is
    // 0-1-2-3-7-11-15: blocking trap 5 leaves it usable, blocking trap 2
    // forces the filtered BFS fallback.
    let mut group = c.benchmark_group("shortest_path_filtered_grid4x4");
    group.bench_function("tree_path", |b| {
        b.iter(|| black_box(&grid).shortest_path_filtered(0, 15, |t| t != 5))
    });
    group.bench_function("blocked_fallback", |b| {
        b.iter(|| black_box(&grid).shortest_path_filtered(0, 15, |t| t != 2))
    });
    group.finish();
    // The compile loop's per-hop query on the same corner-to-corner pair:
    // the serial router's first hop, built from no path. Capacity 2 with
    // no comm reserve makes the seeded traps full: trap 5 leaves the tree
    // path usable, trap 2 forces the filtered BFS in the planner's buffers.
    let mut group = c.benchmark_group("next_hop_grid4x4");
    for (name, full) in [("tree_path", 5u32), ("blocked_fallback", 2)] {
        let spec = MachineSpec::new(TrapTopology::grid(4, 4), 2, 0).expect("valid grid");
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(full), TrapId(full)])
            .expect("two ions fit one trap");
        let state = MachineState::with_mapping(&spec, &mapping).expect("mapping fits");
        let mut planner = RoutePlanner::new(spec.topology());
        group.bench_function(name, |b| {
            b.iter(|| {
                planner.next_hop(
                    RouterPolicy::Serial,
                    black_box(&state),
                    TrapId(0),
                    TrapId(15),
                )
            })
        });
    }
    group.finish();
    // The congestion router's per-hop query against machine size, on an
    // empty machine: an adjacent pair and corner to corner. The search
    // stops once the sink's label is final, so the adjacent pair costs
    // the same on both grids.
    let mut group = c.benchmark_group("next_hop_congestion");
    for side in [4u32, 32] {
        let spec = MachineSpec::new(TrapTopology::grid(side, side), 2, 0).expect("valid grid");
        let mapping = InitialMapping::from_traps(&spec, Vec::new()).expect("no ions fit");
        let state = MachineState::with_mapping(&spec, &mapping).expect("mapping fits");
        let mut planner = RoutePlanner::new(spec.topology());
        let corner = TrapId(side * side - 1);
        for (pair, dest) in [("adjacent", TrapId(1)), ("corner", corner)] {
            group.bench_function(&format!("grid{side}x{side}/{pair}"), |b| {
                b.iter(|| {
                    planner.next_hop(
                        RouterPolicy::congestion(),
                        black_box(&state),
                        TrapId(0),
                        dest,
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_backfill(c: &mut Criterion) {
    // The cross-gate packer's backfill over a compiled 4x4-grid schedule:
    // every hop first-fit placed (no-credit capacity, window 96), every
    // gate fencing its trap.
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).expect("valid grid");
    let circuit = random_circuit(120, 2000, 1);
    let compiled = compile(&circuit, &spec, &CompilerConfig::optimized()).expect("compiles");
    let schedule = &compiled.schedule;
    let num_traps = spec.num_traps() as usize;
    let mut occ0 = vec![0u32; num_traps];
    for t in schedule.initial_mapping.as_slice() {
        occ0[t.index()] += 1;
    }
    let rules = BackfillRules {
        credit: CreditRule::NoCredit,
        share_only: false,
        window: 96,
    };
    c.bench_function("backfill_place_grid4x4", |b| {
        b.iter(|| {
            let mut bf = RoundBackfill::new(num_traps, 12, occ0.clone(), rules);
            for op in &schedule.operations {
                match *op {
                    Operation::Gate { trap, .. } => bf.note_gate(trap),
                    Operation::Shuttle { ion, from, to } => {
                        bf.place(ShuttleMove { ion, from, to });
                    }
                }
            }
            black_box(bf.num_rounds())
        })
    });
}

fn bench_schedule_validation(c: &mut Criterion) {
    // The replay passes of one paper-scale compile: a 1438-gate random
    // circuit (the paper's mean size) on L6.
    let spec = MachineSpec::paper_l6();
    let circuit = random_circuit(64, 1438, 5);
    let compiled = compile(&circuit, &spec, &CompilerConfig::optimized()).expect("compiles");
    c.bench_function("validate_random_1438", |b| {
        b.iter(|| {
            black_box(&compiled.schedule)
                .validate(&circuit, &spec)
                .expect("valid")
        })
    });
    c.bench_function("transport_validate_random_1438", |b| {
        b.iter(|| {
            black_box(&compiled.transport)
                .validate(&compiled.schedule, &spec)
                .expect("valid")
        })
    });
    c.bench_function("lower_random_1438", |b| {
        b.iter(|| {
            qccd_timing::lower(
                black_box(&compiled.schedule),
                Some(&compiled.transport),
                &circuit,
                &spec,
                &compiled.timing,
            )
            .expect("lowers")
        })
    });
}

criterion_group!(
    benches,
    bench_dag_build,
    bench_flow,
    bench_backfill,
    bench_schedule_validation
);
criterion_main!(benches);
