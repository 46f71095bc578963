//! Micro-benchmarks of the substrates: DAG construction, flow routing,
//! memoized topology paths and per-hop route queries, round backfill, and
//! the replay passes every compile runs (schedule validation, transport
//! validation, lowering).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd_circuit::generators::{qft, random_circuit};
use qccd_core::{compile, CompilerConfig};
use qccd_flow::{
    min_cost_max_flow, min_cost_unit_path, route_commodities, Adjacency, Commodity, FlowNetwork,
};
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
    c.bench_function("mcmf_line_16", |b| {
        b.iter(|| {
            let n = 16usize;
            let mut net = FlowNetwork::new(n + 1);
            for i in 0..n - 1 {
                net.add_edge(i, i + 1, 2, 1);
                net.add_edge(i + 1, i, 2, 1);
            }
            net.add_edge(n, 12, 1, 0);
            min_cost_max_flow(black_box(&mut net), n, 0)
        })
    });
    // The congestion planner's shape: a node-split 4x4 grid (in/out halves
    // per trap), segment costs one scaled hop plus a load surcharge, one
    // unit from a corner trap to the opposite one. Built once and
    // re-priced in place per call, as the planner does.
    let grid = Adjacency::grid(4, 4);
    let n = grid.len();
    let hop_scale = (n as i64 + 1) * 16;
    let mut net = FlowNetwork::new(2 * n + 1);
    let mut priced = Vec::new();
    for a in 0..n {
        priced.push((net.add_edge(2 * a, 2 * a + 1, 1, 0), 0));
        for &nb in grid.neighbors(a) {
            let cost = hop_scale + ((a + nb) % 3) as i64;
            priced.push((net.add_edge(2 * a + 1, 2 * nb, 1, cost), cost));
        }
    }
    let entry = net.add_edge(2 * n, 0, 1, 0);
    c.bench_function("unit_path_grid4x4", |b| {
        b.iter(|| {
            for &(id, cost) in &priced {
                net.set_edge(id, 1, cost);
            }
            net.set_edge(entry, 1, 0);
            min_cost_unit_path(black_box(&mut net), 2 * n, 2 * (n - 1) + 1)
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
        b.iter(|| route_commodities(black_box(&grid), &demands, |a, b| 2 + ((a + b) % 3) as i64))
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
            black_box(bf.rounds().count())
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
