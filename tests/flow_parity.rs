//! Parity pins for every min-cost-flow caller. The values were recorded
//! from the compiler whose flow layer rebuilt a network per commodity and
//! read paths back out of the flow assignment; the one-unit path
//! primitive must reproduce them bit for bit:
//!
//! * the clock pipeline on a 4×4 grid — priced routes, priced evictions
//!   and batched multi-commodity layers, plus the flow work counters
//!   (which count only the batches the exact capacity check lets
//!   through);
//! * a congestion-router compile on the paper's L6 machine — priced
//!   routes and evictions under the shuttle objective;
//! * the baseline compiler (`FromTrapZero` re-balancing) on L6 — the
//!   MCMF eviction route of §III-C1, now found by the neighbour-order BFS
//!   that unit-cost flow reduces to, so it no longer counts flow solves.
//!
//! The serial loop off L6 is pinned too: the optimized and the baseline
//! compiler under the shuttle objective on a 4×4 grid, a 16-trap ring and
//! a 16-trap line — the ops digest, shuttles, transport depth, makespan
//! bits and the scans' reach (`core.scan_entries`). These were recorded
//! from the compiler whose drain and window scans walked the pending
//! queue slot by slot and whose hops built a whole route each.
//!
//! Two `pack` pins (recorded from the packer whose backfill kept one
//! snapshot `Vec` per round and whose layer pass cloned the machine at
//! every gate-free run) cover the transport back end the same way: the
//! adopted schedule and rounds as digests, the full `PackStats` and the
//! makespan bits, on a 4×4 grid (cross-gate backfill wins) and on a ring
//! (layer-planned rewrites win).

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompileResult, CompilerConfig, Objective};
use muzzle_shuttle::machine::{MachineSpec, Operation, TrapTopology};
use muzzle_shuttle::obs;
use muzzle_shuttle::pack::{compile_clock, pack, ClockStats, PackConfig, PackStats};
use muzzle_shuttle::route::{RouterPolicy, TransportSchedule};
use muzzle_shuttle::timing::TimingModel;
use std::sync::Mutex;

/// Telemetry counters are process-global: tests in this binary compile
/// one at a time so the counter pins see only their own compile (the
/// pack pins read no counters but would leak into the others').
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with telemetry on and returns its value with the flow work
/// counters: solves, augmenting paths, commodities, fallbacks.
fn with_flow_counters<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    obs::reset();
    obs::enable();
    let value = f();
    obs::disable();
    let counters = [
        "flow.solves",
        "flow.augmenting_paths",
        "flow.commodities_routed",
        "flow.commodity_fallbacks",
    ]
    .map(obs::counter_value);
    (value, counters)
}

/// Shuttles, transport depth and timed-makespan bits of one result.
fn quality(result: &CompileResult) -> (usize, usize, u64) {
    (
        result.stats.shuttles,
        result.transport.depth(),
        result.timeline.makespan_us.to_bits(),
    )
}

#[test]
fn clock_pipeline_on_grid_matches_recorded_flow_routes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).unwrap();
    let config = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_objective(Objective::Clock)
        .with_jobs(2);
    let circuit = random_circuit(120, 2000, 1);
    let ((result, stats), counters) =
        with_flow_counters(|| compile_clock(&circuit, &spec, &config).unwrap());
    assert_eq!(quality(&result), (4483, 1729, 4696141619680772096));
    assert_eq!(
        stats,
        ClockStats {
            packed_makespan_us: f64::from_bits(4697303262305452032),
            clock_makespan_us: f64::from_bits(4696141619680772096),
            chosen_makespan_us: f64::from_bits(4696141619680772096),
            clock_ties: 106,
            batched_layers: 140,
            batched_hops: 2591,
            improved: true,
        }
    );
    // Batched layers that can never commit skip their flow solve.
    assert_eq!(counters, [9882, 8975, 3106, 907]);
    // The scan, batching, scoring and backfill work of the same compile:
    // the paper rows see a few hundred batch rejects at most, this grid
    // pass sees thousands.
    let work = [
        "core.scan_entries",
        "core.batch_capacity_rejects",
        "core.candidates_scored",
        "route.backfill_attempts",
    ]
    .map(obs::counter_value);
    assert_eq!(work, [375420, 585, 539, 36188]);
}

#[test]
fn congestion_router_on_l6_matches_recorded_flow_routes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
    let circuit = random_circuit(60, 1438, 7);
    let (result, counters) =
        with_flow_counters(|| compile(&circuit, &MachineSpec::paper_l6(), &config).unwrap());
    assert_eq!(quality(&result), (2060, 2019, 4691032171966627840));
    assert_eq!(result.stats.rebalances, 88);
    assert_eq!(counters, [1931, 1931, 0, 0]);
}

#[test]
fn baseline_mcmf_evictions_on_l6_match_recorded_routes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = CompilerConfig::baseline();
    let circuit = random_circuit(90, 1438, 7);
    let (result, counters) =
        with_flow_counters(|| compile(&circuit, &MachineSpec::paper_l6(), &config).unwrap());
    assert_eq!(quality(&result), (2777, 2777, 4691619723492720640));
    assert_eq!(result.stats.rebalances, 22);
    // Each of the 22 evictions once counted a flow solve and an augmenting
    // path; the BFS that replaced the flow network counts neither.
    assert_eq!(counters, [0, 0, 0, 0]);
}

/// FNV-1a over 64-bit words: a stable digest for pinning long outputs.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn ops_digest(ops: &[Operation]) -> u64 {
    fnv(ops.iter().flat_map(|op| match *op {
        Operation::Gate { gate, trap } => [0, u64::from(gate.0), u64::from(trap.0), 0],
        Operation::Shuttle { ion, from, to } => {
            [1, u64::from(ion.0), u64::from(from.0), u64::from(to.0)]
        }
    }))
}

fn rounds_digest(transport: &TransportSchedule) -> u64 {
    fnv(transport.rounds.iter().flat_map(|r| {
        std::iter::once(r.moves.len() as u64).chain(
            r.moves
                .iter()
                .flat_map(|m| [u64::from(m.ion.0), u64::from(m.from.0), u64::from(m.to.0)]),
        )
    }))
}

/// Compiles `circuit` with lookahead packing under realistic timing, packs
/// it, and returns (op count, ops digest, depth, rounds digest, makespan
/// bits, stats).
fn packed(
    circuit: &muzzle_shuttle::circuit::Circuit,
    spec: &MachineSpec,
    router: RouterPolicy,
) -> (usize, u64, usize, u64, u64, PackStats) {
    let config = CompilerConfig::optimized()
        .with_router(router)
        .with_lookahead(true)
        .with_timing(TimingModel::realistic());
    let result = compile(circuit, spec, &config).unwrap();
    let model = TimingModel::realistic();
    let p = pack(&result, circuit, spec, &PackConfig::for_model(model)).unwrap();
    (
        p.schedule.operations.len(),
        ops_digest(&p.schedule.operations),
        p.transport.depth(),
        rounds_digest(&p.transport),
        p.timeline.makespan_us.to_bits(),
        p.stats,
    )
}

#[test]
fn pack_on_grid_matches_recorded_output() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).unwrap();
    let circuit = random_circuit(120, 2000, 1);
    let got = packed(&circuit, &spec, RouterPolicy::congestion());
    let stats = PackStats {
        input_depth: 4531,
        packed_depth: 3631,
        input_makespan_us: f64::from_bits(4697913706007232512),
        packed_makespan_us: f64::from_bits(4697303262305452032),
        hoisted_hops: 957,
        replanned_runs: 0,
        dropped_hops: 0,
        improved: true,
    };
    assert_eq!(
        got,
        (
            6591,
            3033216815087920938,
            3631,
            10509723720006322717,
            4697303262305452032,
            stats
        )
    );
}

#[test]
fn pack_with_layer_rewrites_on_ring_matches_recorded_output() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = MachineSpec::new(TrapTopology::ring(8), 12, 2).unwrap();
    let circuit = random_circuit(60, 1000, 4);
    let got = packed(&circuit, &spec, RouterPolicy::Serial);
    let stats = PackStats {
        input_depth: 1911,
        packed_depth: 1696,
        input_makespan_us: f64::from_bits(4690173264406773760),
        packed_makespan_us: f64::from_bits(4689985832033976320),
        hoisted_hops: 201,
        replanned_runs: 15,
        dropped_hops: 6,
        improved: true,
    };
    assert_eq!(
        got,
        (
            2905,
            477998678807955595,
            1696,
            14566819900114733039,
            4689985832033976320,
            stats
        )
    );
}

/// The serial loop's pins: (ops digest, shuttles, depth, makespan bits,
/// `core.scan_entries`) of one shuttle-objective compile.
fn serial_pins(
    circuit: &muzzle_shuttle::circuit::Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
) -> (u64, usize, usize, u64, u64) {
    obs::reset();
    obs::enable();
    let result = compile(circuit, spec, config).unwrap();
    obs::disable();
    let (shuttles, depth, makespan) = quality(&result);
    (
        ops_digest(&result.schedule.operations),
        shuttles,
        depth,
        makespan,
        obs::counter_value("core.scan_entries"),
    )
}

#[test]
fn serial_loop_off_l6_matches_recorded_schedules() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cases = [
        (TrapTopology::grid(4, 4), 16_000),
        (TrapTopology::ring(16), 4_000),
        (TrapTopology::linear(16), 4_000),
    ];
    let mut got = Vec::new();
    for (topology, gates) in cases {
        let spec = MachineSpec::new(topology, 12, 2).unwrap();
        let circuit = random_circuit(120, gates, 3);
        for config in [CompilerConfig::optimized(), CompilerConfig::baseline()] {
            got.push(serial_pins(&circuit, &spec, &config));
        }
    }
    // Optimized then baseline, on the grid, the ring and the line. The
    // baseline runs no scan: it neither drains nor re-orders.
    let want = [
        (
            1908145040694963469,
            40441,
            40441,
            4706306826944118784,
            1484015,
        ),
        (10715402798073750697, 38762, 38762, 4705380328410185728, 0),
        (
            12729140794174364968,
            18134,
            18134,
            4700350670450982912,
            677242,
        ),
        (12086768520641797421, 15930, 15930, 4698814983419461632, 0),
        (
            11571998963944269330,
            20608,
            20608,
            4702127910738198528,
            1506462,
        ),
        (6814931473497787475, 19968, 19968, 4701491821786693632, 0),
    ];
    assert_eq!(got, want);
}

/// The serial router prices no loads, so the compile loop keeps no
/// segment-load table for it: every serial compile must stay bit for bit.
/// Pinned on the paper suite on L6 (baseline, optimized, and the clock
/// objective) and on a 4×4 grid under the clock objective: the ops
/// digest, the rounds digest, shuttles, depth and makespan bits. Recorded
/// from the compiler that decayed and recorded loads on every gate and hop
/// whatever the router.
#[test]
fn serial_router_compiles_match_recorded_schedules() {
    use muzzle_shuttle::circuit::generators::paper_suite;
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let clock = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_objective(Objective::Clock);
    type Circuit = muzzle_shuttle::circuit::Circuit;
    fn pins(
        circuit: &Circuit,
        spec: &MachineSpec,
        config: &CompilerConfig,
    ) -> (u64, u64, usize, usize, u64) {
        let result = compile(circuit, spec, config).unwrap();
        assert_eq!(config.router, RouterPolicy::Serial);
        let (shuttles, depth, makespan) = quality(&result);
        (
            ops_digest(&result.schedule.operations),
            rounds_digest(&result.transport),
            shuttles,
            depth,
            makespan,
        )
    }
    let l6 = MachineSpec::paper_l6();
    let mut got = Vec::new();
    for bench in paper_suite() {
        for config in [
            CompilerConfig::baseline(),
            CompilerConfig::optimized(),
            clock,
        ] {
            got.push(pins(&bench.circuit, &l6, &config));
        }
    }
    let grid = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).unwrap();
    got.push(pins(&random_circuit(120, 2000, 1), &grid, &clock));
    // Baseline, optimized and clock per paper benchmark, then the grid.
    let want = [
        (
            13979375288549768632,
            17182829550777412231,
            582,
            582,
            4682142311218413568,
        ),
        (
            11888840371149126489,
            11184486626092171687,
            356,
            356,
            4681332452185079808,
        ),
        (
            4948168972003144332,
            16667524026950046224,
            361,
            361,
            4680994352359538688,
        ),
        (
            9721752186486733159,
            13101563250575425965,
            2251,
            2251,
            4689858271505285120,
        ),
        (
            6232505843019965566,
            1498586829336181749,
            1337,
            1337,
            4688522880273612800,
        ),
        (
            2867367125738741511,
            5367454566844085628,
            1435,
            1435,
            4689139723476664320,
        ),
        (
            15308133818849004220,
            11538285964883920208,
            1301,
            1301,
            4688645286841548800,
        ),
        (
            12015383201041862892,
            15765012107898414036,
            568,
            568,
            4685744998505775104,
        ),
        (
            17255841544044153718,
            14137381337572545855,
            523,
            523,
            4686147522840756224,
        ),
        (
            9687874457113294967,
            8781318778015613031,
            311,
            311,
            4686975764334116864,
        ),
        (
            1697998047483310689,
            16539391742813236632,
            294,
            294,
            4690795003872542720,
        ),
        (
            5399044615583858886,
            12814081019119916023,
            364,
            364,
            4691160076092702720,
        ),
        (
            1041944776140662478,
            2816530210447780627,
            1062,
            1062,
            4690358119799193600,
        ),
        (
            15206584562233454415,
            10392596835909401401,
            450,
            450,
            4692956128336674816,
        ),
        (
            11839170058655463420,
            15227738025087976871,
            490,
            490,
            4692558603343626240,
        ),
        (
            9822835240180720749,
            2105461305364483942,
            4791,
            4791,
            4698024494688632832,
        ),
    ];
    assert_eq!(got, want);
}
