//! Regression pins for the default (shuttle-count) objective: the five
//! paper benchmarks must reproduce the pinned serial, congestion,
//! lookahead and packed rows *exactly* — shuttle counts, transport depths,
//! and timed makespans under the realistic device model — so the timed
//! compile-loop objective (PR 5) provably cannot perturb existing
//! behaviour, and the shared round-backfill core provably reproduces both
//! packers' PR 4 outputs unchanged.

use muzzle_shuttle::compiler::{compile, CompilerConfig, RouterPolicy};
use muzzle_shuttle::machine::MachineSpec;
use muzzle_shuttle::pack::compile_packed;
use muzzle_shuttle::route::TransportSchedule;
use muzzle_shuttle::timing::{lower, TimingModel};
use qccd_circuit::generators::paper_suite;

/// One benchmark's pinned row (realistic timing).
struct Pin {
    name: &'static str,
    baseline_shuttles: usize,
    optimized_shuttles: usize,
    serial_makespan_us: f64,
    congestion_shuttles: usize,
    congestion_depth: usize,
    congestion_makespan_us: f64,
    greedy_depth: usize,
    lookahead_depth: usize,
    lookahead_makespan_us: f64,
    packed_shuttles: usize,
    packed_depth: usize,
    packed_makespan_us: f64,
}

/// The rows recorded when packing landed, verbatim; the committed
/// `BENCH.json` carries the same values.
const PINS: [Pin; 5] = [
    Pin {
        name: "Supremacy",
        baseline_shuttles: 582,
        optimized_shuttles: 356,
        serial_makespan_us: 119045.0,
        congestion_shuttles: 356,
        congestion_depth: 347,
        congestion_makespan_us: 118785.0,
        greedy_depth: 347,
        lookahead_depth: 347,
        lookahead_makespan_us: 118785.0,
        packed_shuttles: 356,
        packed_depth: 329,
        packed_makespan_us: 117035.0,
    },
    Pin {
        name: "QAOA",
        baseline_shuttles: 2251,
        optimized_shuttles: 1337,
        serial_makespan_us: 367830.0,
        congestion_shuttles: 1337,
        congestion_depth: 1336,
        congestion_makespan_us: 367830.0,
        greedy_depth: 1336,
        lookahead_depth: 1335,
        lookahead_makespan_us: 368090.0,
        packed_shuttles: 1337,
        packed_depth: 1091,
        packed_makespan_us: 351095.0,
    },
    Pin {
        name: "SquareRoot",
        baseline_shuttles: 1301,
        optimized_shuttles: 568,
        serial_makespan_us: 228585.0,
        congestion_shuttles: 568,
        congestion_depth: 561,
        congestion_makespan_us: 228585.0,
        greedy_depth: 561,
        lookahead_depth: 561,
        lookahead_makespan_us: 228585.0,
        packed_shuttles: 568,
        packed_depth: 508,
        packed_makespan_us: 228150.0,
    },
    Pin {
        name: "QFT",
        baseline_shuttles: 311,
        optimized_shuttles: 294,
        serial_makespan_us: 429585.0,
        congestion_shuttles: 294,
        congestion_depth: 287,
        congestion_makespan_us: 428545.0,
        greedy_depth: 287,
        lookahead_depth: 287,
        lookahead_makespan_us: 428545.0,
        packed_shuttles: 294,
        packed_depth: 287,
        packed_makespan_us: 428545.0,
    },
    Pin {
        name: "QuadraticForm",
        baseline_shuttles: 1062,
        optimized_shuttles: 450,
        serial_makespan_us: 583765.0,
        congestion_shuttles: 450,
        congestion_depth: 439,
        congestion_makespan_us: 582465.0,
        greedy_depth: 439,
        lookahead_depth: 439,
        lookahead_makespan_us: 582465.0,
        packed_shuttles: 450,
        packed_depth: 439,
        packed_makespan_us: 582465.0,
    },
];

/// The default objective's serial, congestion, lookahead and packed rows
/// are bit-for-bit the pinned rows. This test failing means the
/// clock objective leaked into the default pipeline — exactly what it
/// exists to catch. It also pins the shared round-backfill core: the
/// lookahead packer (departure-credit rules) and the cross-gate packer
/// (no-credit + gate fences, inside `compile_packed`) must reproduce
/// their pre-refactor outputs on the whole paper suite, unchanged.
#[test]
fn default_objective_rows_match_bench_pr4_exactly() {
    let spec = MachineSpec::paper_l6();
    let model = TimingModel::realistic();
    for (bench, pin) in paper_suite().iter().zip(&PINS) {
        assert_eq!(bench.name, pin.name, "suite order changed");

        // Serial rows (paper parity).
        let base = compile(
            &bench.circuit,
            &spec,
            &CompilerConfig::baseline().with_timing(model),
        )
        .expect("baseline compiles");
        assert_eq!(base.stats.shuttles, pin.baseline_shuttles, "{}", pin.name);
        let serial = compile(
            &bench.circuit,
            &spec,
            &CompilerConfig::optimized().with_timing(model),
        )
        .expect("optimized compiles");
        assert_eq!(
            serial.stats.shuttles, pin.optimized_shuttles,
            "{}",
            pin.name
        );
        assert_eq!(
            serial.timeline.makespan_us, pin.serial_makespan_us,
            "{}: serial timed makespan drifted",
            pin.name
        );

        // Congestion row (greedy in-run rounds).
        let cong = compile(
            &bench.circuit,
            &spec,
            &CompilerConfig::optimized()
                .with_router(RouterPolicy::congestion())
                .with_timing(model),
        )
        .expect("congestion compiles");
        assert_eq!(cong.stats.shuttles, pin.congestion_shuttles, "{}", pin.name);
        assert_eq!(
            cong.stats.transport_depth, pin.congestion_depth,
            "{}: greedy depth drifted",
            pin.name
        );
        assert_eq!(
            cong.timeline.makespan_us, pin.congestion_makespan_us,
            "{}: congestion timed makespan drifted",
            pin.name
        );

        // Shared-backfill-core equivalence, packer one: greedy vs
        // lookahead depths of the lookahead-compiled schedule.
        let look = compile(
            &bench.circuit,
            &spec,
            &CompilerConfig::optimized()
                .with_router(RouterPolicy::congestion())
                .with_lookahead(true)
                .with_timing(model),
        )
        .expect("lookahead compiles");
        let greedy = TransportSchedule::pack_concurrent(&look.schedule, &spec)
            .expect("compiled schedules repack");
        assert_eq!(greedy.depth(), pin.greedy_depth, "{}", pin.name);
        assert_eq!(
            look.stats.transport_depth, pin.lookahead_depth,
            "{}: lookahead depth drifted",
            pin.name
        );

        // Shared-backfill-core equivalence, packer two: the cross-gate
        // packer inside compile_packed, plus the packed makespans.
        let (packed, pack_stats) = compile_packed(
            &bench.circuit,
            &spec,
            &CompilerConfig::optimized()
                .with_router(RouterPolicy::congestion())
                .with_timing(model),
        )
        .expect("packed stack compiles");
        assert_eq!(packed.stats.shuttles, pin.packed_shuttles, "{}", pin.name);
        assert_eq!(
            packed.stats.transport_depth, pin.packed_depth,
            "{}: packed depth drifted",
            pin.name
        );
        assert_eq!(
            pack_stats.input_makespan_us, pin.lookahead_makespan_us,
            "{}: lookahead timed makespan drifted",
            pin.name
        );
        assert_eq!(
            pack_stats.packed_makespan_us, pin.packed_makespan_us,
            "{}: packed timed makespan drifted",
            pin.name
        );
        // The greedy repack is one of the packer's candidates, so the
        // packed makespan never exceeds the greedy rounds' either.
        let greedy_makespan_us =
            lower(&look.schedule, Some(&greedy), &bench.circuit, &spec, &model)
                .expect("greedy rounds lower")
                .makespan_us;
        assert!(
            pack_stats.packed_makespan_us <= greedy_makespan_us,
            "{}: packed {} > greedy {greedy_makespan_us}",
            pin.name,
            pack_stats.packed_makespan_us
        );
    }
}
