//! Regression pins for the delta scorer: the clock-objective pipeline
//! under the default `ScoreMode::Delta` must reproduce the paper suite's
//! clock rows *exactly* — timed makespans, ties broken, batched
//! layers/hops and the strict-win flags were all first produced by the
//! O(suffix) clone-and-re-lower scorer, so matching them bit-for-bit
//! proves the O(delta) rewrite changed the cost of scoring and nothing
//! else. The same pipeline under the `ScoreMode::Full` oracle must match
//! too, chosen shuttles and transport depth included. The pins are the
//! clock rows recorded when the clock objective landed, verbatim; the
//! committed `BENCH.json` carries the same values (`benchmarks[*].clock`).

use muzzle_shuttle::compiler::{CompilerConfig, ScoreMode};
use muzzle_shuttle::machine::MachineSpec;
use muzzle_shuttle::obs;
use muzzle_shuttle::pack::compile_clock;
use muzzle_shuttle::timing::TimingModel;
use qccd_circuit::generators::paper_suite;
use std::sync::Mutex;

/// The `qccd-obs` recorder and counters are process-global; tests in this
/// binary run on parallel threads, so every test that compiles (and would
/// bump the counters the instrumented test measures) serializes here.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// One benchmark's pinned clock row (realistic timing).
struct Pin {
    name: &'static str,
    clock_timed_makespan_us: f64,
    clock_ties: usize,
    batched_layers: usize,
    batched_hops: usize,
    chosen_shuttles: usize,
    chosen_depth: usize,
}

/// The clock rows, verbatim (every benchmark improved, so `candidate ==
/// chosen` makespan throughout).
const PINS: [Pin; 5] = [
    Pin {
        name: "Supremacy",
        clock_timed_makespan_us: 73620.0,
        clock_ties: 0,
        batched_layers: 26,
        batched_hops: 361,
        chosen_shuttles: 361,
        chosen_depth: 231,
    },
    Pin {
        name: "QAOA",
        clock_timed_makespan_us: 220800.0,
        clock_ties: 11,
        batched_layers: 74,
        batched_hops: 1432,
        chosen_shuttles: 1435,
        chosen_depth: 632,
    },
    Pin {
        name: "SquareRoot",
        clock_timed_makespan_us: 185810.0,
        clock_ties: 7,
        batched_layers: 24,
        batched_hops: 271,
        chosen_shuttles: 523,
        chosen_depth: 375,
    },
    Pin {
        name: "QFT",
        clock_timed_makespan_us: 426835.0,
        clock_ties: 9,
        batched_layers: 42,
        batched_hops: 94,
        chosen_shuttles: 364,
        chosen_depth: 339,
    },
    Pin {
        name: "QuadraticForm",
        clock_timed_makespan_us: 511550.0,
        clock_ties: 1,
        batched_layers: 63,
        batched_hops: 194,
        chosen_shuttles: 490,
        chosen_depth: 432,
    },
];

/// Runs the clock pipeline (the same `compile_clock` path `muzzle eval`
/// uses) under `mode` and pins every row.
fn assert_pr5_clock_rows(mode: ScoreMode) {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = MachineSpec::paper_l6();
    let config = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_score_mode(mode);
    for (bench, pin) in paper_suite().iter().zip(&PINS) {
        assert_eq!(bench.name, pin.name, "suite order changed");
        let (chosen, stats) = compile_clock(&bench.circuit, &spec, &config)
            .expect("paper benchmarks compile under the clock objective");
        assert_eq!(
            chosen.timeline.makespan_us, pin.clock_timed_makespan_us,
            "{} ({mode:?}): clock timed makespan drifted",
            pin.name
        );
        assert_eq!(
            stats.clock_makespan_us, pin.clock_timed_makespan_us,
            "{} ({mode:?}): candidate makespan drifted",
            pin.name
        );
        assert_eq!(
            stats.clock_ties, pin.clock_ties,
            "{} ({mode:?}): tie decisions drifted",
            pin.name
        );
        assert_eq!(
            stats.batched_layers, pin.batched_layers,
            "{} ({mode:?}): batched layer count drifted",
            pin.name
        );
        assert_eq!(
            stats.batched_hops, pin.batched_hops,
            "{} ({mode:?}): batched hop count drifted",
            pin.name
        );
        assert_eq!(
            chosen.stats.shuttles, pin.chosen_shuttles,
            "{} ({mode:?}): chosen shuttle count drifted",
            pin.name
        );
        assert_eq!(
            chosen.stats.transport_depth, pin.chosen_depth,
            "{} ({mode:?}): chosen transport depth drifted",
            pin.name
        );
        assert!(
            stats.improved,
            "{} ({mode:?}): the clock candidate stopped beating the packed stack",
            pin.name
        );
    }
}

#[test]
fn delta_scoring_reproduces_bench_pr5_clock_rows_exactly() {
    assert_pr5_clock_rows(ScoreMode::Delta);
}

#[test]
fn full_scoring_reproduces_bench_pr5_clock_rows_exactly() {
    assert_pr5_clock_rows(ScoreMode::Full);
}

/// Candidate walks are shuttle-only, so under the default delta mode every
/// speculative candidate must be priced by the O(delta) path — zero clone
/// -oracle fallbacks, a 100% delta-hit rate on every paper benchmark —
/// proved by the `qccd-obs` hot-path counters rather than inferred from
/// timing.
#[test]
fn delta_scorer_serves_every_candidate_without_clone_fallbacks() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = MachineSpec::paper_l6();
    let config = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_score_mode(ScoreMode::Delta);
    for bench in &paper_suite() {
        obs::reset();
        obs::enable();
        compile_clock(&bench.circuit, &spec, &config)
            .expect("paper benchmarks compile under the clock objective");
        obs::disable();
        let scored = obs::counter_value("core.candidates_scored");
        let hits = obs::counter_value("timing.delta_hits");
        let fallbacks = obs::counter_value("timing.clone_fallbacks");
        assert!(scored > 0, "{}: no candidates were scored", bench.name);
        assert_eq!(
            fallbacks, 0,
            "{}: shuttle-only candidates must never hit the clone oracle",
            bench.name
        );
        assert_eq!(
            hits, scored,
            "{}: every scored candidate must be priced by the delta path",
            bench.name
        );
        let rate = hits as f64 / (hits + fallbacks) as f64;
        eprintln!(
            "{}: delta-hit rate {hits}/{} = {:.1}%",
            bench.name,
            hits + fallbacks,
            100.0 * rate
        );
    }
}
