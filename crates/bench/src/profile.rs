//! The `BENCH.json` snapshot that `paper_eval snapshot` writes and
//! checks: the paper suite's quality rows (the same values `muzzle eval
//! --suite paper --timing realistic --format json` reports) plus, per
//! benchmark, an instrumentation profile recorded by `qccd-obs` (phase
//! wall-time breakdowns, hot-path counters, histograms, the delta-scorer
//! hit rate), the makespan and fidelity attributions, and the `--jobs`
//! wall-clock figures.
//!
//! Instrumentation observes, never decides: every benchmark is compiled
//! twice, once with the recorder off and once with it on, and every
//! quality figure of the two runs is asserted equal before the snapshot
//! is written. A divergence is a bug in the instrumentation and panics
//! rather than silently snapshotting tainted rows.

use crate::{compare_timed, ComparisonRow};
use qccd_circuit::generators::BenchmarkCircuit;
use qccd_circuit::parser::parse_program;
use qccd_core::{compile_with_mapping, CompilerConfig};
use qccd_machine::{InitialMapping, MachineSpec, TrapId};
use qccd_obs::json::Json;
use qccd_sim::SimParams;
use qccd_timing::TimingModel;

/// One benchmark's quality row plus its recorded instrumentation.
pub struct BenchmarkProfile {
    /// The quality row (recorded while instrumented; asserted equal to
    /// the uninstrumented reference run).
    pub row: ComparisonRow,
    /// Per-phase wall-time breakdown, hottest self-time first.
    pub phases: Vec<qccd_obs::PhaseStat>,
    /// Every hot-path counter touched during the run, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Value-distribution histograms recorded during the run, sorted by
    /// name (e.g. candidate scores per clock round).
    pub histograms: Vec<qccd_obs::HistogramSnapshot>,
    /// `timing.delta_hits / (delta_hits + clone_fallbacks)` — the share
    /// of speculative candidates priced by the O(delta) path. Shuttle-only
    /// candidate walks keep this at exactly 1.
    pub delta_hit_rate: f64,
    /// Wall time between the first and last recorded span, µs.
    pub wall_us: f64,
}

/// Quality fields of `row` that must be invariant under instrumentation —
/// everything the eval report derives except wall-clock compile seconds.
fn quality_key(row: &ComparisonRow) -> Vec<(&'static str, f64)> {
    vec![
        ("baseline_shuttles", row.baseline_shuttles as f64),
        ("optimized_shuttles", row.optimized_shuttles as f64),
        ("congestion_shuttles", row.congestion_shuttles as f64),
        ("transport_depth", row.transport_depth as f64),
        ("packed_shuttles", row.packed_shuttles as f64),
        ("packed_depth", row.packed_depth as f64),
        (
            "lookahead_timed_makespan_us",
            row.lookahead_timed_makespan_us,
        ),
        ("packed_timed_makespan_us", row.packed_timed_makespan_us),
        ("clock_timed_makespan_us", row.clock_timed_makespan_us),
        ("clock_ties", row.clock_stats.clock_ties as f64),
        ("batched_layers", row.clock_stats.batched_layers as f64),
        ("batched_hops", row.clock_stats.batched_hops as f64),
        (
            "clock_improved",
            if row.clock_stats.improved { 1.0 } else { 0.0 },
        ),
        ("baseline_fidelity", row.baseline_sim.program_fidelity),
        ("optimized_fidelity", row.optimized_sim.program_fidelity),
        ("transport_fidelity", row.transport_sim.program_fidelity),
        ("packed_fidelity", row.packed_sim.program_fidelity),
        ("clock_fidelity", row.clock_sim.program_fidelity),
        ("baseline_makespan_us", row.baseline_sim.makespan_us),
        ("optimized_makespan_us", row.optimized_sim.makespan_us),
        (
            "serial_timed_makespan_us",
            row.optimized_sim.timed_makespan_us,
        ),
        (
            "congestion_timed_makespan_us",
            row.transport_sim.timed_makespan_us,
        ),
        ("zone_moves", row.transport_sim.zone_moves as f64),
        (
            "junction_crossings",
            row.transport_sim.junction_crossings as f64,
        ),
    ]
}

/// Runs every benchmark twice — an uninstrumented reference pass and an
/// instrumented pass — asserting quality parity, and returns the
/// instrumented rows with their recorded profiles.
///
/// # Panics
///
/// Panics if instrumentation changed any quality figure (the
/// observes-never-decides contract), if any speculative candidate fell
/// back to the clone oracle (`timing.clone_fallbacks`) — candidate walks
/// are shuttle-only, so the delta scorer must serve 100% of them — or if
/// a run recorded no phase or no histogram.
pub fn profile_suite(
    benches: &[BenchmarkCircuit],
    spec: &MachineSpec,
    params: &SimParams,
    model: &TimingModel,
) -> Vec<BenchmarkProfile> {
    benches
        .iter()
        .map(|bench| {
            qccd_obs::info("profile", || format!("  {} (reference)", bench.name));
            let reference = compare_timed(bench, spec, params, model);

            qccd_obs::info("profile", || format!("  {} (instrumented)", bench.name));
            qccd_obs::reset();
            qccd_obs::enable();
            let row = compare_timed(bench, spec, params, model);
            qccd_obs::disable();
            let phases = qccd_obs::phase_stats();
            let counters = qccd_obs::counters();
            let histograms = qccd_obs::histograms();
            let wall_us = qccd_obs::wall_us();

            for ((name, reference), (_, instrumented)) in
                quality_key(&reference).iter().zip(quality_key(&row).iter())
            {
                assert!(
                    reference == instrumented,
                    "{}: instrumentation changed {name}: {reference} vs {instrumented}",
                    bench.name,
                );
            }
            let hits = qccd_obs::counter_value("timing.delta_hits");
            let fallbacks = qccd_obs::counter_value("timing.clone_fallbacks");
            assert!(
                fallbacks == 0,
                "{}: {fallbacks} candidates fell back to the clone oracle \
                 (candidate walks are shuttle-only)",
                bench.name,
            );
            assert!(
                !phases.is_empty() && !histograms.is_empty(),
                "{}: the instrumented run recorded no phase or no histogram",
                bench.name,
            );
            let delta_hit_rate = if hits + fallbacks == 0 {
                1.0
            } else {
                hits as f64 / (hits + fallbacks) as f64
            };
            BenchmarkProfile {
                row,
                phases,
                counters,
                histograms,
                delta_hit_rate,
                wall_us,
            }
        })
        .collect()
}

/// The Fig. 4 worked example's shuttle counts `(baseline, optimized)`:
/// `MS q1,q2; MS q2,q3; MS q1,q2; MS q2,q4;` on two traps of capacity 4
/// with ions 0-1 in T0 and 2-4 in T1. The `muzzle eval` preamble and the
/// snapshot both carry it.
pub fn fig4_worked_example() -> (usize, usize) {
    let circuit = parse_program(
        "MS q[1], q[2];\nMS q[2], q[3];\nMS q[1], q[2];\nMS q[2], q[4];",
        5,
    )
    .expect("the Fig. 4 program parses");
    let spec = MachineSpec::linear(2, 4, 1).expect("the Fig. 4 machine builds");
    let mapping = InitialMapping::from_traps(
        &spec,
        vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
    )
    .expect("the Fig. 4 mapping fits");
    let baseline = compile_with_mapping(
        &circuit,
        &spec,
        &CompilerConfig::baseline(),
        mapping.clone(),
    )
    .expect("the Fig. 4 program compiles");
    let optimized = compile_with_mapping(&circuit, &spec, &CompilerConfig::optimized(), mapping)
        .expect("the Fig. 4 program compiles");
    (baseline.stats.shuttles, optimized.stats.shuttles)
}

fn sim_json(fidelity: f64, makespan_us: f64, compile_s: f64) -> Json {
    Json::obj(vec![
        ("program_fidelity", Json::Num(fidelity)),
        ("makespan_us", Json::Num(makespan_us)),
        ("compile_seconds", Json::Num(compile_s)),
    ])
}

fn profile_json(p: &BenchmarkProfile) -> Json {
    Json::obj(vec![
        (
            "phases",
            Json::Arr(
                p.phases
                    .iter()
                    .map(|ph| {
                        Json::obj(vec![
                            ("name", Json::str(ph.name.as_str())),
                            ("count", Json::int(ph.count)),
                            ("total_us", Json::Num(ph.total_us)),
                            ("self_us", Json::Num(ph.self_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                p.counters
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::int(*value as usize)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Arr(
                p.histograms
                    .iter()
                    .map(|h| {
                        Json::obj(vec![
                            ("name", Json::str(h.name.as_str())),
                            ("count", Json::int(h.count as usize)),
                            ("mean", Json::Num(h.mean())),
                            ("p50", Json::int(h.p50() as usize)),
                            ("p99", Json::int(h.p99() as usize)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("delta_hit_rate", Json::Num(p.delta_hit_rate)),
        ("wall_us", Json::Num(p.wall_us)),
    ])
}

/// One benchmark's snapshot entry: its profiled quality row plus the
/// subtrees that ride after it.
pub struct SnapshotRow {
    /// The profiled quality row.
    pub profile: BenchmarkProfile,
    /// The critical-path makespan attribution.
    pub explain: Json,
    /// The fidelity-loss attribution.
    pub fidelity: Json,
    /// Wall-clock `compile_seconds_jobs*` figures.
    pub jobs: Json,
}

/// Renders the `BENCH.json` snapshot: the `muzzle eval --suite paper
/// --format json` report's structure and key order, with trailing
/// `"profile"`, `"explain"`, `"fidelity"` and `"jobs"` objects per
/// benchmark and a top-level `"all_jobs_deterministic"` flag (an `all_`
/// key, so a `true` → `false` flip gates as a regression). `muzzle
/// eval`'s `"utilization"` object is omitted: the snapshot pins what the
/// compiler decides, and utilization is derived.
pub fn render_snapshot(
    machine: &MachineSpec,
    timing: &str,
    rows: &[SnapshotRow],
    all_jobs_deterministic: bool,
) -> String {
    let (fig4_baseline, fig4_optimized) = fig4_worked_example();
    let benchmarks = rows
        .iter()
        .map(|row| {
            let r = &row.profile.row;
            Json::obj(vec![
                ("name", Json::str(&r.name)),
                ("qubits", Json::int(r.qubits as usize)),
                ("two_qubit_gates", Json::int(r.two_qubit_gates)),
                ("baseline_shuttles", Json::int(r.baseline_shuttles)),
                ("optimized_shuttles", Json::int(r.optimized_shuttles)),
                ("delta", Json::Num(r.delta() as f64)),
                ("delta_percent", Json::Num(r.delta_percent())),
                ("fidelity_improvement", Json::Num(r.fidelity_improvement())),
                (
                    "baseline",
                    sim_json(
                        r.baseline_sim.program_fidelity,
                        r.baseline_sim.makespan_us,
                        r.baseline_compile_s,
                    ),
                ),
                (
                    "optimized",
                    sim_json(
                        r.optimized_sim.program_fidelity,
                        r.optimized_sim.makespan_us,
                        r.optimized_compile_s,
                    ),
                ),
                (
                    "congestion_router",
                    Json::obj(vec![
                        ("shuttles", Json::int(r.congestion_shuttles)),
                        ("transport_depth", Json::int(r.transport_depth)),
                        ("depth_delta", Json::Num(r.depth_delta() as f64)),
                        ("makespan_us", Json::Num(r.transport_sim.makespan_us)),
                        (
                            "program_fidelity",
                            Json::Num(r.transport_sim.program_fidelity),
                        ),
                    ]),
                ),
                (
                    "timed",
                    Json::obj(vec![
                        (
                            "serial_makespan_us",
                            Json::Num(r.optimized_sim.timed_makespan_us),
                        ),
                        (
                            "congestion_makespan_us",
                            Json::Num(r.transport_sim.timed_makespan_us),
                        ),
                        ("zone_moves", Json::int(r.transport_sim.zone_moves)),
                        (
                            "junction_crossings",
                            Json::int(r.transport_sim.junction_crossings),
                        ),
                    ]),
                ),
                (
                    "packed",
                    Json::obj(vec![
                        ("shuttles", Json::int(r.packed_shuttles)),
                        ("transport_depth", Json::int(r.packed_depth)),
                        (
                            "lookahead_timed_makespan_us",
                            Json::Num(r.lookahead_timed_makespan_us),
                        ),
                        (
                            "packed_timed_makespan_us",
                            Json::Num(r.packed_timed_makespan_us),
                        ),
                        ("program_fidelity", Json::Num(r.packed_sim.program_fidelity)),
                    ]),
                ),
                (
                    "clock",
                    Json::obj(vec![
                        (
                            "clock_timed_makespan_us",
                            Json::Num(r.clock_timed_makespan_us),
                        ),
                        (
                            "candidate_makespan_us",
                            Json::Num(r.clock_stats.clock_makespan_us),
                        ),
                        ("clock_ties", Json::int(r.clock_stats.clock_ties)),
                        ("batched_layers", Json::int(r.clock_stats.batched_layers)),
                        ("batched_hops", Json::int(r.clock_stats.batched_hops)),
                        ("improved", Json::Bool(r.clock_stats.improved)),
                        ("compile_seconds", Json::Num(r.clock_compile_s)),
                        ("program_fidelity", Json::Num(r.clock_sim.program_fidelity)),
                    ]),
                ),
                ("profile", profile_json(&row.profile)),
                ("explain", row.explain.clone()),
                ("fidelity", row.fidelity.clone()),
                ("jobs", row.jobs.clone()),
            ])
        })
        .collect();
    let rows: Vec<&ComparisonRow> = rows.iter().map(|row| &row.profile.row).collect();

    let all_leq = rows
        .iter()
        .all(|r| r.optimized_shuttles <= r.baseline_shuttles);
    let congestion_leq = rows
        .iter()
        .all(|r| r.congestion_shuttles <= r.optimized_shuttles);
    let depth_wins = rows
        .iter()
        .filter(|r| r.transport_depth < r.optimized_shuttles)
        .count();
    let timed_makespan_wins = rows
        .iter()
        .filter(|r| r.transport_sim.timed_makespan_us <= r.optimized_sim.timed_makespan_us)
        .count();
    let packed_leq_lookahead = rows
        .iter()
        .all(|r| r.packed_timed_makespan_us <= r.lookahead_timed_makespan_us);
    let packed_strict_wins = rows
        .iter()
        .filter(|r| r.packed_timed_makespan_us < r.lookahead_timed_makespan_us)
        .count();
    let clock_leq_packed = rows
        .iter()
        .all(|r| r.clock_timed_makespan_us <= r.packed_timed_makespan_us);
    let clock_strict_wins = rows.iter().filter(|r| r.clock_stats.improved).count();

    let value = Json::obj(vec![
        ("suite", Json::str("paper")),
        ("machine", Json::str(machine.to_string())),
        ("timing", Json::str(timing)),
        (
            "fig4_worked_example",
            Json::obj(vec![
                ("baseline_shuttles", Json::int(fig4_baseline)),
                ("optimized_shuttles", Json::int(fig4_optimized)),
            ]),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
        ("all_optimized_leq_baseline", Json::Bool(all_leq)),
        ("all_congestion_leq_serial", Json::Bool(congestion_leq)),
        ("depth_strictly_lower_count", Json::int(depth_wins)),
        (
            "timed_makespan_leq_serial_count",
            Json::int(timed_makespan_wins),
        ),
        ("all_packed_leq_lookahead", Json::Bool(packed_leq_lookahead)),
        ("packed_strict_win_count", Json::int(packed_strict_wins)),
        ("all_clock_leq_packed", Json::Bool(clock_leq_packed)),
        ("clock_strict_win_count", Json::int(clock_strict_wins)),
        ("all_jobs_deterministic", Json::Bool(all_jobs_deterministic)),
    ]);
    let mut text = value.to_string();
    text.push('\n');
    text
}
