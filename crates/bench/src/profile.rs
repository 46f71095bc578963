//! The `BENCH.json` snapshot that `paper_eval snapshot` writes and
//! checks: the `muzzle eval --suite paper --timing realistic --format
//! json` report ([`crate::report::report_json`]) plus, per benchmark, an
//! instrumentation profile recorded by `qccd-obs` (phase wall-time
//! breakdowns, hot-path counters, histograms, the delta-scorer hit rate),
//! the makespan and fidelity attributions, and the `--jobs` wall-clock
//! figures.
//!
//! Instrumentation observes, never decides: every benchmark is compiled
//! twice, once with the recorder off and once with it on, and the two
//! rendered report rows are asserted equal outside the wall-clock keys
//! before the snapshot is written. A divergence is a bug in the
//! instrumentation and panics rather than silently snapshotting tainted
//! rows.

use crate::diff::snapshot_mismatches;
use crate::report::{report_json, row_json};
use crate::{compare_timed, ComparisonRow};
use qccd_circuit::generators::BenchmarkCircuit;
use qccd_machine::MachineSpec;
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

/// Runs every benchmark twice — an uninstrumented reference pass and an
/// instrumented pass — asserting quality parity, and returns the
/// instrumented rows with their recorded profiles.
///
/// # Panics
///
/// Panics if instrumentation changed any leaf of the rendered report row
/// outside the wall-clock keys (the observes-never-decides contract), if
/// any speculative candidate fell back to the clone oracle
/// (`timing.clone_fallbacks`) — candidate walks are shuttle-only, so the
/// delta scorer must serve 100% of them — or if a run recorded no phase
/// or no histogram.
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

            let mismatches = snapshot_mismatches(&row_json(&reference), &row_json(&row));
            assert!(
                mismatches.is_empty(),
                "{}: instrumentation changed {}",
                bench.name,
                mismatches.join(", "),
            );
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
/// --format json` report with trailing `"profile"`, `"explain"`,
/// `"fidelity"` and `"jobs"` objects per benchmark and a top-level
/// `"all_jobs_deterministic"` flag (an `all_` key, so a `true` → `false`
/// flip gates as a regression).
pub fn render_snapshot(
    machine: &MachineSpec,
    timing: &str,
    rows: &[SnapshotRow],
    all_jobs_deterministic: bool,
) -> String {
    let quality: Vec<ComparisonRow> = rows.iter().map(|row| row.profile.row.clone()).collect();
    let Json::Obj(mut doc) = report_json("paper", machine, timing, &quality) else {
        unreachable!("the report is an object");
    };
    for (key, value) in &mut doc {
        if let ("benchmarks", Json::Arr(benchmarks)) = (key.as_str(), value) {
            for (benchmark, row) in benchmarks.iter_mut().zip(rows) {
                *benchmark = std::mem::replace(benchmark, Json::Null)
                    .with_field("profile", profile_json(&row.profile))
                    .with_field("explain", row.explain.clone())
                    .with_field("fidelity", row.fidelity.clone())
                    .with_field("jobs", row.jobs.clone());
            }
        }
    }
    doc.push((
        "all_jobs_deterministic".to_owned(),
        Json::Bool(all_jobs_deterministic),
    ));
    let mut text = Json::Obj(doc).to_string();
    text.push('\n');
    text
}
