//! The `BENCH.json` snapshot that `muzzle snapshot` writes and
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
use crate::report::{profile_json, report_json, row_json, Profile};
use crate::{compare_timed, ComparisonRow};
use qccd_circuit::generators::BenchmarkCircuit;
use qccd_machine::MachineSpec;
use qccd_obs::json::Json;
use qccd_sim::SimParams;
use qccd_timing::TimingModel;

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
) -> Vec<(ComparisonRow, Profile)> {
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
            let profile = Profile::recorded();

            let mismatches = snapshot_mismatches(&row_json(&reference), &row_json(&row));
            assert!(
                mismatches.is_empty(),
                "{}: instrumentation changed {}",
                bench.name,
                mismatches.join(", "),
            );
            let fallbacks = qccd_obs::counter_value("timing.clone_fallbacks");
            assert!(
                fallbacks == 0,
                "{}: {fallbacks} candidates fell back to the clone oracle \
                 (candidate walks are shuttle-only)",
                bench.name,
            );
            assert!(
                !profile.phases.is_empty() && !profile.histograms.is_empty(),
                "{}: the instrumented run recorded no phase or no histogram",
                bench.name,
            );
            (row, profile)
        })
        .collect()
}

/// One benchmark's snapshot entry: its profiled quality row plus the
/// subtrees that ride after it.
pub struct SnapshotRow {
    /// The profiled quality row.
    pub row: ComparisonRow,
    /// What the recorder held after the row's instrumented run.
    pub profile: Profile,
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
    let quality: Vec<ComparisonRow> = rows.iter().map(|row| row.row.clone()).collect();
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
