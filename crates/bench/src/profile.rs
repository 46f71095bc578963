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
//! rendered report rows are checked equal outside the wall-clock keys
//! before the snapshot is written. A divergence is a bug in the
//! instrumentation and an error naming the benchmark, never a silently
//! snapshotted tainted row.

use crate::diff::snapshot_mismatches;
use crate::report::{profile_json, report_json, row_json, Profile};
use crate::{compare_timed, ComparisonRow};
use qccd_circuit::generators::BenchmarkCircuit;
use qccd_machine::MachineSpec;
use qccd_obs::json::Json;
use qccd_sim::SimParams;
use qccd_timing::TimingModel;

/// Runs every benchmark twice — an uninstrumented reference pass and an
/// instrumented pass — checking quality parity, and returns the
/// instrumented rows with their recorded profiles.
///
/// # Errors
///
/// A message naming the benchmark when instrumentation changed any leaf
/// of the rendered report row outside the wall-clock keys (the
/// observes-never-decides contract), when any speculative candidate fell
/// back to the clone oracle (`timing.clone_fallbacks`) — candidate walks
/// are shuttle-only, so the delta scorer must serve 100% of them — or
/// when a run recorded no phase or no histogram.
pub fn profile_suite(
    benches: &[BenchmarkCircuit],
    spec: &MachineSpec,
    params: &SimParams,
    model: &TimingModel,
) -> Result<Vec<(ComparisonRow, Profile)>, String> {
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
            let fallbacks = qccd_obs::counter_value("timing.clone_fallbacks");
            check_profiled(
                &bench.name,
                &snapshot_mismatches(&row_json(&reference), &row_json(&row)),
                fallbacks,
                &profile,
            )?;
            Ok((row, profile))
        })
        .collect()
}

/// The checks [`profile_suite`] makes on one benchmark's instrumented run:
/// the report-row leaves instrumentation changed, the candidates that fell
/// back to the clone oracle, and the recorded profile.
fn check_profiled(
    name: &str,
    mismatches: &[String],
    fallbacks: u64,
    profile: &Profile,
) -> Result<(), String> {
    if !mismatches.is_empty() {
        return Err(format!(
            "{name}: instrumentation changed {}",
            mismatches.join(", ")
        ));
    }
    if fallbacks != 0 {
        return Err(format!(
            "{name}: {fallbacks} candidates fell back to the clone oracle \
             (candidate walks are shuttle-only)"
        ));
    }
    if profile.phases.is_empty() || profile.histograms.is_empty() {
        return Err(format!(
            "{name}: the instrumented run recorded no phase or no histogram"
        ));
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_obs::{HistogramSnapshot, PhaseStat};

    fn profile(phases: usize, histograms: usize) -> Profile {
        Profile {
            phases: (0..phases)
                .map(|_| PhaseStat {
                    name: "compile".into(),
                    count: 1,
                    total_us: 1.0,
                    self_us: 1.0,
                })
                .collect(),
            counters: Vec::new(),
            histograms: (0..histograms)
                .map(|_| HistogramSnapshot {
                    name: "route.round_width".into(),
                    buckets: vec![1],
                    sum: 1,
                    count: 1,
                    max: 1,
                })
                .collect(),
            delta_hit_rate: 1.0,
            wall_us: 1.0,
        }
    }

    #[test]
    fn each_failed_check_is_an_error_naming_the_benchmark() {
        assert_eq!(check_profiled("QFT", &[], 0, &profile(1, 1)), Ok(()));
        let changed = ["benchmarks.0.clock.clock_ties".to_owned()];
        let cases = [
            (&changed[..], 0, profile(1, 1), "instrumentation changed"),
            (&[][..], 3, profile(1, 1), "3 candidates fell back"),
            (&[][..], 0, profile(0, 1), "no phase or no histogram"),
            (&[][..], 0, profile(1, 0), "no phase or no histogram"),
        ];
        for (mismatches, fallbacks, profile, want) in cases {
            let err = check_profiled("QFT", mismatches, fallbacks, &profile).unwrap_err();
            assert!(err.starts_with("QFT: ") && err.contains(want), "{err}");
        }
    }
}
