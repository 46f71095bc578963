//! The `snapshot` and `diff` subcommands: the `BENCH.json` gate.
//!
//! `muzzle snapshot` (run from the repository root) builds the whole
//! `BENCH.json` document for the paper suite under realistic timing
//! ([`qccd_bench::profile::render_snapshot`]) and checks every in-run
//! identity on each benchmark:
//!
//! * the clock pipeline at `--jobs` 1, 4 and 8 is bit-for-bit identical
//!   (chosen makespan bits, clock stats, schedule, transport), and the
//!   report row's clock makespan is the `compile_clock` artifact's, to
//!   the bit;
//! * instrumentation observes, never decides, and the delta scorer
//!   serves every candidate ([`qccd_bench::profile::profile_suite`]);
//! * the makespan and fidelity attributions hold their identities, the
//!   same checks `muzzle explain` makes ([`attribute_makespan`],
//!   [`check_fidelity`]).
//!
//! With no `BENCH.json` present it writes one (a deliberate re-pin, which
//! the change's diff then shows). Otherwise it writes `BENCH.new.json`
//! and exits 1, naming the paths, unless the two agree bit for bit
//! outside the wall-clock keys ([`qccd_bench::diff::snapshot_mismatches`]).
//!
//! `muzzle diff OLD.json NEW.json` is the schema-aware differ
//! ([`qccd_bench::diff::diff_snapshots`]): quality metrics are classified
//! by direction, wall-clock and `profile`/`explain`/`fidelity` data is
//! informational, and it exits 1 iff a quality metric regressed.

use crate::explain::{attribute_makespan, check_fidelity};
use qccd_bench::diff::{diff_snapshots, snapshot_mismatches};
use qccd_bench::profile::{profile_suite, render_snapshot, SnapshotRow};
use qccd_bench::report::{attribution_json, blame_counts_json, fidelity_json};
use qccd_bench::TIMING_RUNS;
use qccd_circuit::generators::paper_suite;
use qccd_core::{CompilerConfig, TimingModel};
use qccd_machine::MachineSpec;
use qccd_obs::json::{parse, Json};
use qccd_sim::SimParams;
use std::time::Instant;

/// The committed snapshot, and where a check writes the fresh run.
const SNAPSHOT: &str = "BENCH.json";
const FRESH_SNAPSHOT: &str = "BENCH.new.json";

/// Entry point for `muzzle snapshot`: `Ok(false)` when the fresh run
/// differs from the committed `BENCH.json`.
pub fn cmd_snapshot(args: &[String]) -> Result<bool, String> {
    if let Some(arg) = args.first() {
        return Err(format!("snapshot takes no arguments, got `{arg}`"));
    }
    let spec = MachineSpec::paper_l6();
    let params = SimParams::default();
    let model = TimingModel::realistic();
    let clock_config = CompilerConfig::optimized().with_timing(model);
    let suite = paper_suite();
    qccd_obs::info("snapshot", || "profiling paper suite...".to_owned());
    let profiles = profile_suite(&suite, &spec, &params, &model)?;
    let mut rows: Vec<SnapshotRow> = Vec::new();
    for (bench, (row, profile)) in suite.iter().zip(profiles) {
        let name = &bench.name;
        let run = |jobs: usize, runs: usize| -> Result<_, String> {
            let config = clock_config.with_jobs(jobs);
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..runs {
                let start = Instant::now();
                let result = qccd_pack::compile_clock(&bench.circuit, &spec, &config)
                    .map_err(|e| format!("{name}: {e}"))?;
                best = best.min(start.elapsed().as_secs_f64());
                last = Some(result);
            }
            Ok((best, last.expect("at least one timing run")))
        };
        let (secs1, (chosen, stats)) = run(1, TIMING_RUNS)?;
        let (secs4, wide4) = run(4, TIMING_RUNS)?;
        let (_, wide8) = run(8, 1)?;
        for (jobs, (result, wide_stats)) in [(4usize, &wide4), (8, &wide8)] {
            if *wide_stats != stats
                || result.timeline.makespan_us.to_bits() != chosen.timeline.makespan_us.to_bits()
                || result.schedule != chosen.schedule
                || result.transport != chosen.transport
            {
                return Err(format!(
                    "{name}: the clock pipeline diverged at jobs={jobs} (makespan {} vs {}, \
                     stats {wide_stats:?} vs {stats:?})",
                    result.timeline.makespan_us, chosen.timeline.makespan_us
                ));
            }
        }
        if row.clock_timed_makespan_us.to_bits() != chosen.timeline.makespan_us.to_bits() {
            return Err(format!(
                "{name}: profiled clock row diverged from the jobs determinism sweep ({} vs {})",
                row.clock_timed_makespan_us, chosen.timeline.makespan_us
            ));
        }
        let (path, attribution) = attribute_makespan(&chosen.timeline, &bench.circuit, &model)
            .map_err(|e| format!("{name}: {e}"))?;
        let attr = qccd_sim::attribute_fidelity_timed(
            &chosen.schedule,
            &chosen.transport,
            &bench.circuit,
            &spec,
            &params,
            &model,
        )
        .map_err(|e| format!("{name}: {e}"))?;
        check_fidelity(&attr).map_err(|e| format!("{name}: {e}"))?;
        rows.push(SnapshotRow {
            row,
            profile,
            explain: Json::obj(vec![
                ("makespan_us", Json::Num(attribution.makespan_us)),
                ("critical_path_steps", Json::int(path.steps.len())),
                ("blame_counts", blame_counts_json(&path)),
                ("attribution", attribution_json(&attribution)),
            ]),
            fidelity: fidelity_json(&attr, 3),
            jobs: Json::obj(vec![
                ("compile_seconds_jobs1", Json::Num(secs1)),
                ("compile_seconds_jobs4", Json::Num(secs4)),
                ("compile_seconds_speedup_jobs4", Json::Num(secs1 / secs4)),
            ]),
        });
    }
    println!(
        "all {} benchmarks bit-for-bit identical at jobs 1, 4 and 8; every identity holds",
        rows.len()
    );

    let fresh = render_snapshot(&spec, "realistic", &rows, true);
    let write = |path: &str| {
        std::fs::write(path, &fresh).map_err(|e| format!("cannot write `{path}`: {e}"))
    };
    let committed = match std::fs::read_to_string(SNAPSHOT) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            write(SNAPSHOT)?;
            println!(
                "no {SNAPSHOT} to check against: wrote it ({} bytes)",
                fresh.len()
            );
            return Ok(true);
        }
        Err(e) => return Err(format!("cannot read `{SNAPSHOT}`: {e}")),
    };
    write(FRESH_SNAPSHOT)?;
    println!("wrote {FRESH_SNAPSHOT} ({} bytes)", fresh.len());
    let committed =
        parse(&committed).map_err(|e| format!("`{SNAPSHOT}` is not valid JSON: {e}"))?;
    let fresh = parse(&fresh).expect("the rendered snapshot parses");
    let mismatches = snapshot_mismatches(&committed, &fresh);
    if !mismatches.is_empty() {
        eprintln!(
            "error: {FRESH_SNAPSHOT} diverged from the committed {SNAPSHOT} outside the \
             wall-clock keys at {} path(s): {}\n(re-pin on purpose by replacing {SNAPSHOT} \
             with {FRESH_SNAPSHOT})",
            mismatches.len(),
            mismatches.join(", ")
        );
        return Ok(false);
    }
    println!("bit-for-bit equal to {SNAPSHOT} outside the wall-clock keys: yes");
    Ok(true)
}

/// Entry point for `muzzle diff OLD.json NEW.json [--rel-tol X]
/// [--format text|json]`: `Ok(false)` when a quality metric regressed.
pub fn cmd_diff(args: &[String]) -> Result<bool, String> {
    let mut files: Vec<&str> = Vec::new();
    let mut rel_tol = 0.0f64;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg {
            "--rel-tol" => {
                let v = value()?;
                rel_tol = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--rel-tol: `{v}` is not a valid non-negative number")
                    })?;
                i += 1;
            }
            "--format" => {
                json = match value()?.as_str() {
                    "text" => false,
                    "json" => true,
                    f => return Err(format!("--format must be text or json for diff, got `{f}`")),
                };
                i += 1;
            }
            file if !file.starts_with('-') => files.push(file),
            other => return Err(format!("unknown option `{other}` (try `muzzle help`)")),
        }
        i += 1;
    }
    let [old_path, new_path] = files[..] else {
        return Err("diff needs exactly two snapshot files: OLD.json NEW.json".to_owned());
    };
    let load = |path: &str| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        parse(&text).map_err(|e| format!("`{path}` is not valid JSON: {e}"))
    };
    let report = diff_snapshots(&load(old_path)?, &load(new_path)?, rel_tol);
    if json {
        println!("{}", report.to_json(old_path, new_path));
    } else {
        print!("{}", report.to_markdown(old_path, new_path));
    }
    let regressions = report.regressions().len();
    if regressions > 0 {
        eprintln!(
            "error: {regressions} quality regression(s) between `{old_path}` and `{new_path}`"
        );
    }
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json");

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The committed snapshot diffs clean against itself; a quality leaf
    /// decayed to NaN (`null` in the snapshot encoding) is a regression
    /// (exit 1); a missing file or a stray flag is a usage error (exit 2).
    #[test]
    fn diff_gates_regressions_and_rejects_bad_input() {
        assert_eq!(cmd_diff(&args(&[BENCH, BENCH])), Ok(true));
        let text = std::fs::read_to_string(BENCH).unwrap();
        let key = "\"clock_timed_makespan_us\": ";
        let start = text.find(key).unwrap() + key.len();
        let end = start + text[start..].find([',', '}']).unwrap();
        let nan = std::env::temp_dir().join(format!("muzzle-nan-{}.json", std::process::id()));
        std::fs::write(&nan, format!("{}null{}", &text[..start], &text[end..])).unwrap();
        let nan = nan.to_str().unwrap();
        assert_eq!(
            cmd_diff(&args(&[BENCH, nan, "--format", "json"])),
            Ok(false)
        );
        std::fs::remove_file(nan).unwrap();

        let missing = cmd_diff(&args(&[BENCH, "no-such-snapshot.json"])).unwrap_err();
        assert!(
            missing.starts_with("cannot read `no-such-snapshot.json`"),
            "{missing}"
        );
        for bad in [
            &[BENCH][..],
            &[BENCH, BENCH, "--json"],
            &[BENCH, BENCH, "--format", "csv"],
            &[BENCH, BENCH, "--rel-tol", "-1"],
        ] {
            assert!(cmd_diff(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(cmd_snapshot(&args(&["--per-size", "2"])).is_err());
    }
}
