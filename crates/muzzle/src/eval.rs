//! The `eval` subcommand: the paper's comparison report over a suite.
//!
//! Reproduces the shape of the paper's evaluation (§IV): per-benchmark
//! baseline-vs-optimized shuttle counts (Table II), program-fidelity
//! improvement (Fig. 8), and compile times (Table III), prefaced by the
//! Fig. 4 worked example — the four-gate program on which the baseline's
//! excess-capacity policy ping-pongs ion 2 for 4 shuttles while the
//! future-ops policy moves ion 1 once.
//!
//! The JSON document and the suite checks come from
//! [`qccd_bench::report`], whose rows `BENCH.json` pins as well.
//! `--format paper` prints the paper's own artefacts instead
//! ([`crate::paper`]), with the random suite's aggregate rows.

use crate::output::csv_row;
use crate::paper::render_paper;
use crate::{emit, parse_common};
use qccd_bench::report::{fig4_worked_example, report_json, SuiteChecks};
use qccd_bench::{compare_timed, parse_per_size, ComparisonRow, RANDOM_SUITE_SEED};
use qccd_circuit::generators::{paper_suite, random_suite, BenchmarkCircuit};
use qccd_machine::MachineSpec;
use qccd_sim::SimParams;

/// Scaled-down versions of the paper's benchmarks (the integration suite),
/// for quick runs and CI smoke tests.
fn mini_suite() -> Vec<BenchmarkCircuit> {
    use qccd_circuit::generators::{
        qaoa, qft, quadratic_form, random_circuit, square_root, supremacy,
    };
    let bench = |name: &str, circuit| BenchmarkCircuit {
        name: name.to_owned(),
        circuit,
    };
    vec![
        bench("supremacy-mini", supremacy(4, 4, 12)),
        bench("qaoa-mini", qaoa(16, 4, 3)),
        bench("sqrt-mini", square_root(16, 3)),
        bench("qft-mini", qft(16)),
        bench("quadform-mini", quadratic_form(16, 200)),
        bench("random-mini", random_circuit(18, 200, 9)),
    ]
}

/// Entry point for `muzzle eval`.
pub fn cmd_eval(args: &[String]) -> Result<(), String> {
    let opts = parse_common(args, &["--suite", "--per-size"], &["--verbose", "--quiet"])?;
    crate::apply_verbosity(&opts);
    opts.reject_flags(
        &[
            "--circuit",
            "--qubits",
            "--traps",
            "--capacity",
            "--comm",
            "--topology",
            "--policy",
            "--proximity",
            "--router",
            "--objective",
            "--jobs",
        ],
        "each eval suite fixes its machine and circuits, and always runs \
         the baseline-vs-optimized policy pair under both routers plus the \
         packed and clock-objective stacks, sequentially (use \
         compile/simulate/sweep for custom setups; --timing composes)",
    )?;
    let suite_name = opts
        .extra_values
        .iter()
        .find(|(k, _)| k == "--suite")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| "paper".to_owned());
    let paper_format = opts.format == "paper";
    if paper_format && suite_name != "paper" {
        return Err(format!(
            "--format paper prints the paper's artefacts and needs --suite paper, \
             got --suite {suite_name}"
        ));
    }
    let per_size = match opts.extra_values.iter().find(|(k, _)| k == "--per-size") {
        Some(_) if suite_name != "random" && !paper_format => {
            return Err(format!(
                "--per-size is not supported here: --suite {suite_name} runs no random \
                 circuits (use --suite random, or --suite paper --format paper)"
            ))
        }
        Some((_, v)) => parse_per_size(v)?,
        None => 30,
    };

    let params = SimParams::default();
    let model = crate::parse_timing_model(&opts.timing);
    let (machine, suite) = match suite_name.as_str() {
        "paper" => (MachineSpec::paper_l6(), paper_suite()),
        "mini" => (
            MachineSpec::linear(3, 8, 2).map_err(|e| e.to_string())?,
            mini_suite(),
        ),
        "random" => (
            MachineSpec::paper_l6(),
            random_suite(per_size, RANDOM_SUITE_SEED),
        ),
        other => {
            return Err(format!(
                "unknown suite `{other}` (expected paper, mini, or random)"
            ))
        }
    };

    qccd_obs::info("eval", || {
        format!(
            "evaluating {} benchmarks on {machine} (policy comparison)...",
            suite.len()
        )
    });
    let compare = |benches: &[BenchmarkCircuit]| -> Vec<ComparisonRow> {
        benches
            .iter()
            .map(|bench| {
                qccd_obs::info("eval", || format!("  {}", bench.name));
                compare_timed(bench, &machine, &params, &model)
            })
            .collect()
    };
    let rows = compare(&suite);
    let report = match opts.format.as_str() {
        "paper" => {
            let random = compare(&random_suite(per_size, RANDOM_SUITE_SEED));
            render_paper(&machine, &opts.timing, per_size, &rows, &random)
        }
        "json" => format!(
            "{}\n",
            report_json(&suite_name, &machine, &opts.timing, &rows)
        ),
        "csv" => render_csv(&opts.timing, &rows),
        _ => render_text(&suite_name, &machine, &opts.timing, &rows),
    };
    emit(&report, &opts.out)
}

fn render_text(suite: &str, machine: &MachineSpec, timing: &str, rows: &[ComparisonRow]) -> String {
    let fig4 = fig4_worked_example();
    let checks = SuiteChecks::of(rows);
    let mut out = String::new();
    out.push_str(&format!(
        "# muzzle eval — suite `{suite}` on {machine} (timing {timing})\n\n"
    ));
    out.push_str(&format!(
        "Fig. 4 worked example: baseline {} shuttles, optimized {} shuttles (paper: 4 vs. 1)\n\n",
        fig4.0, fig4.1
    ));
    out.push_str(&format!(
        "{:<16} {:>6} {:>9} {:>9} {:>10} {:>6} {:>8} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6} {:>5} {:>4} {:>12} {:>5} {:>5}\n",
        "Benchmark",
        "Qubits",
        "2Q gates",
        "Baseline",
        "This Work",
        "D(dn)",
        "%D",
        "Depth",
        "PkDep",
        "TMkspn(us)",
        "PkMkspn(us)",
        "CkMkspn(us)",
        "SMkspn(us)",
        "BMkspn(us)",
        "Junc",
        "Idle%",
        "Hot",
        "Fidelity gain",
        "Dur%",
        "Mot%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>6} {:>9} {:>9} {:>10} {:>6} {:>7.2}% {:>6} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>6} {:>4.1}% {:>4} {:>11.2}X {:>4.1}% {:>4.1}%\n",
            r.name,
            r.qubits,
            r.two_qubit_gates,
            r.baseline_shuttles,
            r.optimized_shuttles,
            r.delta(),
            r.delta_percent(),
            r.transport_depth,
            r.packed_depth,
            r.transport_sim.timed_makespan_us,
            r.packed_sim.timed_makespan_us,
            r.clock_sim.timed_makespan_us,
            r.optimized_sim.timed_makespan_us,
            r.baseline_sim.timed_makespan_us,
            r.transport_sim.junction_crossings,
            100.0 * r.idle_fraction,
            format!("T{}", r.hottest_trap),
            r.fidelity_improvement(),
            100.0 * r.clock_duration_share,
            100.0 * r.clock_motional_share
        ));
    }
    let verdict = |ok: bool| if ok { "yes" } else { "NO — regression!" };
    let n = rows.len();
    out.push_str(&format!(
        "\noptimized <= baseline on every benchmark: {}\n\
         optimized fidelity >= baseline on every benchmark: {}\n\
         congestion router <= serial router on every benchmark: {}\n\
         benchmarks with transport depth strictly below shuttle count: {} of {n}\n\
         benchmarks where concurrent timed makespan <= serial: {} of {n}\n\
         packed timed makespan <= lookahead on every benchmark: {}\n\
         benchmarks where packing strictly beat lookahead: {} of {n}\n\
         clock objective <= packed on every benchmark: {}\n\
         benchmarks where the clock objective strictly beat packed: {} of {n}\n",
        verdict(checks.all_leq),
        if checks.fidelity_geq { "yes" } else { "no" },
        verdict(checks.congestion_leq),
        checks.depth_wins,
        checks.timed_makespan_wins,
        verdict(checks.packed_leq_lookahead),
        checks.packed_strict_wins,
        verdict(checks.clock_leq_packed),
        checks.clock_strict_wins,
    ));
    out
}

fn render_csv(timing: &str, rows: &[ComparisonRow]) -> String {
    let mut out = String::from(
        "benchmark,qubits,two_qubit_gates,baseline_shuttles,optimized_shuttles,delta,\
         delta_percent,congestion_shuttles,transport_depth,packed_shuttles,packed_depth,\
         timing,serial_makespan_us,transport_makespan_us,serial_timed_makespan_us,\
         transport_timed_makespan_us,lookahead_timed_makespan_us,packed_timed_makespan_us,\
         clock_timed_makespan_us,zone_moves,junction_crossings,fidelity_improvement,\
         baseline_compile_s,optimized_compile_s,clock_compile_s,\
         idle_fraction,hottest_trap,hottest_trap_busy_us,clock_duration_share,\
         clock_motional_share\n",
    );
    for r in rows {
        out.push_str(&csv_row(&[
            r.name.clone(),
            r.qubits.to_string(),
            r.two_qubit_gates.to_string(),
            r.baseline_shuttles.to_string(),
            r.optimized_shuttles.to_string(),
            r.delta().to_string(),
            format!("{:.3}", r.delta_percent()),
            r.congestion_shuttles.to_string(),
            r.transport_depth.to_string(),
            r.packed_shuttles.to_string(),
            r.packed_depth.to_string(),
            timing.to_owned(),
            format!("{:.3}", r.optimized_sim.makespan_us),
            format!("{:.3}", r.transport_sim.makespan_us),
            format!("{:.3}", r.optimized_sim.timed_makespan_us),
            format!("{:.3}", r.transport_sim.timed_makespan_us),
            format!("{:.3}", r.lookahead_timed_makespan_us),
            format!("{:.3}", r.packed_timed_makespan_us),
            format!("{:.3}", r.clock_timed_makespan_us),
            r.transport_sim.zone_moves.to_string(),
            r.transport_sim.junction_crossings.to_string(),
            format!("{:.4}", r.fidelity_improvement()),
            format!("{:.6}", r.baseline_compile_s),
            format!("{:.6}", r.optimized_compile_s),
            format!("{:.6}", r.clock_compile_s),
            format!("{:.4}", r.idle_fraction),
            r.hottest_trap.to_string(),
            format!("{:.3}", r.hottest_trap_busy_us),
            format!("{:.4}", r.clock_duration_share),
            format!("{:.4}", r.clock_motional_share),
        ]));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Runs `muzzle eval` with `list` plus `--quiet --out FILE` and
    /// returns the report.
    fn report(list: &[&str], tag: &str) -> String {
        let out = std::env::temp_dir().join(format!("muzzle-eval-{tag}-{}", std::process::id()));
        let out_arg = out.to_str().unwrap();
        cmd_eval(&args(&[list, &["--quiet", "--out", out_arg]].concat())).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        std::fs::remove_file(&out).unwrap();
        text
    }

    /// `--format paper` prints the paper's Table II with the pinned
    /// baseline/optimized shuttle pairs, then every later section.
    #[test]
    fn paper_format_prints_the_pinned_table_ii() {
        let text = report(&["--format", "paper", "--per-size", "1"], "paper");
        let table = text.split("## Table II").nth(1).unwrap();
        let table = table.split("\n\n").next().unwrap();
        for (name, baseline, optimized) in [
            ("Supremacy", "582", "356"),
            ("QAOA", "2251", "1337"),
            ("SquareRoot", "1301", "568"),
            ("QFT", "311", "294"),
            ("QuadraticForm", "1062", "450"),
        ] {
            let row = table.lines().find(|l| l.starts_with(name)).unwrap();
            let cells: Vec<&str> = row.split_whitespace().collect();
            assert_eq!((cells[3], cells[4]), (baseline, optimized), "{row}");
        }
        assert!(table.contains("Random"), "the random aggregate row");
        assert!(text.contains("## Initial-mapping ablation"));
    }

    /// The optimized policy loses fidelity to the baseline on the paper
    /// suite's QFT under both timing models, and on no mini benchmark.
    #[test]
    fn fidelity_check_reads_no_on_paper_and_yes_on_mini() {
        for (suite, timing, geq) in [
            ("paper", "ideal", false),
            ("paper", "realistic", false),
            ("mini", "ideal", true),
            ("mini", "realistic", true),
        ] {
            let list = ["--suite", suite, "--timing", timing, "--format", "json"];
            let doc = report(&list, &format!("{suite}-{timing}"));
            let flag = format!("\"all_optimized_fidelity_geq_baseline\": {geq}");
            assert!(doc.contains(&flag), "{suite} {timing}");
        }
    }

    /// `--per-size` and `--jobs` are usage errors wherever they would be
    /// accepted and then ignored: `--per-size` where no random suite runs,
    /// `--jobs` always (the suites run sequentially). `--format paper`
    /// needs the paper suite.
    #[test]
    fn ignored_flags_are_rejected_before_any_compile() {
        for (list, want) in [
            (
                &["--suite", "mini", "--per-size", "3"][..],
                "--per-size is not supported here",
            ),
            (
                &["--suite", "paper", "--per-size", "3"],
                "--per-size is not supported here",
            ),
            (
                &["--per-size", "3", "--format", "json"],
                "--per-size is not supported here",
            ),
            (
                &["--suite", "mini", "--jobs", "8"],
                "--jobs is not supported here",
            ),
            (
                &["--suite", "mini", "--format", "paper"],
                "--format paper prints",
            ),
            (
                &["--suite", "random", "--format", "paper"],
                "--format paper prints",
            ),
        ] {
            let err = cmd_eval(&args(list)).unwrap_err();
            assert!(err.starts_with(want), "{list:?} → `{err}`");
        }
    }

    /// `--per-size` of 0 or above the gate bound is a usage error raised
    /// before the suite is generated.
    #[test]
    fn per_size_outside_the_bound_is_a_usage_error() {
        for v in ["0", "1960", "100000000", "18446744073709551615"] {
            let err = parse_per_size(v).unwrap_err();
            let list = ["--suite", "random", "--per-size", v];
            assert_eq!(cmd_eval(&args(&list)).unwrap_err(), err);
        }
        assert!(crate::USAGE.contains("1 to 1959"));
    }
}
