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

use crate::output::csv_row;
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
    vec![
        BenchmarkCircuit {
            name: "supremacy-mini".into(),
            circuit: supremacy(4, 4, 12),
        },
        BenchmarkCircuit {
            name: "qaoa-mini".into(),
            circuit: qaoa(16, 4, 3),
        },
        BenchmarkCircuit {
            name: "sqrt-mini".into(),
            circuit: square_root(16, 3),
        },
        BenchmarkCircuit {
            name: "qft-mini".into(),
            circuit: qft(16),
        },
        BenchmarkCircuit {
            name: "quadform-mini".into(),
            circuit: quadratic_form(16, 200),
        },
        BenchmarkCircuit {
            name: "random-mini".into(),
            circuit: random_circuit(18, 200, 9),
        },
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
    let per_size = match opts.extra_values.iter().find(|(k, _)| k == "--per-size") {
        Some((_, v)) => parse_per_size(v)?,
        None => 5,
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
    let rows: Vec<ComparisonRow> = suite
        .iter()
        .map(|bench| {
            qccd_obs::info("eval", || format!("  {}", bench.name));
            compare_timed(bench, &machine, &params, &model)
        })
        .collect();
    let report = match opts.format.as_str() {
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
        "{:<16} {:>6} {:>9} {:>9} {:>10} {:>6} {:>8} {:>6} {:>6} {:>12} {:>12} {:>12} {:>12} {:>6} {:>5} {:>4} {:>12} {:>5} {:>5}\n",
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
        "Junc",
        "Idle%",
        "Hot",
        "Fidelity gain",
        "Dur%",
        "Mot%"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>6} {:>9} {:>9} {:>10} {:>6} {:>7.2}% {:>6} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>6} {:>4.1}% {:>4} {:>11.2}X {:>4.1}% {:>4.1}%\n",
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
            r.transport_sim.junction_crossings,
            100.0 * r.idle_fraction,
            format!("T{}", r.hottest_trap),
            r.fidelity_improvement(),
            100.0 * r.clock_duration_share,
            100.0 * r.clock_motional_share
        ));
    }
    out.push_str(&format!(
        "\noptimized <= baseline on every benchmark: {}\n",
        if checks.all_leq {
            "yes"
        } else {
            "NO — regression!"
        }
    ));
    out.push_str(&format!(
        "congestion router <= serial router on every benchmark: {}\n",
        if checks.congestion_leq {
            "yes"
        } else {
            "NO — regression!"
        }
    ));
    out.push_str(&format!(
        "benchmarks with transport depth strictly below shuttle count: {} of {}\n",
        checks.depth_wins,
        rows.len()
    ));
    out.push_str(&format!(
        "benchmarks where concurrent timed makespan <= serial: {} of {}\n",
        checks.timed_makespan_wins,
        rows.len()
    ));
    out.push_str(&format!(
        "packed timed makespan <= lookahead on every benchmark: {}\n",
        if checks.packed_leq_lookahead {
            "yes"
        } else {
            "NO — regression!"
        }
    ));
    out.push_str(&format!(
        "benchmarks where packing strictly beat lookahead: {} of {}\n",
        checks.packed_strict_wins,
        rows.len()
    ));
    out.push_str(&format!(
        "clock objective <= packed on every benchmark: {}\n",
        if checks.clock_leq_packed {
            "yes"
        } else {
            "NO — regression!"
        }
    ));
    out.push_str(&format!(
        "benchmarks where the clock objective strictly beat packed: {} of {}\n",
        checks.clock_strict_wins,
        rows.len()
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

    /// `--per-size` of 0 or above the gate bound is a usage error raised
    /// before the suite is generated.
    #[test]
    fn per_size_outside_the_bound_is_a_usage_error() {
        for v in ["0", "1960", "100000000", "18446744073709551615"] {
            let err = parse_per_size(v).unwrap_err();
            let args: Vec<String> = ["--suite", "random", "--per-size", v]
                .map(str::to_owned)
                .to_vec();
            assert_eq!(cmd_eval(&args).unwrap_err(), err);
        }
        assert!(crate::USAGE.contains("1 to 1959"));
    }

    /// The suites always run sequentially, so `--jobs` is a usage error
    /// rather than a flag that is accepted and then ignored.
    #[test]
    fn jobs_is_rejected_before_any_compile() {
        let args: Vec<String> = ["--suite", "mini", "--jobs", "8"]
            .map(str::to_owned)
            .to_vec();
        let err = cmd_eval(&args).unwrap_err();
        assert!(err.starts_with("--jobs is not supported here"), "{err}");
    }
}
