//! The `eval` subcommand: the paper's comparison report over a suite.
//!
//! Reproduces the shape of the paper's evaluation (§IV): per-benchmark
//! baseline-vs-optimized shuttle counts (Table II), program-fidelity
//! improvement (Fig. 8), and compile times (Table III), prefaced by the
//! Fig. 4 worked example — the four-gate program on which the baseline's
//! excess-capacity policy ping-pongs ion 2 for 4 shuttles while the
//! future-ops policy moves ion 1 once.

use crate::output::{csv_row, Json};
use crate::{emit, parse_common};
use qccd_bench::{compare_timed, ComparisonRow, RANDOM_SUITE_SEED};
use qccd_circuit::generators::{paper_suite, random_suite, BenchmarkCircuit};
use qccd_circuit::parser::parse_program;
use qccd_core::{compile_with_mapping, CompilerConfig};
use qccd_machine::{InitialMapping, MachineSpec, TrapId};
use qccd_sim::SimParams;

/// Shuttle counts of the Fig. 4 worked example under both policies.
struct Fig4 {
    baseline_shuttles: usize,
    optimized_shuttles: usize,
}

/// Runs the paper's Fig. 4 worked example: `MS q1,q2; MS q2,q3; MS q1,q2;
/// MS q2,q4;` on two traps of capacity 4 with ions 0-1 in T0 and 2-4 in T1.
fn fig4_worked_example() -> Result<Fig4, String> {
    let circuit = parse_program(
        "MS q[1], q[2];\nMS q[2], q[3];\nMS q[1], q[2];\nMS q[2], q[4];",
        5,
    )
    .map_err(|e| e.to_string())?;
    let spec = MachineSpec::linear(2, 4, 1).map_err(|e| e.to_string())?;
    let mapping = InitialMapping::from_traps(
        &spec,
        vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
    )
    .map_err(|e| e.to_string())?;
    let baseline = compile_with_mapping(
        &circuit,
        &spec,
        &CompilerConfig::baseline(),
        mapping.clone(),
    )
    .map_err(|e| e.to_string())?;
    let optimized = compile_with_mapping(&circuit, &spec, &CompilerConfig::optimized(), mapping)
        .map_err(|e| e.to_string())?;
    Ok(Fig4 {
        baseline_shuttles: baseline.stats.shuttles,
        optimized_shuttles: optimized.stats.shuttles,
    })
}

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

/// The most gates one random-suite circuit can have: the suite samples
/// `1438 + 413 × 1.7 × (a + b − 1)` gates with `a + b < 2`, rounded.
const RANDOM_SUITE_CIRCUIT_GATES: u64 = 2140;

/// The largest `--per-size`: the random suite (four sizes, `per_size`
/// circuits each) must stay within [`spec::MAX_GATES`](crate::spec::MAX_GATES)
/// gates in the worst case.
const MAX_PER_SIZE: u64 = crate::spec::MAX_GATES / (4 * RANDOM_SUITE_CIRCUIT_GATES);

/// Parses `--per-size`, rejecting 0 (a vacuous report over no circuits)
/// and values above [`MAX_PER_SIZE`] before generating anything.
fn parse_per_size(v: &str) -> Result<usize, String> {
    let n: u64 = v
        .parse()
        .map_err(|_| format!("--per-size: `{v}` is not a valid number"))?;
    if n == 0 || n > MAX_PER_SIZE {
        return Err(format!(
            "--per-size must be between 1 and {MAX_PER_SIZE} (the random suite may hold at \
             most {} gates), got {n}",
            crate::spec::MAX_GATES
        ));
    }
    Ok(n as usize)
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
            "--score-mode",
        ],
        "each eval suite fixes its machine and circuits, and always runs \
         the baseline-vs-optimized policy pair under both routers plus the \
         packed and clock-objective stacks (use compile/simulate/sweep for \
         custom setups; --timing composes)",
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

    let fig4 = fig4_worked_example()?;
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
    let checks = EvalChecks {
        all_leq,
        congestion_leq,
        depth_wins,
        timed_makespan_wins,
        packed_leq_lookahead,
        packed_strict_wins,
        clock_leq_packed,
        clock_strict_wins,
    };

    let report = match opts.format.as_str() {
        "json" => render_json(&suite_name, &machine, &opts.timing, &fig4, &rows, &checks),
        "csv" => render_csv(&opts.timing, &rows),
        _ => render_text(&suite_name, &machine, &opts.timing, &fig4, &rows, &checks),
    };
    emit(&report, &opts.out)
}

/// Suite-level acceptance flags reported alongside the per-benchmark rows.
struct EvalChecks {
    /// Optimized shuttle count ≤ baseline on every benchmark (Table II).
    all_leq: bool,
    /// Congestion-routed shuttle count ≤ serial on every benchmark.
    congestion_leq: bool,
    /// Benchmarks whose concurrent transport depth is strictly below the
    /// serial shuttle count.
    depth_wins: usize,
    /// Benchmarks whose congestion-routed *timed* makespan (under the
    /// selected timing model) is at or below the serial router's.
    timed_makespan_wins: usize,
    /// Packed timed makespan ≤ lookahead on every benchmark (the packer's
    /// never-regress guarantee, re-checked end to end).
    packed_leq_lookahead: bool,
    /// Benchmarks where packing *strictly* beat lookahead on the clock.
    packed_strict_wins: usize,
    /// Clock-objective timed makespan ≤ packed on every benchmark (the
    /// clock pipeline's never-regress guarantee, re-checked end to end).
    clock_leq_packed: bool,
    /// Benchmarks where the clock objective *strictly* beat the packed
    /// stack on the device clock.
    clock_strict_wins: usize,
}

fn render_text(
    suite: &str,
    machine: &MachineSpec,
    timing: &str,
    fig4: &Fig4,
    rows: &[ComparisonRow],
    checks: &EvalChecks,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# muzzle eval — suite `{suite}` on {machine} (timing {timing})\n\n"
    ));
    out.push_str(&format!(
        "Fig. 4 worked example: baseline {} shuttles, optimized {} shuttles (paper: 4 vs. 1)\n\n",
        fig4.baseline_shuttles, fig4.optimized_shuttles
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
         baseline_compile_s,optimized_compile_s,clock_compile_s,clock_full_compile_s,\
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
            format!("{:.6}", r.clock_full_compile_s),
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

fn render_json(
    suite: &str,
    machine: &MachineSpec,
    timing: &str,
    fig4: &Fig4,
    rows: &[ComparisonRow],
    checks: &EvalChecks,
) -> String {
    let benchmarks = rows
        .iter()
        .map(|r| {
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
                    Json::obj(vec![
                        (
                            "program_fidelity",
                            Json::Num(r.baseline_sim.program_fidelity),
                        ),
                        ("makespan_us", Json::Num(r.baseline_sim.makespan_us)),
                        ("compile_seconds", Json::Num(r.baseline_compile_s)),
                    ]),
                ),
                (
                    "optimized",
                    Json::obj(vec![
                        (
                            "program_fidelity",
                            Json::Num(r.optimized_sim.program_fidelity),
                        ),
                        ("makespan_us", Json::Num(r.optimized_sim.makespan_us)),
                        ("compile_seconds", Json::Num(r.optimized_compile_s)),
                    ]),
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
                        ("compile_seconds_full", Json::Num(r.clock_full_compile_s)),
                        ("program_fidelity", Json::Num(r.clock_sim.program_fidelity)),
                        ("fidelity_duration_share", Json::Num(r.clock_duration_share)),
                        ("fidelity_motional_share", Json::Num(r.clock_motional_share)),
                    ]),
                ),
                (
                    "utilization",
                    Json::obj(vec![
                        ("idle_fraction", Json::Num(r.idle_fraction)),
                        ("hottest_trap", Json::int(r.hottest_trap)),
                        ("hottest_trap_busy_us", Json::Num(r.hottest_trap_busy_us)),
                    ]),
                ),
            ])
        })
        .collect();
    let value = Json::obj(vec![
        ("suite", Json::str(suite)),
        ("machine", Json::str(machine.to_string())),
        ("timing", Json::str(timing)),
        (
            "fig4_worked_example",
            Json::obj(vec![
                ("baseline_shuttles", Json::int(fig4.baseline_shuttles)),
                ("optimized_shuttles", Json::int(fig4.optimized_shuttles)),
            ]),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
        ("all_optimized_leq_baseline", Json::Bool(checks.all_leq)),
        (
            "all_congestion_leq_serial",
            Json::Bool(checks.congestion_leq),
        ),
        ("depth_strictly_lower_count", Json::int(checks.depth_wins)),
        (
            "timed_makespan_leq_serial_count",
            Json::int(checks.timed_makespan_wins),
        ),
        (
            "all_packed_leq_lookahead",
            Json::Bool(checks.packed_leq_lookahead),
        ),
        (
            "packed_strict_win_count",
            Json::int(checks.packed_strict_wins),
        ),
        ("all_clock_leq_packed", Json::Bool(checks.clock_leq_packed)),
        (
            "clock_strict_win_count",
            Json::int(checks.clock_strict_wins),
        ),
    ]);
    let mut text = value.to_string();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--per-size` of 0 or above the gate bound is a usage error raised
    /// before the suite is generated (those once reported on zero
    /// circuits, aborted on allocation, or overflowed the suite's size).
    #[test]
    fn per_size_outside_the_bound_is_a_usage_error() {
        assert_eq!(MAX_PER_SIZE, 1959);
        assert_eq!(parse_per_size("1959"), Ok(1959));
        for v in ["0", "1960", "100000000", "18446744073709551615"] {
            let err = parse_per_size(v).unwrap_err();
            assert!(err.contains("between 1 and 1959"), "{v} → `{err}`");
            let args: Vec<String> = ["--suite", "random", "--per-size", v]
                .map(str::to_owned)
                .to_vec();
            assert_eq!(cmd_eval(&args).unwrap_err(), err);
        }
        assert!(crate::USAGE.contains("1 to 1959"));
    }

    #[test]
    fn random_suite_circuits_stay_within_the_per_circuit_bound() {
        let suite = random_suite(100, RANDOM_SUITE_SEED ^ 0x5EED);
        let most = suite.iter().map(|b| b.circuit.len()).max().unwrap();
        assert!(most as u64 <= RANDOM_SUITE_CIRCUIT_GATES, "{most}");
    }
}
