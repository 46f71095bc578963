//! Regenerates every table and figure of the paper's evaluation (§IV).
//!
//! ```text
//! cargo run -p qccd-bench --release --bin paper_eval -- all [--per-size N]
//! ```
//!
//! Subcommands: `table2`, `fig8`, `table3`, `ablation`, `proximity`,
//! `mapping`, `routers`, `timing`, `lookahead`, `pack`, `all`, the
//! `snapshot` gate (writes `BENCH.json` when absent, else checks a fresh
//! run against it), and the snapshot differ
//! `diff OLD.json NEW.json [--rel-tol X] [--json]` (exits 1 on any
//! quality regression).

use qccd_bench::{
    aggregate_random, lookahead_packing_gains, pack_gains, run_nisq_suite, run_random_suite,
    run_timing_sweep, run_topology_router_sweep, standard_topologies, timed_compile, ComparisonRow,
    RANDOM_SUITE_SEED, TIMING_RUNS,
};
use qccd_circuit::generators::{paper_suite, random_suite};
use qccd_core::{
    compile, CompilerConfig, DirectionPolicy, IonSelection, MappingPolicy, RebalancePolicy,
};
use qccd_machine::MachineSpec;
use qccd_obs::json::Json;
use qccd_sim::SimParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `diff` is a pure file-to-file comparison — no compiles, no header
    // (its `--json` output must be a clean document).
    if args.first().map(String::as_str) == Some("diff") {
        diff_cmd(&args[1..]);
        return;
    }
    let mut command = String::from("all");
    let mut per_size = 30usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--per-size" => {
                let value = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage("--per-size needs a number"));
                per_size = qccd_bench::parse_per_size(value).unwrap_or_else(|e| usage(&e));
                i += 2;
            }
            "table2" | "fig8" | "table3" | "ablation" | "proximity" | "mapping" | "routers"
            | "timing" | "lookahead" | "pack" | "snapshot" | "all" => {
                command = args[i].clone();
                i += 1;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let spec = MachineSpec::paper_l6();
    let params = SimParams::default();
    println!("# muzzle-shuttle paper evaluation");
    println!(
        "# machine: {spec}   random suite: {per_size} circuits/size, seed {RANDOM_SUITE_SEED:#x}"
    );
    println!();

    let needs_suite = matches!(command.as_str(), "table2" | "fig8" | "table3" | "all");
    let (nisq, random) = if needs_suite {
        qccd_obs::info("paper_eval", || "compiling NISQ suite...".to_owned());
        let nisq = run_nisq_suite(&spec, &params);
        qccd_obs::info("paper_eval", || {
            format!("compiling random suite ({} circuits)...", per_size * 4)
        });
        let random = run_random_suite(&spec, &params, per_size);
        (nisq, random)
    } else {
        (Vec::new(), Vec::new())
    };

    match command.as_str() {
        "table2" => table2(&nisq, &random),
        "fig8" => fig8(&nisq, &random),
        "table3" => table3(&nisq, &random),
        "ablation" => ablation(&spec),
        "proximity" => proximity(&spec),
        "mapping" => mapping_ablation(&spec),
        "routers" => routers(&params),
        "timing" => timing(&spec, &params),
        "lookahead" => lookahead(&spec),
        "pack" => pack(&spec),
        "snapshot" => snapshot(&spec, &params),
        "all" => {
            table2(&nisq, &random);
            fig8(&nisq, &random);
            table3(&nisq, &random);
            ablation(&spec);
            proximity(&spec);
            mapping_ablation(&spec);
            routers(&params);
            timing(&spec, &params);
            lookahead(&spec);
            pack(&spec);
        }
        _ => unreachable!("validated above"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: paper_eval [table2|fig8|table3|ablation|proximity|mapping|routers|timing|lookahead|pack|snapshot|all] [--per-size N]\n       paper_eval diff OLD.json NEW.json [--rel-tol X] [--json]"
    );
    std::process::exit(2);
}

/// `paper_eval diff OLD.json NEW.json`: schema-aware comparison of two
/// BENCH snapshots. Quality metrics are classified by direction
/// (regression / improvement / unchanged); wall-clock and `profile` /
/// `explain` / `fidelity` data is informational. Exits 1 iff the diff contains at
/// least one quality regression.
fn diff_cmd(args: &[String]) {
    let mut files: Vec<String> = Vec::new();
    let mut rel_tol = 0.0f64;
    let mut json_out = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rel-tol" => {
                let value = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage("--rel-tol needs a non-negative number"));
                rel_tol = value
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        usage(&format!(
                            "--rel-tol: `{value}` is not a valid non-negative number"
                        ))
                    });
                i += 2;
            }
            "--json" => {
                json_out = true;
                i += 1;
            }
            other if !other.starts_with('-') => {
                files.push(other.to_owned());
                i += 1;
            }
            other => usage(&format!("unknown diff argument `{other}`")),
        }
    }
    if files.len() != 2 {
        usage("diff needs exactly two snapshot files: OLD.json NEW.json");
    }
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        qccd_obs::json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: `{path}` is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let old = load(&files[0]);
    let new = load(&files[1]);
    let report = qccd_bench::diff::diff_snapshots(&old, &new, rel_tol);
    if json_out {
        println!("{}", report.to_json(&files[0], &files[1]));
    } else {
        print!("{}", report.to_markdown(&files[0], &files[1]));
    }
    let regressions = report.regressions();
    if !regressions.is_empty() {
        eprintln!(
            "error: {} quality regression(s) between `{}` and `{}`",
            regressions.len(),
            files[0],
            files[1]
        );
        std::process::exit(1);
    }
}

/// One benchmark's critical-path explanation.
struct ExplainedBenchmark {
    steps: usize,
    json: Json,
}

/// Attributes the makespan of `chosen`, the clock pipeline's artifact
/// for `bench`, along its critical path.
///
/// # Panics
///
/// Panics if the attribution segments do not sum bit-for-bit to the
/// makespan, or if the critical path is empty or not contiguous.
fn explain_benchmark(
    bench: &qccd_circuit::generators::BenchmarkCircuit,
    chosen: &qccd_core::CompileResult,
    model: &qccd_core::TimingModel,
) -> ExplainedBenchmark {
    use qccd_timing::{attribute_path, critical_path};

    let path = critical_path(&chosen.timeline, &bench.circuit);
    let attribution = attribute_path(&chosen.timeline, model, &path);
    assert!(
        attribution.total_us().to_bits() == chosen.timeline.makespan_us.to_bits(),
        "{}: attribution identity violated ({} vs {})",
        bench.name,
        attribution.total_us(),
        chosen.timeline.makespan_us
    );
    assert!(
        !path.steps.is_empty() && path.is_contiguous(),
        "{}: critical path is empty or not contiguous",
        bench.name
    );
    let json = Json::obj(vec![
        ("makespan_us", Json::Num(attribution.makespan_us)),
        ("critical_path_steps", Json::int(path.steps.len())),
        (
            "blame_counts",
            Json::Obj(
                path.blame_counts()
                    .iter()
                    .map(|(b, n)| (b.label().to_owned(), Json::int(*n)))
                    .collect(),
            ),
        ),
        (
            "attribution",
            Json::obj(vec![
                ("gate_us", Json::Num(attribution.gate_us)),
                ("flight_us", Json::Num(attribution.flight_us)),
                ("split_merge_us", Json::Num(attribution.split_merge_us)),
                ("junction_us", Json::Num(attribution.junction_us)),
                ("zone_move_us", Json::Num(attribution.zone_move_us)),
                ("idle_wait_us", Json::Num(attribution.idle_wait_us)),
                ("total_us", Json::Num(attribution.total_us())),
                (
                    "identity",
                    Json::Bool(
                        attribution.total_us().to_bits() == attribution.makespan_us.to_bits(),
                    ),
                ),
            ]),
        ),
    ]);
    ExplainedBenchmark {
        steps: path.steps.len(),
        json,
    }
}

/// The per-benchmark `"fidelity"` snapshot value: the loss-decomposition
/// totals, the duration/motional shares, and the top-3 worst gates and
/// hottest traps by blamed heat loss.
fn fidelity_json(attr: &qccd_sim::FidelityAttribution) -> Json {
    Json::obj(vec![
        (
            "log_program_fidelity",
            Json::Num(attr.report.log_program_fidelity),
        ),
        ("total_log_loss", Json::Num(attr.total_loss())),
        ("duration_loss", Json::Num(attr.gate_duration_loss)),
        ("motional_loss", Json::Num(attr.gate_motional_loss)),
        ("zero_point_loss", Json::Num(attr.gate_zero_point_loss)),
        ("heat_loss", Json::Num(attr.gate_heat_loss)),
        ("shuttle_pulse_loss", Json::Num(attr.shuttle_pulse_loss)),
        ("duration_share", Json::Num(attr.duration_share())),
        ("motional_share", Json::Num(attr.motional_share())),
        ("saturated_gates", Json::int(attr.saturated_gates)),
        ("identity", Json::Bool(attr.identity_holds())),
        (
            "worst_gates",
            Json::Arr(
                attr.worst_gates(3)
                    .iter()
                    .filter_map(|t| match t {
                        qccd_sim::LossTerm::Gate {
                            gate,
                            trap,
                            log_loss,
                            n_bar,
                            ..
                        } => Some(Json::obj(vec![
                            ("gate", Json::int(gate.index())),
                            ("trap", Json::int(trap.index())),
                            ("log_loss", Json::Num(*log_loss)),
                            ("n_bar", Json::Num(*n_bar)),
                        ])),
                        qccd_sim::LossTerm::Shuttle { .. } => None,
                    })
                    .collect(),
            ),
        ),
        (
            "hottest_traps",
            Json::Arr(
                attr.hottest_traps(3)
                    .iter()
                    .map(|(trap, blamed, gross)| {
                        Json::obj(vec![
                            ("trap", Json::int(*trap)),
                            ("blamed_log_loss", Json::Num(*blamed)),
                            ("gross_quanta", Json::Num(*gross)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The committed snapshot `paper_eval snapshot` checks (run from the
/// repository root), and where it writes the fresh run when one exists.
const SNAPSHOT: &str = "BENCH.json";
const FRESH_SNAPSHOT: &str = "BENCH.new.json";

/// `paper_eval snapshot`: builds the whole `BENCH.json` document and
/// gates it. Every identity is asserted in-run, on every paper
/// benchmark:
///
/// * the clock pipeline at `--jobs` 1, 4 and 8 is bit-for-bit identical
///   (chosen makespan bits, clock stats, schedule, transport), and the
///   report row's clock makespan is the `compile_clock` artifact's, to
///   the bit (with the row's `all_clock_leq_packed` and
///   `clock_strict_win_count` pinned, this is the clock-vs-packed
///   acceptance);
/// * instrumentation observes, never decides, and the delta scorer
///   serves every candidate ([`qccd_bench::profile::profile_suite`]);
/// * the critical-path attribution sums bit-for-bit to the makespan over
///   a non-empty path;
/// * the fidelity attribution reproduces `log_program_fidelity` bit for
///   bit, with a positive total loss, duration and motional shares in
///   `[0, 1]` summing to at most 1, and non-empty worst-gate and
///   hottest-trap lists.
///
/// With no `BENCH.json` present the run writes it (a deliberate re-pin,
/// which the change's diff then shows). Otherwise it writes
/// `BENCH.new.json` and panics, naming the paths, unless the two agree
/// bit for bit outside the wall-clock keys
/// ([`qccd_bench::diff::snapshot_mismatches`]).
fn snapshot(spec: &MachineSpec, params: &SimParams) {
    use qccd_bench::profile::{render_snapshot, SnapshotRow};
    use std::time::Instant;

    println!("## BENCH.json snapshot (paper suite, realistic timing)");
    let model = qccd_core::TimingModel::realistic();
    let clock_config = CompilerConfig::optimized().with_timing(model);
    println!(
        "{:<16} {:>14} {:>5} {:>11} {:>11} {:>8} {:>6} {:>12} {:>6} {:>6}",
        "Benchmark",
        "Makespan(us)",
        "Ties",
        "jobs=1 (s)",
        "jobs=4 (s)",
        "Speedup",
        "Steps",
        "-lnF",
        "Dur%",
        "Mot%"
    );
    let suite = paper_suite();
    qccd_obs::info("paper_eval", || "profiling paper suite...".to_owned());
    let profiles = qccd_bench::profile::profile_suite(&suite, spec, params, &model);
    let mut rows: Vec<SnapshotRow> = Vec::new();
    for (bench, profile) in suite.iter().zip(profiles) {
        let run = |jobs: usize, runs: usize| {
            let config = clock_config.with_jobs(jobs);
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..runs {
                let start = Instant::now();
                let result = qccd_pack::compile_clock(&bench.circuit, spec, &config)
                    .expect("benchmark circuits compile under the clock objective");
                best = best.min(start.elapsed().as_secs_f64());
                last = Some(result);
            }
            (best, last.expect("at least one timing run"))
        };
        let (secs1, (chosen, stats)) = run(1, TIMING_RUNS);
        let (secs4, wide4) = run(4, TIMING_RUNS);
        let (_, wide8) = run(8, 1);
        for (jobs, (result, wide_stats)) in [(4usize, &wide4), (8, &wide8)] {
            assert!(
                *wide_stats == stats,
                "{}: clock stats diverged at jobs={jobs} ({wide_stats:?} vs {stats:?})",
                bench.name
            );
            assert!(
                result.timeline.makespan_us.to_bits() == chosen.timeline.makespan_us.to_bits(),
                "{}: chosen makespan diverged at jobs={jobs} ({} vs {})",
                bench.name,
                result.timeline.makespan_us,
                chosen.timeline.makespan_us
            );
            assert!(
                result.schedule == chosen.schedule && result.transport == chosen.transport,
                "{}: chosen schedule diverged at jobs={jobs}",
                bench.name
            );
        }
        let explained = explain_benchmark(bench, &chosen, &model);
        assert!(
            profile.row.clock_timed_makespan_us.to_bits() == chosen.timeline.makespan_us.to_bits(),
            "{}: profiled clock row diverged from the jobs determinism sweep ({} vs {})",
            bench.name,
            profile.row.clock_timed_makespan_us,
            chosen.timeline.makespan_us
        );
        let attr = qccd_sim::attribute_fidelity_timed(
            &chosen.schedule,
            &chosen.transport,
            &bench.circuit,
            spec,
            params,
            &model,
        )
        .expect("benchmark schedules replay under the physics model");
        check_fidelity(&bench.name, &attr);
        println!(
            "{:<16} {:>14.1} {:>5} {:>11.3} {:>11.3} {:>7.2}x {:>6} {:>12.4e} {:>5.1}% {:>5.1}%",
            bench.name,
            chosen.timeline.makespan_us,
            stats.clock_ties,
            secs1,
            secs4,
            secs1 / secs4,
            explained.steps,
            attr.total_loss(),
            100.0 * attr.duration_share(),
            100.0 * attr.motional_share()
        );
        rows.push(SnapshotRow {
            profile,
            explain: explained.json,
            fidelity: fidelity_json(&attr),
            jobs: Json::obj(vec![
                ("compile_seconds_jobs1", Json::Num(secs1)),
                ("compile_seconds_jobs4", Json::Num(secs4)),
                ("compile_seconds_speedup_jobs4", Json::Num(secs1 / secs4)),
            ]),
        });
    }
    println!(
        "\nall {} benchmarks bit-for-bit identical at jobs 1, 4 and 8; every identity holds",
        rows.len()
    );

    let fresh = render_snapshot(spec, "realistic", &rows, true);
    let committed = match std::fs::read_to_string(SNAPSHOT) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            std::fs::write(SNAPSHOT, &fresh).expect("can write BENCH.json");
            println!(
                "no {SNAPSHOT} to check against: wrote it ({} bytes)",
                fresh.len()
            );
            return;
        }
        Err(e) => panic!("cannot read {SNAPSHOT}: {e}"),
    };
    std::fs::write(FRESH_SNAPSHOT, &fresh).expect("can write BENCH.new.json");
    println!("wrote {FRESH_SNAPSHOT} ({} bytes)", fresh.len());
    let mismatches = qccd_bench::diff::snapshot_mismatches(
        &qccd_obs::json::parse(&committed).expect("the committed BENCH.json parses"),
        &qccd_obs::json::parse(&fresh).expect("the fresh snapshot parses"),
    );
    assert!(
        mismatches.is_empty(),
        "{FRESH_SNAPSHOT} diverged from the committed {SNAPSHOT} outside the wall-clock keys \
         at {} path(s): {}\n(re-pin on purpose by replacing {SNAPSHOT} with {FRESH_SNAPSHOT})",
        mismatches.len(),
        mismatches.join(", ")
    );
    println!("bit-for-bit equal to {SNAPSHOT} outside the wall-clock keys: yes");
    println!();
}

/// The fidelity attribution's sanity bounds on one benchmark.
///
/// # Panics
///
/// Panics if the loss terms and heat ledger do not reproduce
/// `log_program_fidelity` bit for bit, if the total loss is not positive,
/// if a share leaves `[0, 1]` or the two shares sum above 1, or if no
/// worst gate or hottest trap is blamed.
fn check_fidelity(name: &str, attr: &qccd_sim::FidelityAttribution) {
    let (duration, motional) = (attr.duration_share(), attr.motional_share());
    assert!(
        attr.identity_holds(),
        "{name}: fidelity attribution identity violated"
    );
    assert!(
        attr.total_loss() > 0.0,
        "{name}: total log loss {} is not positive",
        attr.total_loss()
    );
    assert!(
        (0.0..=1.0).contains(&duration)
            && (0.0..=1.0).contains(&motional)
            && duration + motional <= 1.0 + 1e-12,
        "{name}: loss shares out of range (duration {duration}, motional {motional})"
    );
    assert!(
        attr.worst_gates(3)
            .iter()
            .any(|t| matches!(t, qccd_sim::LossTerm::Gate { .. }))
            && !attr.hottest_traps(3).is_empty(),
        "{name}: no worst gate or hottest trap blamed"
    );
}

/// Topology × router sweep: the paper benchmarks on the L6-class machine
/// re-shaped as line, ring and grid, under the serial and congestion
/// routers.
fn routers(params: &SimParams) {
    println!("## Topology x router sweep (optimized policy stack, capacity 17, comm 2)");
    println!(
        "{:<16} {:>6} {:>24} {:>8} {:>6} {:>12}",
        "Benchmark", "Topo", "Router", "Shuttle", "Depth", "Makespan(us)"
    );
    qccd_obs::info("paper_eval", || "topology x router sweep...".to_owned());
    let rows = run_topology_router_sweep(&paper_suite(), &standard_topologies(6), 17, 2, params);
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>24} {:>8} {:>6} {:>12.1}",
            r.name, r.topology, r.router, r.shuttles, r.depth, r.makespan_us
        );
    }
    println!();
}

/// Timing-model sweep: how much of the uniform-hop makespan survives the
/// QCCDSim-style constants (finite segment speed, junction corner/swap
/// time, timed zone moves).
fn timing(spec: &MachineSpec, params: &SimParams) {
    println!("## Timing-model sweep (optimized policy stack)");
    println!(
        "{:<16} {:>24} {:>10} {:>6} {:>14} {:>6}",
        "Benchmark", "Router", "Timing", "Depth", "TMakespan(us)", "Junc"
    );
    qccd_obs::info("paper_eval", || "timing-model sweep...".to_owned());
    let rows = run_timing_sweep(&paper_suite(), spec, params);
    for r in &rows {
        println!(
            "{:<16} {:>24} {:>10} {:>6} {:>14.1} {:>6}",
            r.name, r.router, r.timing, r.depth, r.timed_makespan_us, r.junction_crossings
        );
    }
    println!();
}

/// Lookahead round packing: before/after transport depths.
fn lookahead(spec: &MachineSpec) {
    println!("## Lookahead round packing (congestion router) — transport depth");
    println!(
        "{:<16} {:>8} {:>10} {:>6}",
        "Benchmark", "Greedy", "Lookahead", "Gain"
    );
    qccd_obs::info("paper_eval", || "lookahead packing...".to_owned());
    let rows = lookahead_packing_gains(&paper_suite(), spec);
    let mut regressions = 0usize;
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>10} {:>6}",
            r.name,
            r.greedy_depth,
            r.lookahead_depth,
            r.greedy_depth as i64 - r.lookahead_depth as i64
        );
        if r.lookahead_depth > r.greedy_depth {
            regressions += 1;
        }
    }
    // The never-deeper invariant holds by construction (pack_lookahead
    // falls back to greedy); debug builds re-assert it, release reports.
    debug_assert_eq!(regressions, 0, "lookahead packing must never deepen");
    if regressions > 0 {
        println!("WARNING: {regressions} benchmark(s) regressed under lookahead");
    }
    println!();
}

/// Timeline-driven packing: before/after transport depth and timed
/// makespan (realistic device model). This doubles as the PR 4 acceptance
/// gate: packed timed makespan must be ≤ lookahead on every paper
/// benchmark and *strictly* lower on QAOA.
fn pack(spec: &MachineSpec) {
    println!("## qccd-pack — cross-gate packing + batched layer planning (realistic timing)");
    println!(
        "{:<16} {:>7} {:>7} {:>7} {:>12} {:>12} {:>9} {:>6} {:>7}",
        "Benchmark",
        "Greedy",
        "Look",
        "Packed",
        "LookMk(us)",
        "PackMk(us)",
        "Gain(us)",
        "Hoist",
        "Replan"
    );
    qccd_obs::info("paper_eval", || "pack gains...".to_owned());
    let rows = pack_gains(&paper_suite(), spec);
    for r in &rows {
        println!(
            "{:<16} {:>7} {:>7} {:>7} {:>12.1} {:>12.1} {:>9.1} {:>6} {:>7}",
            r.name,
            r.greedy_depth,
            r.lookahead_depth,
            r.packed_depth,
            r.lookahead_makespan_us,
            r.packed_makespan_us,
            r.lookahead_makespan_us - r.packed_makespan_us,
            r.hoisted_hops,
            r.replanned_runs
        );
        assert!(
            r.packed_makespan_us <= r.lookahead_makespan_us,
            "{}: packing regressed the timed makespan",
            r.name
        );
    }
    let qaoa = rows.iter().find(|r| r.name == "QAOA").expect("QAOA row");
    assert!(
        qaoa.packed_makespan_us < qaoa.lookahead_makespan_us,
        "QAOA packed makespan must strictly beat lookahead"
    );
    println!();
}

/// Table II: reduction in the number of shuttles.
fn table2(nisq: &[ComparisonRow], random: &[ComparisonRow]) {
    println!("## Table II — Reduction in the number of shuttles");
    println!(
        "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>8}",
        "Benchmark", "Qubits", "2Q gates", "[7]", "This Work", "D(dn)", "%D"
    );
    for r in nisq {
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.2}%",
            r.name,
            r.qubits,
            r.two_qubit_gates,
            r.baseline_shuttles,
            r.optimized_shuttles,
            r.delta(),
            r.delta_percent()
        );
    }
    if !random.is_empty() {
        let a = aggregate_random(random);
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.2}%   (means; s in parens below)",
            "Random",
            "60-75",
            format!("{:.0}", a.gates.0),
            format!("{:.0}", a.baseline.0),
            format!("{:.0}", a.optimized.0),
            format!("{:.0}", a.delta.0),
            a.delta_percent.0
        );
        println!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.0}",
            "  (std dev)",
            "",
            format!("({:.0})", a.gates.1),
            format!("({:.0})", a.baseline.1),
            format!("({:.0})", a.optimized.1),
            format!("({:.0})", a.delta.1),
            a.delta_percent.1
        );
    }
    println!();
}

/// Fig. 8: improvement in program fidelity.
fn fig8(nisq: &[ComparisonRow], random: &[ComparisonRow]) {
    println!("## Fig. 8 — Program fidelity improvement (optimized / baseline)");
    println!(
        "{:<14} {:>12} {:>14} {:>14}",
        "Benchmark", "Improvement", "F(baseline)", "F(this work)"
    );
    for r in nisq {
        println!(
            "{:<14} {:>11.2}X {:>14.3e} {:>14.3e}",
            r.name,
            r.fidelity_improvement(),
            r.baseline_sim.program_fidelity,
            r.optimized_sim.program_fidelity
        );
    }
    if !random.is_empty() {
        let a = aggregate_random(random);
        println!(
            "{:<14} {:>11.2}X {:>14} {:>14}   (geometric mean)",
            "Random", a.fidelity_improvement_geomean, "-", "-"
        );
    }
    println!();
}

/// Table III: compilation time overhead.
fn table3(nisq: &[ComparisonRow], random: &[ComparisonRow]) {
    println!("## Table III — Compilation time overhead");
    println!(
        "{:<14} {:>18} {:>14} {:>10}",
        "Benchmark", "This work (sec)", "[7] (sec)", "D(up)"
    );
    for r in nisq {
        println!(
            "{:<14} {:>18.4} {:>14.4} {:>10.4}",
            r.name,
            r.optimized_compile_s,
            r.baseline_compile_s,
            r.compile_overhead_s()
        );
    }
    if !random.is_empty() {
        let a = aggregate_random(random);
        println!(
            "{:<14} {:>18.4} {:>14.4} {:>10.4}   (means)",
            "Random",
            a.compile_s.1,
            a.compile_s.0,
            a.compile_s.1 - a.compile_s.0
        );
    }
    println!();
}

/// Ablation: each heuristic toggled independently (§III design choices).
fn ablation(spec: &MachineSpec) {
    println!("## Ablation — shuttle count per enabled heuristic");
    let baseline = CompilerConfig::baseline();
    let mut dir_only = baseline;
    dir_only.direction = DirectionPolicy::FutureOps {
        proximity: CompilerConfig::DEFAULT_PROXIMITY,
    };
    let mut dir_reorder = dir_only;
    dir_reorder.reorder = true;
    let mut rebalance_only = baseline;
    rebalance_only.rebalance = RebalancePolicy::NearestNeighbor;
    rebalance_only.ion_selection = IonSelection::MaxScore { wd: 0.5, ws: 0.5 };
    let mut literal_gate_distance = CompilerConfig::optimized();
    literal_gate_distance.direction = DirectionPolicy::FutureOpsGateDistance {
        proximity: CompilerConfig::DEFAULT_PROXIMITY,
    };
    let configs: [(&str, CompilerConfig); 6] = [
        ("baseline", baseline),
        ("+direction", dir_only),
        ("+dir+reorder", dir_reorder),
        ("+rebalance", rebalance_only),
        ("full(optimized)", CompilerConfig::optimized()),
        ("full(gate-dist)", literal_gate_distance),
    ];
    print!("{:<14}", "Benchmark");
    for (name, _) in &configs {
        print!(" {:>16}", name);
    }
    println!();
    for bench in paper_suite() {
        print!("{:<14}", bench.name);
        for (_, config) in &configs {
            let shuttles = compile(&bench.circuit, spec, config)
                .expect("paper benchmarks compile on the paper machine")
                .stats
                .shuttles;
            print!(" {:>16}", shuttles);
        }
        println!();
    }
    println!();
}

/// §IV-E3 initial-mapping exploration: how much of the result depends on
/// the shared greedy placement.
fn mapping_ablation(spec: &MachineSpec) {
    println!("## Initial-mapping ablation — optimized-compiler shuttles per placement policy");
    let policies: [(&str, MappingPolicy); 3] = [
        ("greedy[14]", MappingPolicy::GreedyInteraction),
        ("round-robin", MappingPolicy::RoundRobin),
        ("random", MappingPolicy::RandomBalanced { seed: 7 }),
    ];
    print!("{:<14}", "Benchmark");
    for (name, _) in &policies {
        print!(" {:>14}", format!("base/{name}"));
        print!(" {:>14}", format!("opt/{name}"));
    }
    println!();
    for bench in paper_suite() {
        print!("{:<14}", bench.name);
        for (_, mapping) in &policies {
            for mut config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
                config.mapping = *mapping;
                let shuttles = compile(&bench.circuit, spec, &config)
                    .expect("paper benchmarks compile on the paper machine")
                    .stats
                    .shuttles;
                print!(" {:>14}", shuttles);
            }
        }
        println!();
    }
    println!();
}

/// §III-A3 proximity design-parameter sweep.
fn proximity(spec: &MachineSpec) {
    println!("## Proximity sweep — shuttles vs design parameter (paper picks 6)");
    let proxies = [1u32, 2, 3, 4, 6, 8, 12, 16, 24];
    print!("{:<14} {:>9}", "Benchmark", "baseline");
    for p in proxies {
        print!(" {:>7}", format!("p={p}"));
    }
    println!();
    let mut suite = paper_suite();
    suite.extend(random_suite(2, RANDOM_SUITE_SEED));
    for bench in suite {
        let (base, _) = timed_compile(&bench.circuit, spec, &CompilerConfig::baseline());
        print!("{:<14} {:>9}", bench.name, base.stats.shuttles);
        for p in proxies {
            let cfg = CompilerConfig::optimized_with_proximity(p);
            let (r, _) = timed_compile(&bench.circuit, spec, &cfg);
            print!(" {:>7}", r.stats.shuttles);
        }
        println!();
    }
    println!();
}

#[cfg(test)]
mod tests {
    use qccd_bench::compare;
    use qccd_machine::MachineSpec;
    use qccd_sim::SimParams;

    #[test]
    fn comparison_row_delta_math() {
        let spec = MachineSpec::linear(2, 6, 2).unwrap();
        let params = SimParams::default();
        let bench = qccd_circuit::generators::BenchmarkCircuit {
            name: "t".into(),
            circuit: qccd_circuit::generators::random_circuit(8, 40, 1),
        };
        let row = compare(&bench, &spec, &params);
        assert_eq!(
            row.delta(),
            row.baseline_shuttles as i64 - row.optimized_shuttles as i64
        );
    }
}
