//! `muzzle` — command-line driver for the muzzle-shuttle QCCD compiler.
//!
//! Compiles quantum circuits onto multi-trap trapped-ion machines under the
//! paper's baseline (Murali et al., ISCA'20) and optimized (DATE'22)
//! shuttle policies, replays them through the fidelity/timing simulator,
//! and reproduces the paper's comparison reports.
//!
//! ```text
//! muzzle compile  --circuit qft:16 --traps 2            # shuttle stats
//! muzzle simulate --circuit qaoa:64x13 --compare        # fidelity report
//! muzzle sweep    --param proximity --values 1,2,4,6,12 # design sweep
//! muzzle eval     --suite paper                         # Table II / Fig. 8
//! ```
//!
//! Run `muzzle help` for the full option list. Reports emit as `text`
//! (default), `json`, or `csv` via `--format`, to stdout or `--out FILE`.

mod eval;
mod explain;
mod output;
mod spec;

use qccd_core::{
    compile, CompileResult, CompilerConfig, DirectionPolicy, Objective, RouterPolicy,
    ScheduleAnalysis, TimingModel,
};
use qccd_machine::MachineSpec;
use qccd_obs::json::Json;
use qccd_sim::{simulate_timed, SimParams, SimReport};
use spec::{parse_circuit, CircuitSpec, MachineOptions};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
muzzle — shuttle-efficient compilation for multi-trap trapped-ion machines

USAGE:
    muzzle <COMMAND> [OPTIONS]

COMMANDS:
    compile     Compile one circuit and report shuttle statistics
    simulate    Compile, then replay through the fidelity/timing simulator
    sweep       Sweep proximity or trap count and tabulate shuttle counts
    eval        Reproduce the paper's comparison report over a suite
    explain     Compile one circuit and explain where its makespan goes:
                critical path, per-kind attribution, trap/edge utilization
    help        Show this message

CIRCUIT / MACHINE OPTIONS (compile, simulate, sweep):
    --circuit SPEC      qft:16 | qaoa:64x13[@seed] | supremacy:8x8x20 |
                        sqrt:78x9 | quadform:64x3400 | random:60x1438[@seed] |
                        file:PATH (program text; requires --qubits)
                        (generated circuits may have at most 16777216
                        gates; larger specs exit 2)
    --qubits N          qubit count for file: circuits
    --traps N           number of traps            [default: 6]
                        (machines may have at most 8192 traps, sized
                        --topology forms included; larger ones exit 2)
    --capacity N        total per-trap capacity    [default: 17]
    --comm N            communication capacity     [default: 2]
    --topology T        linear[:N] | ring[:N] | grid:RxC   [default: linear]
                        (sized forms override --traps)
    --zones G:S:L       per-trap gate/storage/loading zone sizes (must sum
                        to --capacity; default: one gate zone spanning it)

POLICY OPTIONS:
    --policy P          baseline | optimized       [default: optimized]
    --proximity N       future-ops proximity override (optimized only)
    --router R          serial | congestion | lookahead | packed
                        [default: serial]
                        (congestion prices routes by trap fullness and edge
                        load, and schedules transport as concurrent rounds;
                        lookahead additionally backfills hops into earlier
                        compatible rounds; packed then runs the qccd-pack
                        optimizer — cross-gate packing + batched layer
                        planning, keeping the rewrite only when it lowers
                        the timed makespan under the --timing model)
    --timing T          ideal | realistic          [default: ideal]
                        (ideal reproduces the uniform-hop numbers exactly;
                        realistic charges linear-segment speed, junction
                        corner/swap time, and intra-trap zone moves)
    --objective O       shuttles | clock           [default: shuttles]
                        (shuttles is the paper's objective; clock scores
                        direction/rebalance/layer decisions inside the
                        compile loop on projected makespan under --timing,
                        runs the packed transport stack on the result, and
                        keeps it only when it beats the default-objective
                        packed stack on the device clock — never regresses)
    --jobs N            threads for --objective clock [default: 1]
                        (≥ 2 races the clock objective's two arms on two
                        threads; results are bit-for-bit identical at
                        every width)

OUTPUT OPTIONS:
    --format F          text | json | csv          [default: text]
    --out PATH          write the report to PATH instead of stdout

OBSERVABILITY OPTIONS (compile, simulate, eval):
    --trace PATH        write a Chrome-trace JSON of the compile's phase
                        spans and events to PATH (open in about:tracing
                        or ui.perfetto.dev); compile only
    --profile           append a per-phase wall-time breakdown, the
                        hot-path counters, and the recorded histograms
                        (on simulate: the replay's sim.gate_infidelity /
                        sim.gate_nbar distributions) to the report;
                        compile and simulate. Histogram p50/p99 are
                        bucket upper bounds clamped to the largest
                        recorded sample, so a percentile never exceeds
                        any value actually observed
    --verbose           emit debug-level structured events to stderr
    --quiet             suppress structured progress/info events

COMMAND-SPECIFIC:
    compile   --show-schedule     print the compiled operation listing
              --analyze           print trap-flow / ion-travel analysis
    simulate  --compare           simulate both policies and the improvement
    sweep     --param P           proximity | traps
              --values A,B,C      swept values
    eval      --suite S           paper | mini | random   [default: paper]
              --per-size N        random-suite circuits per size [default: 5]
                                  (1 to 1959: four sizes of at most 2140
                                  gates each stay within 16777216 gates;
                                  other values exit 2)
    explain   --top K             bottleneck traps/edges to list [default: 5]
              --gantt PATH        write a per-trap Gantt chart of the
                                  schedule as Chrome-trace JSON to PATH
              --fidelity          add the fidelity X-ray: per-gate log-loss
                                  attribution (duration vs motional) with
                                  heat provenance — worst gates, hottest
                                  traps, costliest shuttles; with --gantt,
                                  per-trap n-bar counter tracks

EXAMPLES:
    muzzle compile --circuit qft:16 --traps 2
    muzzle eval --suite paper --format json --out report.json
    muzzle explain --circuit qaoa:64x13 --timing realistic --router packed
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "compile" => cmd_compile(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "sweep" => cmd_sweep(&args[1..]),
        "eval" => eval::cmd_eval(&args[1..]),
        "explain" => explain::cmd_explain(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}` (try `muzzle help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Common options parsed from the flag list.
pub struct CommonOptions {
    pub circuit: Option<String>,
    pub qubits: Option<u32>,
    pub machine: MachineOptions,
    pub policy: String,
    pub proximity: Option<u32>,
    pub router: String,
    pub timing: String,
    pub objective: String,
    pub jobs: usize,
    pub format: String,
    pub out: Option<String>,
    /// Flags the subcommand recognises beyond the common set.
    pub extra_flags: Vec<String>,
    /// `--key value` pairs the subcommand recognises beyond the common set.
    pub extra_values: Vec<(String, String)>,
    /// Every flag the user explicitly passed, so subcommands can reject
    /// options they would otherwise silently ignore.
    pub seen: Vec<String>,
}

impl CommonOptions {
    /// Errors if the user explicitly passed any of `flags`; `context`
    /// explains why the subcommand cannot honour them.
    pub fn reject_flags(&self, flags: &[&str], context: &str) -> Result<(), String> {
        for flag in flags {
            if self.seen.iter().any(|s| s == flag) {
                return Err(format!("{flag} is not supported here: {context}"));
            }
        }
        Ok(())
    }
}

/// Parses the shared option grammar. `value_flags` lists subcommand flags
/// that take a value; `bool_flags` lists bare subcommand flags.
pub fn parse_common(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<CommonOptions, String> {
    let mut opts = CommonOptions {
        circuit: None,
        qubits: None,
        machine: MachineOptions::default(),
        policy: "optimized".to_owned(),
        proximity: None,
        router: "serial".to_owned(),
        timing: "ideal".to_owned(),
        objective: "shuttles".to_owned(),
        jobs: 1,
        format: "text".to_owned(),
        out: None,
        extra_flags: Vec::new(),
        extra_values: Vec::new(),
        seen: Vec::new(),
    };
    let mut i = 0;
    let next = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with("--") {
            opts.seen.push(arg.to_owned());
        }
        match arg {
            "--circuit" => opts.circuit = Some(next(&mut i, arg)?),
            "--qubits" => {
                opts.qubits = Some(parse_num(&next(&mut i, arg)?, arg)?);
            }
            "--traps" => opts.machine.traps = parse_num(&next(&mut i, arg)?, arg)?,
            "--capacity" => opts.machine.capacity = parse_num(&next(&mut i, arg)?, arg)?,
            "--comm" => opts.machine.comm = parse_num(&next(&mut i, arg)?, arg)?,
            "--topology" => opts.machine.topology = next(&mut i, arg)?,
            "--zones" => opts.machine.zones = Some(next(&mut i, arg)?),
            "--policy" => {
                let p = next(&mut i, arg)?;
                if p != "baseline" && p != "optimized" {
                    return Err(format!("--policy must be baseline or optimized, got `{p}`"));
                }
                opts.policy = p;
            }
            "--proximity" => opts.proximity = Some(parse_num(&next(&mut i, arg)?, arg)?),
            "--router" => {
                let r = next(&mut i, arg)?;
                if !["serial", "congestion", "lookahead", "packed"].contains(&r.as_str()) {
                    return Err(format!(
                        "--router must be serial, congestion, lookahead, or packed, got `{r}`"
                    ));
                }
                opts.router = r;
            }
            "--timing" => {
                let t = next(&mut i, arg)?;
                if t != "ideal" && t != "realistic" {
                    return Err(format!("--timing must be ideal or realistic, got `{t}`"));
                }
                opts.timing = t;
            }
            "--objective" => {
                let o = next(&mut i, arg)?;
                if o != "shuttles" && o != "clock" {
                    return Err(format!("--objective must be shuttles or clock, got `{o}`"));
                }
                opts.objective = o;
            }
            "--jobs" => {
                let v = next(&mut i, arg)?;
                let jobs: usize = parse_num(&v, arg)?;
                if jobs == 0 {
                    return Err(format!("--jobs must be at least 1, got `{v}`"));
                }
                opts.jobs = jobs;
            }
            "--format" => {
                let f = next(&mut i, arg)?;
                if !["text", "json", "csv"].contains(&f.as_str()) {
                    return Err(format!("--format must be text, json, or csv, got `{f}`"));
                }
                opts.format = f;
            }
            "--out" => opts.out = Some(next(&mut i, arg)?),
            flag if value_flags.contains(&flag) => {
                let value = next(&mut i, flag)?;
                opts.extra_values.push((flag.to_owned(), value));
            }
            flag if bool_flags.contains(&flag) => opts.extra_flags.push(flag.to_owned()),
            other => return Err(format!("unknown option `{other}` (try `muzzle help`)")),
        }
        i += 1;
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

/// Resolves a `--timing` value into the device timing model.
pub fn parse_timing_model(timing: &str) -> TimingModel {
    match timing {
        "realistic" => TimingModel::realistic(),
        _ => TimingModel::ideal(),
    }
}

/// Resolves the policy options into a compiler configuration.
///
/// `--proximity` tunes the future-ops scan and is meaningless for the
/// baseline's excess-capacity rule, so that combination is rejected.
/// `--router`, `--timing` and `--objective` compose with either policy
/// (`--objective clock` runs the full packed stack either way — see
/// [`timed`]).
pub fn build_config(
    policy: &str,
    proximity: Option<u32>,
    router: &str,
    timing: &str,
    objective: &str,
    jobs: usize,
) -> Result<CompilerConfig, String> {
    let (router, lookahead) = match router {
        "congestion" => (RouterPolicy::congestion(), false),
        // `packed` compiles exactly like `lookahead`; the qccd-pack passes
        // run post-compile (see `timed`).
        "lookahead" | "packed" => (RouterPolicy::congestion(), true),
        _ => (RouterPolicy::Serial, false),
    };
    let timing = parse_timing_model(timing);
    let objective = match objective {
        "clock" => Objective::Clock,
        _ => Objective::Shuttles,
    };
    if policy == "baseline" {
        if proximity.is_some() {
            return Err(
                "--proximity only applies to --policy optimized (the baseline's \
                 excess-capacity rule has no proximity parameter)"
                    .to_owned(),
            );
        }
        return Ok(CompilerConfig::baseline()
            .with_router(router)
            .with_lookahead(lookahead)
            .with_timing(timing)
            .with_objective(objective)
            .with_jobs(jobs));
    }
    let mut config = CompilerConfig::optimized()
        .with_router(router)
        .with_lookahead(lookahead)
        .with_timing(timing)
        .with_objective(objective)
        .with_jobs(jobs);
    if let Some(p) = proximity {
        config.direction = DirectionPolicy::FutureOps { proximity: p };
    }
    Ok(config)
}

/// Applies `--verbose` / `--quiet` to the structured-event verbosity
/// (default: info-level progress on stderr).
pub fn apply_verbosity(opts: &CommonOptions) {
    if opts.extra_flags.iter().any(|f| f == "--quiet") {
        qccd_obs::set_verbosity(qccd_obs::Verbosity::Quiet);
    } else if opts.extra_flags.iter().any(|f| f == "--verbose") {
        qccd_obs::set_verbosity(qccd_obs::Verbosity::Debug);
    }
}

/// The `--profile` report block: per-phase wall-time breakdown (inclusive
/// and self time) plus every hot-path counter, as JSON.
fn profile_json() -> Json {
    Json::obj(vec![
        (
            "phases",
            Json::Arr(
                qccd_obs::phase_stats()
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("name", Json::str(p.name.as_str())),
                            ("count", Json::int(p.count)),
                            ("total_us", Json::Num(p.total_us)),
                            ("self_us", Json::Num(p.self_us)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                qccd_obs::counters()
                    .into_iter()
                    .map(|(name, value)| (name, Json::int(value as usize)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Arr(
                qccd_obs::histograms()
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
        ("wall_us", Json::Num(qccd_obs::wall_us())),
    ])
}

/// Writes `report` to `--out` or stdout.
pub fn emit(report: &str, out: &Option<String>) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, report).map_err(|e| format!("cannot write `{path}`: {e}"))
        }
        None => {
            print!("{report}");
            Ok(())
        }
    }
}

/// Parses `--circuit`, rejecting circuits with more qubits than
/// `max_qubits` (the machine's ion capacity) before generating them.
fn require_circuit(opts: &CommonOptions, max_qubits: u32) -> Result<CircuitSpec, String> {
    let spec = opts
        .circuit
        .as_deref()
        .ok_or("missing --circuit (e.g. --circuit qft:16)")?;
    parse_circuit(spec, opts.qubits, max_qubits)
}

fn sim_report_json(report: &SimReport) -> Json {
    Json::obj(vec![
        ("program_fidelity", Json::Num(report.program_fidelity)),
        (
            "log_program_fidelity",
            Json::Num(report.log_program_fidelity),
        ),
        ("makespan_us", Json::Num(report.makespan_us)),
        ("timed_makespan_us", Json::Num(report.timed_makespan_us)),
        ("shuttles", Json::int(report.shuttles)),
        ("shuttle_depth", Json::int(report.shuttle_depth)),
        ("gates", Json::int(report.gates)),
        ("zone_moves", Json::int(report.zone_moves)),
        ("junction_crossings", Json::int(report.junction_crossings)),
        (
            "final_mean_motional_mode",
            Json::Num(report.final_mean_motional_mode),
        ),
        (
            "final_mean_motional_mode_occupied",
            Json::Num(report.final_mean_motional_mode_occupied),
        ),
        ("min_gate_fidelity", Json::Num(report.min_gate_fidelity)),
    ])
}

fn compile_stats_json(result: &CompileResult, compile_s: f64) -> Json {
    let s = &result.stats;
    Json::obj(vec![
        ("shuttles", Json::int(s.shuttles)),
        ("rebalance_shuttles", Json::int(s.rebalance_shuttles)),
        ("transport_depth", Json::int(s.transport_depth)),
        ("gate_ops", Json::int(s.gate_ops)),
        ("local_gates", Json::int(s.local_gates)),
        ("reorders", Json::int(s.reorders)),
        ("rebalances", Json::int(s.rebalances)),
        (
            "opposite_direction_moves",
            Json::int(s.opposite_direction_moves),
        ),
        ("timed_makespan_us", Json::Num(result.timeline.makespan_us)),
        ("zone_moves", Json::int(result.timeline.zone_moves)),
        (
            "junction_crossings",
            Json::int(result.timeline.junction_crossings),
        ),
        ("compile_seconds", Json::Num(compile_s)),
    ])
}

fn clock_stats_json(c: &qccd_pack::ClockStats) -> Json {
    Json::obj(vec![
        ("packed_makespan_us", Json::Num(c.packed_makespan_us)),
        ("clock_makespan_us", Json::Num(c.clock_makespan_us)),
        ("chosen_makespan_us", Json::Num(c.chosen_makespan_us)),
        ("clock_ties", Json::int(c.clock_ties)),
        ("batched_layers", Json::int(c.batched_layers)),
        ("batched_hops", Json::int(c.batched_hops)),
        ("improved", Json::Bool(c.improved)),
    ])
}

fn pack_stats_json(p: &qccd_pack::PackStats) -> Json {
    Json::obj(vec![
        ("input_depth", Json::int(p.input_depth)),
        ("packed_depth", Json::int(p.packed_depth)),
        ("input_makespan_us", Json::Num(p.input_makespan_us)),
        ("packed_makespan_us", Json::Num(p.packed_makespan_us)),
        ("hoisted_hops", Json::int(p.hoisted_hops)),
        ("replanned_runs", Json::int(p.replanned_runs)),
        ("dropped_hops", Json::int(p.dropped_hops)),
        ("improved", Json::Bool(p.improved)),
    ])
}

/// One compile through the selected stack, with wall-clock time:
/// `--objective clock` runs the clock pipeline
/// ([`qccd_pack::compile_clock`] — timed compile loop raced against the
/// default packed stack), `--router packed` runs the qccd-pack passes
/// ([`qccd_pack::compile_packed`]), anything else the plain compiler.
fn timed(
    circuit: &qccd_circuit::Circuit,
    machine: &MachineSpec,
    config: &CompilerConfig,
    pack: bool,
) -> Result<
    (
        CompileResult,
        Option<qccd_pack::PackStats>,
        Option<qccd_pack::ClockStats>,
        f64,
    ),
    String,
> {
    let start = Instant::now();
    if config.objective == Objective::Clock {
        let (result, stats) =
            qccd_pack::compile_clock(circuit, machine, config).map_err(|e| e.to_string())?;
        return Ok((result, None, Some(stats), start.elapsed().as_secs_f64()));
    }
    if pack {
        let (result, stats) =
            qccd_pack::compile_packed(circuit, machine, config).map_err(|e| e.to_string())?;
        return Ok((result, Some(stats), None, start.elapsed().as_secs_f64()));
    }
    let result = compile(circuit, machine, config).map_err(|e| e.to_string())?;
    Ok((result, None, None, start.elapsed().as_secs_f64()))
}

// ---------------------------------------------------------------- compile

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let opts = parse_common(
        args,
        &["--trace"],
        &[
            "--show-schedule",
            "--analyze",
            "--profile",
            "--verbose",
            "--quiet",
        ],
    )?;
    apply_verbosity(&opts);
    let machine = opts.machine.build()?;
    let circuit = require_circuit(&opts, machine.initial_capacity())?;
    let config = build_config(
        &opts.policy,
        opts.proximity,
        &opts.router,
        &opts.timing,
        &opts.objective,
        opts.jobs,
    )?;
    let trace = opts
        .extra_values
        .iter()
        .find(|(k, _)| k == "--trace")
        .map(|(_, v)| v.clone());
    let profile = opts.extra_flags.iter().any(|f| f == "--profile");
    // Instrumentation observes, never decides: the compile below is
    // bit-for-bit identical with or without the recorder enabled.
    if trace.is_some() || profile {
        qccd_obs::reset();
        qccd_obs::enable();
    }
    let (result, pack_stats, clock_stats, compile_s) =
        timed(&circuit.circuit, &machine, &config, opts.router == "packed")?;
    if trace.is_some() || profile {
        qccd_obs::disable();
    }
    if let Some(path) = &trace {
        std::fs::write(path, qccd_obs::chrome_trace())
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    let mut report = String::new();
    match opts.format.as_str() {
        "json" => {
            let value = Json::obj(vec![
                ("circuit", Json::str(&circuit.name)),
                ("qubits", Json::int(circuit.circuit.num_qubits() as usize)),
                (
                    "two_qubit_gates",
                    Json::int(circuit.circuit.two_qubit_gate_count()),
                ),
                ("machine", Json::str(machine.to_string())),
                ("policy", Json::str(&opts.policy)),
                ("config", Json::str(config.to_string())),
                ("stats", compile_stats_json(&result, compile_s)),
            ]);
            let value = match pack_stats {
                Some(p) => value.with_field("pack", pack_stats_json(&p)),
                None => value,
            };
            let value = match clock_stats {
                Some(c) => value.with_field("clock", clock_stats_json(&c)),
                None => value,
            };
            let value = if profile {
                value.with_field("profile", profile_json())
            } else {
                value
            };
            report.push_str(&value.to_string());
            report.push('\n');
        }
        "csv" => {
            report.push_str("circuit,machine,policy,router,timing,shuttles,rebalance_shuttles,transport_depth,timed_makespan_us,zone_moves,gates,local_gates,reorders,rebalances,compile_seconds\n");
            report.push_str(&output::csv_row(&[
                circuit.name.clone(),
                machine.to_string(),
                opts.policy.clone(),
                opts.router.clone(),
                opts.timing.clone(),
                result.stats.shuttles.to_string(),
                result.stats.rebalance_shuttles.to_string(),
                result.stats.transport_depth.to_string(),
                format!("{:.3}", result.timeline.makespan_us),
                result.timeline.zone_moves.to_string(),
                result.stats.gate_ops.to_string(),
                result.stats.local_gates.to_string(),
                result.stats.reorders.to_string(),
                result.stats.rebalances.to_string(),
                format!("{compile_s:.6}"),
            ]));
            report.push('\n');
        }
        _ => {
            report.push_str(&format!(
                "circuit  {} ({} qubits, {} two-qubit gates)\n",
                circuit.name,
                circuit.circuit.num_qubits(),
                circuit.circuit.two_qubit_gate_count()
            ));
            report.push_str(&format!("machine  {machine}\n"));
            report.push_str(&format!("policy   {} ({config})\n", opts.policy));
            report.push_str(&format!("result   {}\n", result.stats));
            report.push_str(&format!(
                "timeline {:.1} us makespan ({}), {} zone moves, {} junction crossings\n",
                result.timeline.makespan_us,
                opts.timing,
                result.timeline.zone_moves,
                result.timeline.junction_crossings
            ));
            if let Some(p) = &pack_stats {
                report.push_str(&format!(
                    "pack     depth {} -> {}, timed makespan {:.1} -> {:.1} us ({} hoisted, {} runs replanned{})\n",
                    p.input_depth,
                    p.packed_depth,
                    p.input_makespan_us,
                    p.packed_makespan_us,
                    p.hoisted_hops,
                    p.replanned_runs,
                    if p.improved { "" } else { "; no gain — kept lookahead" }
                ));
            }
            if let Some(c) = &clock_stats {
                report.push_str(&format!(
                    "clock    timed makespan {:.1} us packed -> {:.1} us ({} ties on the clock, {} batched layers / {} hops{})\n",
                    c.packed_makespan_us,
                    c.chosen_makespan_us,
                    c.clock_ties,
                    c.batched_layers,
                    c.batched_hops,
                    if c.improved { "" } else { "; no gain — kept packed" }
                ));
            }
            report.push_str(&format!("time     {compile_s:.4} s\n"));
            if profile {
                report.push_str(&qccd_obs::summary_table());
            }
        }
    }

    if opts.extra_flags.iter().any(|f| f == "--analyze") {
        let analysis = ScheduleAnalysis::analyze(
            &result.schedule,
            machine.num_traps(),
            circuit.circuit.num_qubits(),
        );
        report.push_str(&format!(
            "analysis shuttle/gate ratio {:.3}, stationary ions {:.1}%, ping-pong volume {}\n",
            analysis.shuttle_to_gate_ratio(),
            100.0 * analysis.stationary_ion_fraction(),
            analysis.total_ping_pong(),
        ));
        if let Some((ion, hops)) = analysis.busiest_ion() {
            report.push_str(&format!("         busiest ion {ion} with {hops} hops\n"));
        }
    }
    if opts.extra_flags.iter().any(|f| f == "--show-schedule") {
        report.push_str(&result.schedule.to_text(&circuit.circuit));
    }
    emit(&report, &opts.out)
}

// --------------------------------------------------------------- simulate

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let opts = parse_common(args, &[], &["--compare", "--profile"])?;
    let machine = opts.machine.build()?;
    let circuit = require_circuit(&opts, machine.initial_capacity())?;
    let params = SimParams::default();
    let compare = opts.extra_flags.iter().any(|f| f == "--compare");
    let profile = opts.extra_flags.iter().any(|f| f == "--profile");
    // Instrumentation observes, never decides: the compile + replay below
    // are bit-for-bit identical with or without the recorder enabled.
    if profile {
        qccd_obs::reset();
        qccd_obs::enable();
    }

    // Every schedule replays through its compiled transport rounds (one
    // hop per round under the serial router — the historical replay) on
    // the timed event timeline of the selected --timing model.
    let model = parse_timing_model(&opts.timing);
    let pack = opts.router == "packed";
    let run = |config: &CompilerConfig| -> Result<(CompileResult, SimReport), String> {
        let (result, _, _, _) = timed(&circuit.circuit, &machine, config, pack)?;
        let report = simulate_timed(
            &result.schedule,
            &result.transport,
            &circuit.circuit,
            &machine,
            &params,
            &model,
        )
        .map_err(|e| e.to_string())?;
        Ok((result, report))
    };

    let mut report = String::new();
    if compare {
        opts.reject_flags(
            &["--policy"],
            "--compare always runs both the baseline and optimized policies",
        )?;
        let (_, base) = run(&build_config(
            "baseline",
            None,
            &opts.router,
            &opts.timing,
            &opts.objective,
            opts.jobs,
        )?)?;
        let (_, opt) = run(&build_config(
            "optimized",
            opts.proximity,
            &opts.router,
            &opts.timing,
            &opts.objective,
            opts.jobs,
        )?)?;
        if profile {
            qccd_obs::disable();
        }
        match opts.format.as_str() {
            "json" => {
                let value = Json::obj(vec![
                    ("circuit", Json::str(&circuit.name)),
                    ("machine", Json::str(machine.to_string())),
                    ("baseline", sim_report_json(&base)),
                    ("optimized", sim_report_json(&opt)),
                    (
                        "fidelity_improvement",
                        Json::Num(opt.fidelity_improvement_over(&base)),
                    ),
                ]);
                let value = if profile {
                    value.with_field("profile", profile_json())
                } else {
                    value
                };
                report.push_str(&value.to_string());
                report.push('\n');
            }
            "csv" => {
                report.push_str(
                    "circuit,machine,policy,timing,program_fidelity,makespan_us,timed_makespan_us,shuttles,gates,zone_moves\n",
                );
                for (policy, r) in [("baseline", &base), ("optimized", &opt)] {
                    report.push_str(&output::csv_row(&[
                        circuit.name.clone(),
                        machine.to_string(),
                        policy.to_owned(),
                        opts.timing.clone(),
                        format!("{:e}", r.program_fidelity),
                        format!("{:.3}", r.makespan_us),
                        format!("{:.3}", r.timed_makespan_us),
                        r.shuttles.to_string(),
                        r.gates.to_string(),
                        r.zone_moves.to_string(),
                    ]));
                    report.push('\n');
                }
            }
            _ => {
                report.push_str(&format!("circuit   {} on {machine}\n", circuit.name));
                report.push_str(&format!("baseline  {base}\n"));
                report.push_str(&format!("optimized {opt}\n"));
                report.push_str(&format!(
                    "improvement {:.2}X ({} fewer shuttles)\n",
                    opt.fidelity_improvement_over(&base),
                    base.shuttles as i64 - opt.shuttles as i64
                ));
                if profile {
                    report.push_str(&qccd_obs::summary_table());
                }
            }
        }
    } else {
        let config = build_config(
            &opts.policy,
            opts.proximity,
            &opts.router,
            &opts.timing,
            &opts.objective,
            opts.jobs,
        )?;
        let (_, sim) = run(&config)?;
        if profile {
            qccd_obs::disable();
        }
        match opts.format.as_str() {
            "json" => {
                let value = Json::obj(vec![
                    ("circuit", Json::str(&circuit.name)),
                    ("machine", Json::str(machine.to_string())),
                    ("policy", Json::str(&opts.policy)),
                    ("report", sim_report_json(&sim)),
                ]);
                let value = if profile {
                    value.with_field("profile", profile_json())
                } else {
                    value
                };
                report.push_str(&value.to_string());
                report.push('\n');
            }
            "csv" => {
                report.push_str(
                    "circuit,machine,policy,timing,program_fidelity,makespan_us,timed_makespan_us,shuttles,gates,zone_moves\n",
                );
                report.push_str(&output::csv_row(&[
                    circuit.name.clone(),
                    machine.to_string(),
                    opts.policy.clone(),
                    opts.timing.clone(),
                    format!("{:e}", sim.program_fidelity),
                    format!("{:.3}", sim.makespan_us),
                    format!("{:.3}", sim.timed_makespan_us),
                    sim.shuttles.to_string(),
                    sim.gates.to_string(),
                    sim.zone_moves.to_string(),
                ]));
                report.push('\n');
            }
            _ => {
                report.push_str(&format!(
                    "circuit {} on {machine} ({})\n{sim}\n",
                    circuit.name, opts.policy
                ));
                if profile {
                    report.push_str(&qccd_obs::summary_table());
                }
            }
        }
    }
    emit(&report, &opts.out)
}

// ------------------------------------------------------------------ sweep

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let opts = parse_common(args, &["--param", "--values"], &[])?;
    let param = opts
        .extra_values
        .iter()
        .find(|(k, _)| k == "--param")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| "proximity".to_owned());
    let values: Vec<u32> = match opts.extra_values.iter().find(|(k, _)| k == "--values") {
        Some((_, list)) => list
            .split(',')
            .map(|v| parse_num(v.trim(), "--values"))
            .collect::<Result<_, _>>()?,
        None => match param.as_str() {
            "proximity" => vec![1, 2, 3, 4, 6, 8, 12, 16, 24],
            _ => vec![2, 3, 4, 6, 8],
        },
    };
    if values.is_empty() {
        return Err("--values must name at least one value".to_owned());
    }
    opts.reject_flags(
        &["--policy"],
        "sweep always tabulates the baseline against the optimized policy",
    )?;
    if param == "proximity" {
        opts.reject_flags(
            &["--proximity"],
            "the proximity sweep sets the proximity from --values",
        )?;
    }
    if param == "traps" {
        opts.reject_flags(
            &["--traps"],
            "the traps sweep sets the trap count from --values",
        )?;
        // A sized topology names its own trap count and would override
        // every swept value, labelling one machine with many counts.
        let topology = &opts.machine.topology;
        if topology.contains(':') {
            return Err(format!(
                "the traps sweep sets the trap count from --values, but `--topology {topology}` \
                 fixes it; use a bare form (`linear`, `ring`)"
            ));
        }
    }

    // The traps sweep keeps every machine option but the trap count.
    let traps_machine = |traps: u32| {
        MachineOptions {
            traps,
            capacity: opts.machine.capacity,
            comm: opts.machine.comm,
            topology: opts.machine.topology.clone(),
            zones: None,
        }
        .build()
    };
    // The largest machine of the sweep bounds the circuit.
    let max_qubits = if param == "traps" {
        let mut max = 0;
        for &value in &values {
            max = max.max(traps_machine(value)?.initial_capacity());
        }
        max
    } else {
        opts.machine.build()?.initial_capacity()
    };
    let circuit = require_circuit(&opts, max_qubits)?;

    struct Row {
        value: u32,
        baseline: usize,
        optimized: usize,
    }
    let mut rows = Vec::with_capacity(values.len());
    for &value in &values {
        let (machine, base_cfg, opt_cfg) = match param.as_str() {
            "proximity" => (
                opts.machine.build()?,
                build_config(
                    "baseline",
                    None,
                    &opts.router,
                    &opts.timing,
                    &opts.objective,
                    opts.jobs,
                )?,
                build_config(
                    "optimized",
                    Some(value),
                    &opts.router,
                    &opts.timing,
                    &opts.objective,
                    opts.jobs,
                )?,
            ),
            "traps" => (
                traps_machine(value)?,
                build_config(
                    "baseline",
                    None,
                    &opts.router,
                    &opts.timing,
                    &opts.objective,
                    opts.jobs,
                )?,
                build_config(
                    "optimized",
                    opts.proximity,
                    &opts.router,
                    &opts.timing,
                    &opts.objective,
                    opts.jobs,
                )?,
            ),
            other => {
                return Err(format!(
                    "unknown sweep parameter `{other}` (expected proximity or traps)"
                ))
            }
        };
        let (base, _, _, _) = timed(
            &circuit.circuit,
            &machine,
            &base_cfg,
            opts.router == "packed",
        )?;
        let (opt, _, _, _) = timed(
            &circuit.circuit,
            &machine,
            &opt_cfg,
            opts.router == "packed",
        )?;
        rows.push(Row {
            value,
            baseline: base.stats.shuttles,
            optimized: opt.stats.shuttles,
        });
    }

    let mut report = String::new();
    match opts.format.as_str() {
        "json" => {
            let value = Json::obj(vec![
                ("circuit", Json::str(&circuit.name)),
                ("param", Json::str(&param)),
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj(vec![
                                    (param.as_str(), Json::int(r.value as usize)),
                                    ("baseline_shuttles", Json::int(r.baseline)),
                                    ("optimized_shuttles", Json::int(r.optimized)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            report.push_str(&value.to_string());
            report.push('\n');
        }
        "csv" => {
            report.push_str(&format!("{param},baseline_shuttles,optimized_shuttles\n"));
            for r in &rows {
                report.push_str(&output::csv_row(&[
                    r.value.to_string(),
                    r.baseline.to_string(),
                    r.optimized.to_string(),
                ]));
                report.push('\n');
            }
        }
        _ => {
            report.push_str(&format!(
                "# sweep of {param} for {} (baseline vs optimized shuttles)\n",
                circuit.name
            ));
            report.push_str(&format!(
                "{:>10} {:>10} {:>10}\n",
                param, "baseline", "optimized"
            ));
            for r in &rows {
                report.push_str(&format!(
                    "{:>10} {:>10} {:>10}\n",
                    r.value, r.baseline, r.optimized
                ));
            }
        }
    }
    emit(&report, &opts.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Malformed numeric flags are typed usage errors that quote the
    /// offending value — never a panic, never a silent default.
    #[test]
    fn malformed_numeric_flags_name_the_offending_value() {
        let err = parse_common(&args(&["--jobs", "many"]), &[], &[])
            .err()
            .unwrap();
        assert_eq!(err, "--jobs: `many` is not a valid number");
        let err = parse_common(&args(&["--jobs", "-2"]), &[], &[])
            .err()
            .unwrap();
        assert_eq!(err, "--jobs: `-2` is not a valid number");
        let err = parse_common(&args(&["--jobs", "0"]), &[], &[])
            .err()
            .unwrap();
        assert_eq!(err, "--jobs must be at least 1, got `0`");
        let err = parse_common(&args(&["--traps", "3.5"]), &[], &[])
            .err()
            .unwrap();
        assert_eq!(err, "--traps: `3.5` is not a valid number");
        let err = explain::cmd_explain(&args(&["--top", "five"])).unwrap_err();
        assert_eq!(err, "--top: `five` is not a valid number");
    }

    /// Degenerate generator dimensions reach `main` as errors (exit 2),
    /// never as a generator panic (exit 101).
    #[test]
    fn degenerate_circuit_dimensions_are_usage_errors() {
        for spec in [
            "qaoa:0x1",
            "qaoa:5x2",
            "random:0x10",
            "random:1x10",
            "quadform:0x0",
            "sqrt:0x0",
            "sqrt:2x1",
        ] {
            let err = cmd_compile(&args(&["--circuit", spec])).unwrap_err();
            assert!(err.contains(spec), "`{spec}` → `{err}`");
        }
    }

    /// Circuits larger than the machine are usage errors raised before
    /// any generator runs — one oversized spec per family, on every
    /// subcommand that generates a circuit.
    #[test]
    fn oversized_circuit_specs_are_usage_errors() {
        for spec in [
            "qft:4294967295",
            "qaoa:4294967294x1",
            "supremacy:65536x65536x1",
            "sqrt:4294967295x2",
            "quadform:4294967295x2",
            "random:4294967295x2",
        ] {
            let args = args(&["--circuit", spec]);
            for err in [
                cmd_compile(&args),
                cmd_simulate(&args),
                cmd_sweep(&args),
                explain::cmd_explain(&args),
            ] {
                let err = err.unwrap_err();
                assert!(
                    err.contains("the machine holds at most"),
                    "`{spec}` → `{err}`"
                );
            }
        }
    }

    /// Gate-count dimensions above `MAX_GATES` are usage errors raised
    /// before any generator runs (they used to abort on allocation), one
    /// per family, on every subcommand that generates a circuit.
    #[test]
    fn oversized_gate_count_specs_are_usage_errors() {
        for spec in [
            "qft:4097",
            "qaoa:8x4294967295",
            "qaoa:8x100000000",
            "supremacy:4x4x4294967295",
            "sqrt:8x4294967295",
            "quadform:8x4294967295",
            "random:8x4294967295",
        ] {
            let args = args(&["--circuit", spec, "--capacity", "4294967295"]);
            for err in [
                cmd_compile(&args),
                cmd_simulate(&args),
                cmd_sweep(&args),
                explain::cmd_explain(&args),
            ] {
                let err = err.unwrap_err();
                assert!(
                    err.contains("above the maximum of 16777216"),
                    "`{spec}` → `{err}`"
                );
            }
        }
        assert!(USAGE.contains(&format!("at most {}", spec::MAX_GATES)));
    }

    /// Machines above `MAX_TRAPS` traps are usage errors raised before the
    /// machine is built (they used to abort allocating its adjacency), on
    /// every subcommand that builds one.
    #[test]
    fn oversized_machines_are_usage_errors() {
        for machine in [
            ["--traps", "4294967295"],
            ["--topology", "ring:4294967295"],
            ["--topology", "grid:65536x65536"],
            ["--traps", "8193"],
        ] {
            let args = args(&["--circuit", "qft:8", machine[0], machine[1]]);
            for err in [
                cmd_compile(&args),
                cmd_simulate(&args),
                cmd_sweep(&args),
                explain::cmd_explain(&args),
            ] {
                let err = err.unwrap_err();
                assert!(
                    err.contains("above the maximum of 8192"),
                    "{machine:?} → `{err}`"
                );
            }
        }
        let sweep = args(&[
            "--circuit",
            "qft:8",
            "--param",
            "traps",
            "--values",
            "2,8193",
        ]);
        assert!(cmd_sweep(&sweep)
            .unwrap_err()
            .contains("above the maximum of 8192"));
        assert!(USAGE.contains(&format!("at most {} traps", spec::MAX_TRAPS)));
    }

    /// A sized topology fixes the trap count, so a traps sweep over it
    /// would compile one machine under several labels: a usage error
    /// naming the bare forms. The bare forms still sweep.
    #[test]
    fn traps_sweep_rejects_sized_topologies() {
        for topology in ["ring:4", "linear:5", "grid:2x2"] {
            let sweep = args(&[
                "--param",
                "traps",
                "--values",
                "3,5",
                "--circuit",
                "qft:8",
                "--topology",
                topology,
            ]);
            let err = cmd_sweep(&sweep).unwrap_err();
            assert!(
                err.contains(topology) && err.contains("`linear`, `ring`"),
                "{topology} → `{err}`"
            );
        }
        for topology in ["ring", "linear"] {
            let sweep = args(&[
                "--param",
                "traps",
                "--values",
                "3,5",
                "--circuit",
                "qft:8",
                "--topology",
                topology,
            ]);
            cmd_sweep(&sweep).unwrap_or_else(|e| panic!("{topology}: {e}"));
        }
    }

    /// A trap capacity of `u32::MAX` compiles under every router and both
    /// objectives (round-capacity sums once wrapped u32 there).
    #[test]
    fn capacity_u32_max_compiles_under_every_router() {
        for stack in [
            &["--router", "serial"][..],
            &["--router", "congestion"],
            &["--router", "lookahead"],
            &["--router", "packed"],
            &["--objective", "clock"],
        ] {
            let mut list = vec!["--capacity", "4294967295", "--circuit", "qft:8", "--quiet"];
            list.extend_from_slice(stack);
            cmd_compile(&args(&list)).unwrap_or_else(|e| panic!("{stack:?}: {e}"));
        }
    }

    #[test]
    fn jobs_flag_parses_and_reaches_the_config() {
        let opts = parse_common(&args(&[]), &[], &[]).unwrap();
        assert_eq!(opts.jobs, 1, "default is sequential");
        let opts = parse_common(&args(&["--jobs", "4"]), &[], &[]).unwrap();
        assert_eq!(opts.jobs, 4);
        let config = build_config("optimized", None, "packed", "realistic", "clock", 4).unwrap();
        assert_eq!(config.jobs, 4);
        let config = build_config("baseline", None, "serial", "ideal", "shuttles", 2).unwrap();
        assert_eq!(config.jobs, 2);
        // The full re-lower oracle is a test oracle, not a CLI mode.
        assert!(parse_common(&args(&["--score-mode", "full"]), &[], &[]).is_err());
    }
}
