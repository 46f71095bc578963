//! Evaluation harness regenerating every table and figure of the paper.
//!
//! The [`paper_eval`](../paper_eval/index.html) binary drives this library:
//!
//! ```text
//! cargo run -p qccd-bench --release --bin paper_eval -- all
//! ```
//!
//! | Subcommand  | Paper artefact |
//! |-------------|----------------|
//! | `table2`    | Table II — reduction in the number of shuttles |
//! | `fig8`      | Fig. 8 — program-fidelity improvement |
//! | `table3`    | Table III — compilation-time overhead |
//! | `ablation`  | per-heuristic contribution (§III design choices) |
//! | `proximity` | §III-A3 proximity design-parameter sweep |
//! | `all`       | everything above |
//!
//! Random-suite size defaults to the paper's 30 circuits per qubit count
//! (120 total); pass `--per-size N` to shrink it for quick runs.

pub mod diff;
pub mod json;
pub mod profile;

use qccd_circuit::generators::{paper_suite, random_suite, BenchmarkCircuit};
use qccd_circuit::Circuit;
use qccd_core::{compile, CompileResult, CompilerConfig, Objective, RouterPolicy, ScoreMode};
use qccd_machine::{MachineSpec, TrapTopology};
use qccd_route::TransportSchedule;
use qccd_sim::{attribute_fidelity_timed, simulate_timed, simulate_traced, SimParams, SimReport};
use qccd_timing::TimingModel;
use std::time::Instant;

/// Seed used for the random benchmark suite, fixed for reproducibility.
pub const RANDOM_SUITE_SEED: u64 = 0xDA7E_2022;

/// Samples per compile-seconds measurement (see [`min_compile_seconds`]).
pub const TIMING_RUNS: usize = 3;

/// One benchmark compiled under both configurations.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Benchmark name (Table II's first column).
    pub name: String,
    /// Qubit count.
    pub qubits: u32,
    /// Two-qubit gate count (Table II's "2Q gates").
    pub two_qubit_gates: usize,
    /// Baseline shuttle count (the paper's "\[7\]" column in Table II).
    pub baseline_shuttles: usize,
    /// Optimized shuttle count ("This Work").
    pub optimized_shuttles: usize,
    /// Baseline compile time, seconds.
    pub baseline_compile_s: f64,
    /// Optimized compile time, seconds.
    pub optimized_compile_s: f64,
    /// Baseline simulation report.
    pub baseline_sim: SimReport,
    /// Optimized simulation report.
    pub optimized_sim: SimReport,
    /// Shuttle count of the optimized compiler under the congestion-aware
    /// router (must never exceed `optimized_shuttles`, the serial router's
    /// count).
    pub congestion_shuttles: usize,
    /// Concurrent transport depth of the congestion-routed schedule (the
    /// serial router's depth is its shuttle count).
    pub transport_depth: usize,
    /// Simulation of the congestion-routed schedule with rounds timed
    /// concurrently.
    pub transport_sim: SimReport,
    /// Shuttle count after the `qccd-pack` passes (layer planning can drop
    /// net-zero walks, so this may dip below `congestion_shuttles`).
    pub packed_shuttles: usize,
    /// Transport depth after the `qccd-pack` passes.
    pub packed_depth: usize,
    /// Lookahead-packed timed makespan under the row's timing model — the
    /// baseline the packer optimizes, µs.
    pub lookahead_timed_makespan_us: f64,
    /// Packed timed makespan under the row's timing model, µs (never above
    /// `lookahead_timed_makespan_us`; the packer falls back otherwise).
    pub packed_timed_makespan_us: f64,
    /// Simulation of the packed schedule.
    pub packed_sim: SimReport,
    /// Timed makespan of the clock-objective pipeline's chosen result
    /// under the row's timing model, µs (never above
    /// `packed_timed_makespan_us`; `compile_clock` falls back otherwise).
    pub clock_timed_makespan_us: f64,
    /// The clock pipeline's stats (ties broken, batched layers, whether
    /// the clock candidate strictly won).
    pub clock_stats: qccd_pack::ClockStats,
    /// Simulation of the clock pipeline's chosen schedule.
    pub clock_sim: SimReport,
    /// Wall-clock seconds of the clock-objective compile loop under the
    /// default delta scorer (`--score-mode delta`). Like
    /// `baseline_compile_s`/`optimized_compile_s` this times
    /// [`qccd_core::compile`] — the loop where candidate scoring lives —
    /// not the mode-independent post-compile pack passes.
    pub clock_compile_s: f64,
    /// Wall-clock seconds of the same compile loop under the full
    /// re-lower oracle (`--score-mode full`, which replays the whole
    /// committed schedule per candidate) — the figure the delta scorer's
    /// speed-up is measured against.
    pub clock_full_compile_s: f64,
    /// Idle fraction of the machine over the optimized schedule's traced
    /// replay ([`qccd_sim::simulate_traced`]): `1 − mean(trap busy) /
    /// makespan`, in `[0, 1]`.
    pub idle_fraction: f64,
    /// Index of the busiest trap in that replay (ties go to the lowest
    /// index).
    pub hottest_trap: usize,
    /// Busy time of the hottest trap, µs.
    pub hottest_trap_busy_us: f64,
    /// Duration (`Γτ`) share of the clock schedule's decomposed log loss,
    /// in `[0, 1]`, from the bit-for-bit fidelity attribution pass
    /// ([`qccd_sim::attribute_fidelity_timed`]).
    pub clock_duration_share: f64,
    /// Motional (`A(2n̄+1)`) share of the same decomposition, in `[0, 1]`.
    /// The remainder up to 1 is the fixed shuttle-pulse loss.
    pub clock_motional_share: f64,
}

impl ComparisonRow {
    /// Shuttle reduction `Δ` (Table II).
    pub fn delta(&self) -> i64 {
        self.baseline_shuttles as i64 - self.optimized_shuttles as i64
    }

    /// Percentage shuttle reduction `%Δ` (Table II).
    pub fn delta_percent(&self) -> f64 {
        if self.baseline_shuttles == 0 {
            return 0.0;
        }
        100.0 * self.delta() as f64 / self.baseline_shuttles as f64
    }

    /// Fidelity improvement factor (Fig. 8).
    pub fn fidelity_improvement(&self) -> f64 {
        self.optimized_sim
            .fidelity_improvement_over(&self.baseline_sim)
    }

    /// Compile-time overhead `Δ↑` in seconds (Table III).
    pub fn compile_overhead_s(&self) -> f64 {
        self.optimized_compile_s - self.baseline_compile_s
    }

    /// Transport-depth reduction of concurrent rounds over serial
    /// transport: `optimized_shuttles − transport_depth`.
    pub fn depth_delta(&self) -> i64 {
        self.optimized_shuttles as i64 - self.transport_depth as i64
    }
}

/// Compiles `circuit` under `config`, measuring wall-clock compile time.
///
/// # Panics
///
/// Panics if compilation fails — the harness only runs benchmarks that fit
/// the evaluation machine.
pub fn timed_compile(
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
) -> (CompileResult, f64) {
    let start = Instant::now();
    let result = compile(circuit, spec, config).expect("benchmark circuits fit the paper machine");
    (result, start.elapsed().as_secs_f64())
}

/// Minimum wall-clock seconds over `runs` compiles of `circuit` under
/// `config`. The compile is deterministic, so the minimum is the
/// noise-resistant point estimate: any sample above it is scheduler
/// interference, not work.
///
/// # Panics
///
/// As [`timed_compile`].
pub fn min_compile_seconds(
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
    runs: usize,
) -> f64 {
    (0..runs.max(1))
        .map(|_| timed_compile(circuit, spec, config).1)
        .fold(f64::INFINITY, f64::min)
}

/// Runs one benchmark under baseline and optimized configurations and
/// simulates both schedules under the uniform-hop (ideal) timing model —
/// the paper-parity comparison.
pub fn compare(bench: &BenchmarkCircuit, spec: &MachineSpec, params: &SimParams) -> ComparisonRow {
    compare_timed(bench, spec, params, &TimingModel::ideal())
}

/// Runs one benchmark under baseline and optimized configurations and
/// simulates both schedules on `model`'s timed event timeline.
///
/// Also compiles with the congestion router (depth/makespan columns) and
/// with the full packed stack — congestion + lookahead + `qccd-pack`
/// scored under `model` — to fill the packed columns; callers that only
/// need the serial pair (and care about the extra compile cost) should
/// drive [`timed_compile`] directly.
pub fn compare_timed(
    bench: &BenchmarkCircuit,
    spec: &MachineSpec,
    params: &SimParams,
    model: &TimingModel,
) -> ComparisonRow {
    let (base, base_t) = timed_compile(&bench.circuit, spec, &CompilerConfig::baseline());
    let (opt, opt_t) = timed_compile(&bench.circuit, spec, &CompilerConfig::optimized());
    let (cong, _) = timed_compile(
        &bench.circuit,
        spec,
        &CompilerConfig::optimized().with_router(RouterPolicy::congestion()),
    );
    let (packed, pack_stats) = qccd_pack::compile_packed(
        &bench.circuit,
        spec,
        &CompilerConfig::optimized()
            .with_router(RouterPolicy::congestion())
            .with_timing(*model),
    )
    .expect("benchmark circuits compile and pack on the paper machine");
    // Race the clock objective against the packed result already computed
    // above (same config and model), rather than recompiling that stack.
    let (clock, clock_stats) = qccd_pack::race_clock(
        packed.clone(),
        &bench.circuit,
        spec,
        &CompilerConfig::optimized().with_timing(*model),
    )
    .expect("benchmark circuits compile under the clock objective");
    // Time the clock-objective *compile loop* under both score modes —
    // the same section `baseline_compile_s`/`optimized_compile_s` time,
    // and the one candidate scoring runs in. Bit-for-bit result parity
    // between the modes is asserted by `delta_parity` / `paper_eval
    // delta`, not here.
    let clock_config = CompilerConfig::optimized()
        .with_timing(*model)
        .with_objective(Objective::Clock);
    let clock_compile_s = min_compile_seconds(&bench.circuit, spec, &clock_config, TIMING_RUNS);
    let clock_full_compile_s = min_compile_seconds(
        &bench.circuit,
        spec,
        &clock_config.with_score_mode(ScoreMode::Full),
        TIMING_RUNS,
    );
    let baseline_sim = simulate_timed(
        &base.schedule,
        &base.transport,
        &bench.circuit,
        spec,
        params,
        model,
    )
    .expect("compiled schedules are valid by construction");
    let optimized_sim = simulate_timed(
        &opt.schedule,
        &opt.transport,
        &bench.circuit,
        spec,
        params,
        model,
    )
    .expect("compiled schedules are valid by construction");
    let transport_sim = simulate_timed(
        &cong.schedule,
        &cong.transport,
        &bench.circuit,
        spec,
        params,
        model,
    )
    .expect("round-packed schedules are valid by construction");
    let packed_sim = simulate_timed(
        &packed.schedule,
        &packed.transport,
        &bench.circuit,
        spec,
        params,
        model,
    )
    .expect("packed schedules are valid by construction");
    let clock_sim = simulate_timed(
        &clock.schedule,
        &clock.transport,
        &bench.circuit,
        spec,
        params,
        model,
    )
    .expect("clock-objective schedules are valid by construction");
    // Per-trap utilization of the optimized ("This Work") schedule: the
    // traced replay mirrors `optimized_sim`'s serial replay, so its busy
    // figures describe the same run the headline columns report.
    let optimized_trace = simulate_traced(&opt.schedule, &bench.circuit, spec, params)
        .expect("compiled schedules are valid by construction");
    let idle_fraction = optimized_trace.idle_fraction();
    let (hottest_trap, hottest_trap_busy_us) = optimized_trace
        .hottest_trap()
        .expect("machines have at least one trap");
    // Fidelity-loss split of the clock artifact (the headline timed
    // schedule): duration vs motional share of the log loss, from the
    // attribution pass whose terms reproduce `clock_sim`'s
    // log_program_fidelity bit for bit.
    let clock_attr = attribute_fidelity_timed(
        &clock.schedule,
        &clock.transport,
        &bench.circuit,
        spec,
        params,
        model,
    )
    .expect("clock-objective schedules are valid by construction");
    assert!(
        clock_attr.identity_holds(),
        "fidelity attribution identity must hold on benchmark schedules"
    );
    let clock_duration_share = clock_attr.duration_share();
    let clock_motional_share = clock_attr.motional_share();
    ComparisonRow {
        name: bench.name.clone(),
        qubits: bench.circuit.num_qubits(),
        two_qubit_gates: bench.circuit.two_qubit_gate_count(),
        baseline_shuttles: base.stats.shuttles,
        optimized_shuttles: opt.stats.shuttles,
        baseline_compile_s: base_t,
        optimized_compile_s: opt_t,
        baseline_sim,
        optimized_sim,
        congestion_shuttles: cong.stats.shuttles,
        transport_depth: cong.stats.transport_depth,
        transport_sim,
        packed_shuttles: packed.stats.shuttles,
        packed_depth: packed.stats.transport_depth,
        lookahead_timed_makespan_us: pack_stats.input_makespan_us,
        packed_timed_makespan_us: pack_stats.packed_makespan_us,
        packed_sim,
        clock_timed_makespan_us: clock_stats.chosen_makespan_us,
        clock_stats,
        clock_sim,
        clock_compile_s,
        clock_full_compile_s,
        idle_fraction,
        hottest_trap,
        hottest_trap_busy_us,
        clock_duration_share,
        clock_motional_share,
    }
}

/// Runs the five named NISQ benchmarks (Table II's upper rows).
pub fn run_nisq_suite(spec: &MachineSpec, params: &SimParams) -> Vec<ComparisonRow> {
    paper_suite()
        .iter()
        .map(|b| compare(b, spec, params))
        .collect()
}

/// Runs the random suite (`per_size` circuits × 4 qubit counts) and also
/// returns the per-circuit rows.
pub fn run_random_suite(
    spec: &MachineSpec,
    params: &SimParams,
    per_size: usize,
) -> Vec<ComparisonRow> {
    random_suite(per_size, RANDOM_SUITE_SEED)
        .iter()
        .map(|b| compare(b, spec, params))
        .collect()
}

/// One cell of the topology × router sweep: one circuit compiled with the
/// optimized policy stack on one interconnect under one router.
#[derive(Debug, Clone)]
pub struct TopologyRouterRow {
    /// Benchmark name.
    pub name: String,
    /// Topology display form (`L6`, `R6`, `G2x3`, ...).
    pub topology: String,
    /// Router display form (`serial`, `congestion(penalty=6)`).
    pub router: String,
    /// Shuttle hops emitted.
    pub shuttles: usize,
    /// Concurrent transport depth (equals `shuttles` under serial).
    pub depth: usize,
    /// Simulated makespan, µs (rounds timed concurrently under the
    /// congestion router).
    pub makespan_us: f64,
    /// Simulated program fidelity (log form, exact under underflow).
    pub log_program_fidelity: f64,
}

/// The standard interconnects for `n` traps: linear, ring, and the most
/// square grid factorisation (omitted when `n` is prime or `< 4`).
pub fn standard_topologies(n: u32) -> Vec<TrapTopology> {
    let mut out = vec![TrapTopology::linear(n)];
    if n >= 3 {
        out.push(TrapTopology::ring(n));
    }
    let mut best: Option<(u32, u32)> = None;
    for r in 2..=n {
        if n.is_multiple_of(r) && n / r >= 2 {
            let c = n / r;
            if best.is_none_or(|(br, bc)| r.abs_diff(c) < br.abs_diff(bc)) {
                best = Some((r, c));
            }
        }
    }
    if let Some((r, c)) = best {
        out.push(TrapTopology::grid(r, c));
    }
    out
}

/// Runs every benchmark × topology × router combination with the optimized
/// policy stack: the scenario-diversity sweep the routing subsystem
/// unlocks. Machines use `capacity`/`comm` per trap on each topology.
///
/// # Panics
///
/// Panics if a machine spec is invalid or a benchmark does not fit it.
pub fn run_topology_router_sweep(
    benches: &[BenchmarkCircuit],
    topologies: &[TrapTopology],
    capacity: u32,
    comm: u32,
    params: &SimParams,
) -> Vec<TopologyRouterRow> {
    let mut rows = Vec::new();
    for bench in benches {
        for topology in topologies {
            let spec = MachineSpec::new(topology.clone(), capacity, comm)
                .expect("sweep machine parameters are valid");
            for router in [RouterPolicy::Serial, RouterPolicy::congestion()] {
                let config = CompilerConfig::optimized().with_router(router);
                let (result, _) = timed_compile(&bench.circuit, &spec, &config);
                let sim = simulate_timed(
                    &result.schedule,
                    &result.transport,
                    &bench.circuit,
                    &spec,
                    params,
                    &TimingModel::ideal(),
                )
                .expect("compiled schedules are valid by construction");
                rows.push(TopologyRouterRow {
                    name: bench.name.clone(),
                    topology: topology.to_string(),
                    router: router.to_string(),
                    shuttles: result.stats.shuttles,
                    depth: result.stats.transport_depth,
                    makespan_us: sim.makespan_us,
                    log_program_fidelity: sim.log_program_fidelity,
                });
            }
        }
    }
    rows
}

/// One cell of the timing-model sweep: one benchmark compiled with the
/// optimized stack under one router, replayed under one timing model.
#[derive(Debug, Clone)]
pub struct TimingSweepRow {
    /// Benchmark name.
    pub name: String,
    /// Router display form.
    pub router: String,
    /// Timing-model display form (`ideal`, `realistic`).
    pub timing: String,
    /// Concurrent transport depth.
    pub depth: usize,
    /// Timed makespan under the model, µs.
    pub timed_makespan_us: f64,
    /// Junction endpoints crossed by the schedule's shuttles.
    pub junction_crossings: usize,
    /// Simulated program fidelity (log form, exact under underflow).
    pub log_program_fidelity: f64,
}

/// Runs every benchmark × router × timing-model combination with the
/// optimized policy stack — the sweep the timing subsystem unlocks: how
/// much of the uniform-hop makespan survives junction corner/swap costs
/// and finite segment speeds.
///
/// # Panics
///
/// Panics if a benchmark does not fit `spec`.
pub fn run_timing_sweep(
    benches: &[BenchmarkCircuit],
    spec: &MachineSpec,
    params: &SimParams,
) -> Vec<TimingSweepRow> {
    let mut rows = Vec::new();
    for bench in benches {
        for router in [RouterPolicy::Serial, RouterPolicy::congestion()] {
            let config = CompilerConfig::optimized().with_router(router);
            let (result, _) = timed_compile(&bench.circuit, spec, &config);
            for model in [TimingModel::ideal(), TimingModel::realistic()] {
                let sim = simulate_timed(
                    &result.schedule,
                    &result.transport,
                    &bench.circuit,
                    spec,
                    params,
                    &model,
                )
                .expect("compiled schedules are valid by construction");
                rows.push(TimingSweepRow {
                    name: bench.name.clone(),
                    router: router.to_string(),
                    timing: model.to_string(),
                    depth: result.stats.transport_depth,
                    timed_makespan_us: sim.timed_makespan_us,
                    junction_crossings: sim.junction_crossings,
                    log_program_fidelity: sim.log_program_fidelity,
                });
            }
        }
    }
    rows
}

/// Before/after depths of lookahead round packing on one benchmark: the
/// greedy packer's transport depth against the first-fit backfill packer's.
#[derive(Debug, Clone)]
pub struct LookaheadRow {
    /// Benchmark name.
    pub name: String,
    /// Transport depth of the greedy (current-round-or-new) packer.
    pub greedy_depth: usize,
    /// Transport depth after first-fit backfill into earlier rounds.
    pub lookahead_depth: usize,
}

/// Measures lookahead round packing against the greedy packer on every
/// benchmark (optimized stack, congestion router).
///
/// # Panics
///
/// Panics if a benchmark does not fit `spec`.
pub fn lookahead_packing_gains(
    benches: &[BenchmarkCircuit],
    spec: &MachineSpec,
) -> Vec<LookaheadRow> {
    benches
        .iter()
        .map(|bench| {
            let config = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
            let (greedy, _) = timed_compile(&bench.circuit, spec, &config);
            let packed = TransportSchedule::pack_lookahead(&greedy.schedule, spec)
                .expect("compiled schedules repack");
            packed
                .validate_relaxed(&greedy.schedule, spec)
                .expect("lookahead packing must replay-validate");
            LookaheadRow {
                name: bench.name.clone(),
                greedy_depth: greedy.stats.transport_depth,
                lookahead_depth: packed.depth(),
            }
        })
        .collect()
}

/// Before/after numbers for the timeline-driven `qccd-pack` optimizer on
/// one benchmark: greedy vs lookahead vs packed transport, counted in
/// rounds and — the metric packing optimizes — timed makespan under the
/// realistic device model.
#[derive(Debug, Clone)]
pub struct PackRow {
    /// Benchmark name.
    pub name: String,
    /// Transport depth of the greedy in-run packer.
    pub greedy_depth: usize,
    /// Transport depth after lookahead backfill.
    pub lookahead_depth: usize,
    /// Transport depth after cross-gate packing + layer planning.
    pub packed_depth: usize,
    /// Shuttle hops after packing (layer planning can drop net-zero walks).
    pub packed_shuttles: usize,
    /// Greedy-packed timed makespan (realistic model), µs.
    pub greedy_makespan_us: f64,
    /// Lookahead timed makespan (realistic model), µs.
    pub lookahead_makespan_us: f64,
    /// Packed timed makespan (realistic model), µs.
    pub packed_makespan_us: f64,
    /// Hops hoisted across at least one gate.
    pub hoisted_hops: usize,
    /// Gate-free runs rewritten by the batched layer planner.
    pub replanned_runs: usize,
}

/// Measures the `qccd-pack` passes against the greedy and lookahead
/// packers on every benchmark (optimized stack, congestion router,
/// realistic timing — the configuration the pack acceptance criteria are
/// stated in).
///
/// # Panics
///
/// Panics if a benchmark does not fit `spec` or a packed schedule fails
/// its validators (never silent).
pub fn pack_gains(benches: &[BenchmarkCircuit], spec: &MachineSpec) -> Vec<PackRow> {
    let model = TimingModel::realistic();
    benches
        .iter()
        .map(|bench| {
            let config = CompilerConfig::optimized()
                .with_router(RouterPolicy::congestion())
                .with_lookahead(true)
                .with_timing(model);
            let (lookahead, _) = timed_compile(&bench.circuit, spec, &config);
            let greedy = TransportSchedule::pack_concurrent(&lookahead.schedule, spec)
                .expect("compiled schedules repack");
            let greedy_timeline = qccd_timing::lower(
                &lookahead.schedule,
                Some(&greedy),
                &bench.circuit,
                spec,
                &model,
            )
            .expect("greedy rounds lower");
            let packed = qccd_pack::pack(
                &lookahead,
                &bench.circuit,
                spec,
                &qccd_pack::PackConfig::for_model(model),
            )
            .expect("packing validates on compiled schedules");
            PackRow {
                name: bench.name.clone(),
                greedy_depth: greedy.depth(),
                lookahead_depth: lookahead.transport.depth(),
                packed_depth: packed.stats.packed_depth,
                packed_shuttles: packed.schedule.stats().shuttles,
                greedy_makespan_us: greedy_timeline.makespan_us,
                lookahead_makespan_us: packed.stats.input_makespan_us,
                packed_makespan_us: packed.stats.packed_makespan_us,
                hoisted_hops: packed.stats.hoisted_hops,
                replanned_runs: packed.stats.replanned_runs,
            }
        })
        .collect()
}

/// Before/after numbers for the timed compile-loop objective on one
/// benchmark: the default-objective packed stack against the
/// clock-objective pipeline (`qccd_pack::compile_clock`), under the
/// realistic device model — the configuration the objective acceptance
/// criteria are stated in.
#[derive(Debug, Clone)]
pub struct ObjectiveRow {
    /// Benchmark name.
    pub name: String,
    /// Timed makespan of the default-objective packed stack, µs.
    pub packed_makespan_us: f64,
    /// Timed makespan of the clock-objective candidate, µs.
    pub clock_makespan_us: f64,
    /// Timed makespan of the chosen (never-regress) result, µs.
    pub chosen_makespan_us: f64,
    /// Open decisions re-arbitrated on the projected clock.
    pub clock_ties: usize,
    /// Gate-free layers planned as batched multi-commodity flows.
    pub batched_layers: usize,
    /// Hops emitted by those batched layers.
    pub batched_hops: usize,
    /// Shuttle hops of the chosen result.
    pub chosen_shuttles: usize,
    /// Transport depth of the chosen result.
    pub chosen_depth: usize,
    /// `true` when the clock candidate strictly beat the packed stack.
    pub improved: bool,
}

/// Measures the clock compile-loop objective against the packed stack on
/// every benchmark (optimized policy stack, realistic timing).
///
/// # Panics
///
/// Panics if a benchmark does not fit `spec` or a pipeline fails its
/// validators (never silent).
pub fn objective_gains(benches: &[BenchmarkCircuit], spec: &MachineSpec) -> Vec<ObjectiveRow> {
    let model = TimingModel::realistic();
    benches
        .iter()
        .map(|bench| {
            let config = CompilerConfig::optimized().with_timing(model);
            let (chosen, stats) = qccd_pack::compile_clock(&bench.circuit, spec, &config)
                .expect("benchmark circuits compile under both objectives");
            ObjectiveRow {
                name: bench.name.clone(),
                packed_makespan_us: stats.packed_makespan_us,
                clock_makespan_us: stats.clock_makespan_us,
                // Read off the *returned artifact*, not the race's own
                // min(): the acceptance assertion downstream must catch a
                // pipeline that hands back a regressed result.
                chosen_makespan_us: chosen.timeline.makespan_us,
                clock_ties: stats.clock_ties,
                batched_layers: stats.batched_layers,
                batched_hops: stats.batched_hops,
                chosen_shuttles: chosen.stats.shuttles,
                chosen_depth: chosen.stats.transport_depth,
                improved: stats.improved,
            }
        })
        .collect()
}

/// One benchmark's clock pipeline run under both scoring modes — the
/// delta scorer and the O(suffix) re-lower oracle — with every quality
/// figure carried so parity can be asserted bit-for-bit.
#[derive(Debug, Clone)]
pub struct DeltaParityRow {
    /// Benchmark name.
    pub name: String,
    /// Chosen timed makespan under `--score-mode delta`, µs.
    pub delta_makespan_us: f64,
    /// Chosen timed makespan under `--score-mode full`, µs.
    pub full_makespan_us: f64,
    /// Chosen shuttle hops under each mode.
    pub delta_shuttles: usize,
    /// See `delta_shuttles`.
    pub full_shuttles: usize,
    /// Chosen transport depth under each mode.
    pub delta_depth: usize,
    /// See `delta_depth`.
    pub full_depth: usize,
    /// Open decisions re-arbitrated on the clock under each mode.
    pub delta_ties: usize,
    /// See `delta_ties`.
    pub full_ties: usize,
    /// Batched gate-free layers planned under each mode.
    pub delta_batched_layers: usize,
    /// See `delta_batched_layers`.
    pub full_batched_layers: usize,
    /// Hops emitted by batched layers under each mode.
    pub delta_batched_hops: usize,
    /// See `delta_batched_hops`.
    pub full_batched_hops: usize,
    /// Wall-clock seconds of the clock-objective *compile loop*
    /// ([`qccd_core::compile`], where candidate scoring runs) under each
    /// mode — the post-compile pack passes are mode-independent and are
    /// excluded so the ratio measures the scorer, not shared work.
    pub delta_compile_s: f64,
    /// See `delta_compile_s`.
    pub full_compile_s: f64,
}

impl DeltaParityRow {
    /// `true` when the two modes produced bit-for-bit identical results
    /// (makespan compared by exact equality — the modes share every
    /// floating-point operation, so any drift is a scorer bug).
    pub fn matches(&self) -> bool {
        self.delta_makespan_us == self.full_makespan_us
            && self.delta_shuttles == self.full_shuttles
            && self.delta_depth == self.full_depth
            && self.delta_ties == self.full_ties
            && self.delta_batched_layers == self.full_batched_layers
            && self.delta_batched_hops == self.full_batched_hops
    }

    /// Compile-time speed-up of the delta scorer over the full oracle.
    pub fn speedup(&self) -> f64 {
        if self.delta_compile_s <= 0.0 {
            return f64::INFINITY;
        }
        self.full_compile_s / self.delta_compile_s
    }
}

/// Runs the clock pipeline on every benchmark under both scoring modes
/// (optimized policy stack, realistic timing — the objective acceptance
/// configuration) and returns the paired rows. `paper_eval delta` gates
/// CI on every row's [`DeltaParityRow::matches`].
///
/// # Panics
///
/// Panics if a benchmark does not fit `spec` or a pipeline fails its
/// validators (never silent).
pub fn delta_parity(benches: &[BenchmarkCircuit], spec: &MachineSpec) -> Vec<DeltaParityRow> {
    let model = TimingModel::realistic();
    benches
        .iter()
        .map(|bench| {
            let run = |mode: ScoreMode| {
                let config = CompilerConfig::optimized()
                    .with_timing(model)
                    .with_score_mode(mode);
                let (chosen, stats) = qccd_pack::compile_clock(&bench.circuit, spec, &config)
                    .expect("benchmark circuits compile under the clock objective");
                // Time the compile loop itself (the section score-mode
                // affects); the race/pack plumbing above is shared
                // verbatim between the modes. Min-of-N to reject
                // scheduler noise on millisecond-scale sections.
                let secs = min_compile_seconds(
                    &bench.circuit,
                    spec,
                    &config.with_objective(Objective::Clock),
                    TIMING_RUNS,
                );
                (chosen, stats, secs)
            };
            let (d, d_stats, d_t) = run(ScoreMode::Delta);
            let (f, f_stats, f_t) = run(ScoreMode::Full);
            DeltaParityRow {
                name: bench.name.clone(),
                delta_makespan_us: d.timeline.makespan_us,
                full_makespan_us: f.timeline.makespan_us,
                delta_shuttles: d.stats.shuttles,
                full_shuttles: f.stats.shuttles,
                delta_depth: d.stats.transport_depth,
                full_depth: f.stats.transport_depth,
                delta_ties: d_stats.clock_ties,
                full_ties: f_stats.clock_ties,
                delta_batched_layers: d_stats.batched_layers,
                full_batched_layers: f_stats.batched_layers,
                delta_batched_hops: d_stats.batched_hops,
                full_batched_hops: f_stats.batched_hops,
                delta_compile_s: d_t,
                full_compile_s: f_t,
            }
        })
        .collect()
}

/// Mean and population standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Aggregates random-suite rows into the single "Random" row the paper
/// reports (mean with standard deviation in parentheses).
#[derive(Debug, Clone, Copy)]
pub struct RandomAggregate {
    /// Mean two-qubit gates (σ) — paper: 1438 (413).
    pub gates: (f64, f64),
    /// Mean baseline shuttles (σ).
    pub baseline: (f64, f64),
    /// Mean optimized shuttles (σ) — paper reports 775 (270).
    pub optimized: (f64, f64),
    /// Mean reduction Δ (σ) — paper: 273 (109).
    pub delta: (f64, f64),
    /// Mean %Δ (σ) — paper: 26% (6).
    pub delta_percent: (f64, f64),
    /// Geometric-mean fidelity improvement (Fig. 8's "Random" bar).
    pub fidelity_improvement_geomean: f64,
    /// Mean compile times (baseline, optimized), seconds.
    pub compile_s: (f64, f64),
}

/// Computes the paper's "Random" aggregate row from per-circuit rows.
pub fn aggregate_random(rows: &[ComparisonRow]) -> RandomAggregate {
    let gates: Vec<f64> = rows.iter().map(|r| r.two_qubit_gates as f64).collect();
    let base: Vec<f64> = rows.iter().map(|r| r.baseline_shuttles as f64).collect();
    let opt: Vec<f64> = rows.iter().map(|r| r.optimized_shuttles as f64).collect();
    let delta: Vec<f64> = rows.iter().map(|r| r.delta() as f64).collect();
    let pct: Vec<f64> = rows.iter().map(|r| r.delta_percent()).collect();
    let log_impr: Vec<f64> = rows
        .iter()
        .map(|r| r.optimized_sim.log_program_fidelity - r.baseline_sim.log_program_fidelity)
        .filter(|v| v.is_finite())
        .collect();
    let (log_mean, _) = mean_std(&log_impr);
    let base_t: Vec<f64> = rows.iter().map(|r| r.baseline_compile_s).collect();
    let opt_t: Vec<f64> = rows.iter().map(|r| r.optimized_compile_s).collect();
    RandomAggregate {
        gates: mean_std(&gates),
        baseline: mean_std(&base),
        optimized: mean_std(&opt),
        delta: mean_std(&delta),
        delta_percent: mean_std(&pct),
        fidelity_improvement_geomean: log_mean.exp(),
        compile_s: (mean_std(&base_t).0, mean_std(&opt_t).0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::generators::random_circuit;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn compare_produces_consistent_row() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let bench = BenchmarkCircuit {
            name: "tiny".into(),
            circuit: random_circuit(12, 80, 3),
        };
        let row = compare(&bench, &spec, &SimParams::default());
        assert_eq!(row.two_qubit_gates, 80);
        assert_eq!(row.baseline_sim.shuttles, row.baseline_shuttles);
        assert_eq!(row.optimized_sim.shuttles, row.optimized_shuttles);
        assert!(row.baseline_compile_s >= 0.0);
        assert_eq!(row.transport_sim.shuttles, row.congestion_shuttles);
        assert_eq!(row.transport_sim.shuttle_depth, row.transport_depth);
        assert!(row.transport_depth <= row.congestion_shuttles);
        assert_eq!(row.packed_sim.shuttles, row.packed_shuttles);
        assert_eq!(row.packed_sim.shuttle_depth, row.packed_depth);
        assert!(row.packed_timed_makespan_us <= row.lookahead_timed_makespan_us);
        assert!(row.packed_shuttles <= row.congestion_shuttles);
        assert!((0.0..=1.0).contains(&row.idle_fraction));
        assert!(row.hottest_trap < 3, "trap index on a 3-trap machine");
        assert!(row.hottest_trap_busy_us > 0.0, "gates make some trap busy");
        assert!((0.0..=1.0).contains(&row.clock_duration_share));
        assert!((0.0..=1.0).contains(&row.clock_motional_share));
        assert!(
            row.clock_duration_share + row.clock_motional_share <= 1.0 + 1e-12,
            "shares plus the shuttle-pulse remainder partition the loss"
        );
        assert!(
            row.clock_duration_share > 0.0,
            "every gate pays its duration term"
        );
    }

    #[test]
    fn standard_topologies_cover_linear_ring_grid() {
        let names: Vec<String> = standard_topologies(6)
            .iter()
            .map(|t| t.to_string())
            .collect();
        assert_eq!(names, vec!["L6", "R6", "G2x3"]);
        // 5 is prime: no grid.
        let names: Vec<String> = standard_topologies(5)
            .iter()
            .map(|t| t.to_string())
            .collect();
        assert_eq!(names, vec!["L5", "R5"]);
    }

    #[test]
    fn topology_router_sweep_is_complete_and_consistent() {
        let benches = vec![BenchmarkCircuit {
            name: "tiny".into(),
            circuit: random_circuit(10, 40, 5),
        }];
        let topologies = standard_topologies(4);
        let rows = run_topology_router_sweep(&benches, &topologies, 8, 2, &SimParams::default());
        assert_eq!(rows.len(), topologies.len() * 2);
        for pair in rows.chunks(2) {
            let (serial, congestion) = (&pair[0], &pair[1]);
            assert_eq!(serial.router, "serial");
            assert_eq!(serial.depth, serial.shuttles, "serial depth = count");
            assert!(congestion.depth <= congestion.shuttles);
        }
    }

    #[test]
    fn timing_sweep_ideal_matches_untimed_and_realistic_stretches() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let benches = vec![BenchmarkCircuit {
            name: "tiny".into(),
            circuit: random_circuit(12, 80, 3),
        }];
        let rows = run_timing_sweep(&benches, &spec, &SimParams::default());
        assert_eq!(rows.len(), 4, "2 routers x 2 models");
        for pair in rows.chunks(2) {
            let (ideal, realistic) = (&pair[0], &pair[1]);
            assert_eq!(ideal.timing, "ideal");
            assert_eq!(realistic.timing, "realistic");
            assert!(
                realistic.timed_makespan_us > ideal.timed_makespan_us,
                "finite segment speed must stretch {} ({})",
                realistic.name,
                realistic.router
            );
        }
        // Cross-check the ideal serial cell against the legacy replay.
        let (opt, _) = timed_compile(&benches[0].circuit, &spec, &CompilerConfig::optimized());
        let legacy = qccd_sim::simulate(
            &opt.schedule,
            &benches[0].circuit,
            &spec,
            &SimParams::default(),
        )
        .unwrap();
        assert_eq!(rows[0].timed_makespan_us, legacy.makespan_us);
    }

    #[test]
    fn lookahead_packing_never_deepens_and_improves_somewhere() {
        // The before/after assertion for lookahead round packing: on the
        // paper suite the backfill packer must never exceed the greedy
        // packer's depth, and must strictly beat it on at least one
        // benchmark (QAOA's wide gate-free rebalancing runs are the
        // motivating case — greedy packs only −1 depth there).
        let spec = MachineSpec::paper_l6();
        let rows = lookahead_packing_gains(&paper_suite(), &spec);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.lookahead_depth <= r.greedy_depth,
                "{}: lookahead {} > greedy {}",
                r.name,
                r.lookahead_depth,
                r.greedy_depth
            );
        }
        assert!(
            rows.iter().any(|r| r.lookahead_depth < r.greedy_depth),
            "lookahead must strictly reduce depth on at least one paper benchmark: {rows:?}"
        );
    }

    #[test]
    fn pack_beats_lookahead_on_qaoa_and_never_regresses() {
        // The PR 4 acceptance: on the paper machine, packed timed makespan
        // ≤ lookahead *and* ≤ greedy on every paper benchmark (the packer
        // carries the greedy repack as a candidate precisely because
        // lookahead optimizes depth and can lose the odd 100 µs on the
        // clock), with a *strict* packed win on QAOA — the benchmark whose
        // depth lives between gates, out of the in-run packers' reach.
        let spec = MachineSpec::paper_l6();
        let rows = pack_gains(&paper_suite(), &spec);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.packed_makespan_us <= r.lookahead_makespan_us,
                "{}: packed {} > lookahead {}",
                r.name,
                r.packed_makespan_us,
                r.lookahead_makespan_us
            );
            assert!(
                r.packed_makespan_us <= r.greedy_makespan_us,
                "{}: packed {} > greedy {}",
                r.name,
                r.packed_makespan_us,
                r.greedy_makespan_us
            );
        }
        let qaoa = rows.iter().find(|r| r.name == "QAOA").expect("QAOA row");
        assert!(
            qaoa.packed_makespan_us < qaoa.lookahead_makespan_us,
            "QAOA must strictly improve: packed {} vs lookahead {}",
            qaoa.packed_makespan_us,
            qaoa.lookahead_makespan_us
        );
    }

    #[test]
    fn aggregate_random_matches_rows() {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let rows: Vec<ComparisonRow> = (0..3)
            .map(|i| {
                compare(
                    &BenchmarkCircuit {
                        name: format!("r{i}"),
                        circuit: random_circuit(12, 60, i),
                    },
                    &spec,
                    &SimParams::default(),
                )
            })
            .collect();
        let agg = aggregate_random(&rows);
        assert!((agg.gates.0 - 60.0).abs() < 1e-9);
        assert!(
            agg.baseline.0 >= agg.optimized.0,
            "optimized mean should not exceed baseline"
        );
    }
}
