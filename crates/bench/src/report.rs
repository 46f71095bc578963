//! The evaluation report and the documents it shares with the CLI: one
//! renderer per JSON object that both `muzzle eval` and `muzzle snapshot`
//! print.
//!
//! [`report_json`] builds the whole `muzzle eval --format json` document:
//! the Fig. 4 preamble, one [`row_json`] object per benchmark, then the
//! nine [`SuiteChecks`] flags. `muzzle eval`'s text mode reads the same
//! checks. The snapshot is this document with per-benchmark `profile`/
//! `explain`/`fidelity`/`jobs` subtrees appended
//! ([`crate::profile::render_snapshot`]), and the instrumentation-parity
//! check compares two [`row_json`] renderings of the same benchmark
//! ([`crate::profile::profile_suite`]).
//!
//! The subtrees have one renderer each, which the CLI calls too:
//! [`profile_json`] (`muzzle compile|simulate --profile`),
//! [`fidelity_json`] (`muzzle explain --fidelity`), and
//! [`attribution_json`] with [`blame_counts_json`] (`muzzle explain`).

use crate::ComparisonRow;
use qccd_circuit::parser::parse_program;
use qccd_core::{compile_with_mapping, CompilerConfig};
use qccd_machine::{InitialMapping, MachineSpec, TrapId};
use qccd_obs::json::Json;
use qccd_obs::{HistogramSnapshot, PhaseStat};
use qccd_sim::{FidelityAttribution, LossTerm};
use qccd_timing::{CriticalPath, MakespanAttribution};

/// Suite-level acceptance flags reported after the per-benchmark rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteChecks {
    /// Optimized shuttle count ≤ baseline on every benchmark (Table II).
    pub all_leq: bool,
    /// Optimized `log_program_fidelity` ≥ baseline on every benchmark
    /// (Fig. 8's ≥ 1X). Reads false on the paper suite, whose QFT loses
    /// fidelity to the baseline.
    pub fidelity_geq: bool,
    /// Congestion-routed shuttle count ≤ serial on every benchmark.
    pub congestion_leq: bool,
    /// Benchmarks whose concurrent transport depth is strictly below the
    /// serial shuttle count.
    pub depth_wins: usize,
    /// Benchmarks whose congestion-routed *timed* makespan (under the
    /// selected timing model) is at or below the serial router's.
    pub timed_makespan_wins: usize,
    /// Packed timed makespan ≤ lookahead on every benchmark (the packer's
    /// never-regress guarantee, re-checked end to end).
    pub packed_leq_lookahead: bool,
    /// Benchmarks where packing *strictly* beat lookahead on the clock.
    pub packed_strict_wins: usize,
    /// Clock-objective timed makespan ≤ packed on every benchmark (the
    /// clock pipeline's never-regress guarantee, re-checked end to end).
    pub clock_leq_packed: bool,
    /// Benchmarks where the clock objective *strictly* beat the packed
    /// stack on the device clock.
    pub clock_strict_wins: usize,
}

impl SuiteChecks {
    /// The nine flags over `rows`.
    pub fn of(rows: &[ComparisonRow]) -> SuiteChecks {
        let count = |pred: fn(&ComparisonRow) -> bool| rows.iter().filter(|r| pred(r)).count();
        SuiteChecks {
            all_leq: rows
                .iter()
                .all(|r| r.optimized_shuttles <= r.baseline_shuttles),
            fidelity_geq: rows.iter().all(|r| {
                r.optimized_sim.log_program_fidelity >= r.baseline_sim.log_program_fidelity
            }),
            congestion_leq: rows
                .iter()
                .all(|r| r.congestion_shuttles <= r.optimized_shuttles),
            depth_wins: count(|r| r.transport_depth < r.optimized_shuttles),
            timed_makespan_wins: count(|r| {
                r.transport_sim.timed_makespan_us <= r.optimized_sim.timed_makespan_us
            }),
            packed_leq_lookahead: rows
                .iter()
                .all(|r| r.packed_timed_makespan_us <= r.lookahead_timed_makespan_us),
            packed_strict_wins: count(|r| {
                r.packed_timed_makespan_us < r.lookahead_timed_makespan_us
            }),
            clock_leq_packed: rows
                .iter()
                .all(|r| r.clock_timed_makespan_us <= r.packed_timed_makespan_us),
            clock_strict_wins: count(|r| r.clock_stats.improved),
        }
    }
}

/// The Fig. 4 worked example's shuttle counts `(baseline, optimized)`:
/// `MS q1,q2; MS q2,q3; MS q1,q2; MS q2,q4;` on two traps of capacity 4
/// with ions 0-1 in T0 and 2-4 in T1. Every report opens with it.
pub fn fig4_worked_example() -> (usize, usize) {
    let circuit = parse_program(
        "MS q[1], q[2];\nMS q[2], q[3];\nMS q[1], q[2];\nMS q[2], q[4];",
        5,
    )
    .expect("the Fig. 4 program parses");
    let spec = MachineSpec::linear(2, 4, 1).expect("the Fig. 4 machine builds");
    let mapping = InitialMapping::from_traps(
        &spec,
        vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
    )
    .expect("the Fig. 4 mapping fits");
    let baseline = compile_with_mapping(
        &circuit,
        &spec,
        &CompilerConfig::baseline(),
        mapping.clone(),
    )
    .expect("the Fig. 4 program compiles");
    let optimized = compile_with_mapping(&circuit, &spec, &CompilerConfig::optimized(), mapping)
        .expect("the Fig. 4 program compiles");
    (baseline.stats.shuttles, optimized.stats.shuttles)
}

/// One benchmark's report object, `name` through `utilization`.
pub fn row_json(r: &ComparisonRow) -> Json {
    let sim = |fidelity: f64, makespan_us: f64, compile_s: f64| {
        Json::obj(vec![
            ("program_fidelity", Json::Num(fidelity)),
            ("makespan_us", Json::Num(makespan_us)),
            ("compile_seconds", Json::Num(compile_s)),
        ])
    };
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
            sim(
                r.baseline_sim.program_fidelity,
                r.baseline_sim.makespan_us,
                r.baseline_compile_s,
            ),
        ),
        (
            "optimized",
            sim(
                r.optimized_sim.program_fidelity,
                r.optimized_sim.makespan_us,
                r.optimized_compile_s,
            ),
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
}

/// The whole `muzzle eval --format json` document for `rows` of suite
/// `suite` on `machine` under the `timing` preset.
pub fn report_json(
    suite: &str,
    machine: &MachineSpec,
    timing: &str,
    rows: &[ComparisonRow],
) -> Json {
    let (fig4_baseline, fig4_optimized) = fig4_worked_example();
    let checks = SuiteChecks::of(rows);
    Json::obj(vec![
        ("suite", Json::str(suite)),
        ("machine", Json::str(machine.to_string())),
        ("timing", Json::str(timing)),
        (
            "fig4_worked_example",
            Json::obj(vec![
                ("baseline_shuttles", Json::int(fig4_baseline)),
                ("optimized_shuttles", Json::int(fig4_optimized)),
            ]),
        ),
        ("benchmarks", Json::Arr(rows.iter().map(row_json).collect())),
        ("all_optimized_leq_baseline", Json::Bool(checks.all_leq)),
        (
            "all_optimized_fidelity_geq_baseline",
            Json::Bool(checks.fidelity_geq),
        ),
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
    ])
}

/// What the `qccd-obs` recorder holds after an instrumented run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Per-phase wall-time breakdown, hottest self-time first.
    pub phases: Vec<PhaseStat>,
    /// Every hot-path counter touched during the run, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Value-distribution histograms recorded during the run, sorted by
    /// name (e.g. candidate scores per clock round).
    pub histograms: Vec<HistogramSnapshot>,
    /// `timing.delta_hits / (delta_hits + clone_fallbacks)`: the share of
    /// speculative candidates priced by the O(delta) path, 1 when none was
    /// priced. Shuttle-only candidate walks keep this at exactly 1.
    pub delta_hit_rate: f64,
    /// Wall time between the first and last recorded span, µs.
    pub wall_us: f64,
}

impl Profile {
    /// Reads the recorder as it stands.
    pub fn recorded() -> Profile {
        let hits = qccd_obs::counter_value("timing.delta_hits");
        let fallbacks = qccd_obs::counter_value("timing.clone_fallbacks");
        Profile {
            phases: qccd_obs::phase_stats(),
            counters: qccd_obs::counters(),
            histograms: qccd_obs::histograms(),
            delta_hit_rate: if hits + fallbacks == 0 {
                1.0
            } else {
                hits as f64 / (hits + fallbacks) as f64
            },
            wall_us: qccd_obs::wall_us(),
        }
    }
}

/// The `profile` object: phases (inclusive and self time), counters,
/// histograms, the delta hit rate and the recorded wall time.
pub fn profile_json(p: &Profile) -> Json {
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

/// The makespan attribution object: the six critical-path segments, their
/// sum, the makespan, and whether the two agree bit for bit.
pub fn attribution_json(attribution: &MakespanAttribution) -> Json {
    Json::obj(vec![
        ("gate_us", Json::Num(attribution.gate_us)),
        ("flight_us", Json::Num(attribution.flight_us)),
        ("split_merge_us", Json::Num(attribution.split_merge_us)),
        ("junction_us", Json::Num(attribution.junction_us)),
        ("zone_move_us", Json::Num(attribution.zone_move_us)),
        ("idle_wait_us", Json::Num(attribution.idle_wait_us)),
        ("total_us", Json::Num(attribution.total_us())),
        ("makespan_us", Json::Num(attribution.makespan_us)),
        (
            "identity",
            Json::Bool(attribution.total_us().to_bits() == attribution.makespan_us.to_bits()),
        ),
    ])
}

/// How many critical-path steps each blame bound, by blame label.
pub fn blame_counts_json(path: &CriticalPath) -> Json {
    Json::Obj(
        path.blame_counts()
            .iter()
            .map(|(b, n)| (b.label().to_owned(), Json::int(*n)))
            .collect(),
    )
}

/// The fidelity-attribution object: the loss decomposition, the duration
/// and motional shares, and the `top` worst gates, hottest traps and
/// costliest shuttles.
pub fn fidelity_json(attr: &FidelityAttribution, top: usize) -> Json {
    let worst = attr
        .worst_gates(top)
        .iter()
        .filter_map(|term| match **term {
            LossTerm::Gate {
                gate,
                trap,
                start_us,
                end_us,
                chain_len,
                tau_us,
                fidelity,
                n_bar,
                log_loss,
                duration_loss,
                motional_loss,
                heat_loss,
                ..
            } => Some(Json::obj(vec![
                ("gate", Json::int(gate.index())),
                ("trap", Json::int(trap.index())),
                ("start_us", Json::Num(start_us)),
                ("end_us", Json::Num(end_us)),
                ("chain_len", Json::int(chain_len as usize)),
                ("tau_us", Json::Num(tau_us)),
                ("fidelity", Json::Num(fidelity)),
                ("n_bar", Json::Num(n_bar)),
                ("log_loss", Json::Num(log_loss)),
                ("duration_loss", Json::Num(duration_loss)),
                ("motional_loss", Json::Num(motional_loss)),
                ("heat_loss", Json::Num(heat_loss)),
            ])),
            LossTerm::Shuttle { .. } => None,
        })
        .collect();
    let hottest = attr
        .hottest_traps(top)
        .into_iter()
        .map(|(trap, blamed, gross)| {
            Json::obj(vec![
                ("trap", Json::int(trap)),
                ("blamed_log_loss", Json::Num(blamed)),
                ("gross_quanta", Json::Num(gross)),
            ])
        })
        .collect();
    let costliest = attr
        .costliest_shuttles(top)
        .into_iter()
        .map(|h| {
            Json::obj(vec![
                ("shuttle", Json::int(h.shuttle)),
                ("ion", Json::int(h.ion.index())),
                ("from", Json::int(h.from.index())),
                ("to", Json::int(h.to.index())),
                ("pulse_log_loss", Json::Num(h.pulse_log_loss)),
                ("heat_log_loss", Json::Num(h.heat_log_loss)),
                ("total_log_loss", Json::Num(h.total_log_loss())),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "log_program_fidelity",
            Json::Num(attr.report.log_program_fidelity),
        ),
        ("total_loss", Json::Num(attr.total_loss())),
        ("duration_loss", Json::Num(attr.gate_duration_loss)),
        ("motional_loss", Json::Num(attr.gate_motional_loss)),
        ("zero_point_loss", Json::Num(attr.gate_zero_point_loss)),
        ("heat_loss", Json::Num(attr.gate_heat_loss)),
        ("shuttle_pulse_loss", Json::Num(attr.shuttle_pulse_loss)),
        ("duration_share", Json::Num(attr.duration_share())),
        ("motional_share", Json::Num(attr.motional_share())),
        ("saturated_gates", Json::int(attr.saturated_gates)),
        ("identity", Json::Bool(attr.identity_holds())),
        ("worst_gates", Json::Arr(worst)),
        ("hottest_traps", Json::Arr(hottest)),
        ("costliest_shuttles", Json::Arr(costliest)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::snapshot_mismatches;
    use qccd_circuit::generators::{random_circuit, BenchmarkCircuit};
    use qccd_sim::SimParams;
    use qccd_timing::TimingModel;

    fn tiny_row() -> ComparisonRow {
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let bench = BenchmarkCircuit {
            name: "tiny".into(),
            circuit: random_circuit(12, 80, 3),
        };
        crate::compare_timed(
            &bench,
            &spec,
            &SimParams::default(),
            &TimingModel::realistic(),
        )
    }

    /// The instrumentation-parity check compares whole rendered rows, so
    /// it sees drift in the utilization figures and the fidelity shares
    /// (which a hand-kept field list once missed) but not in the
    /// wall-clock compile seconds.
    #[test]
    fn row_parity_names_utilization_and_fidelity_share_drift() {
        let row = tiny_row();
        let reference = row_json(&row);
        assert!(snapshot_mismatches(&reference, &row_json(&row)).is_empty());

        let mut idle = row.clone();
        idle.idle_fraction += 0.125;
        assert_eq!(
            snapshot_mismatches(&reference, &row_json(&idle)),
            vec!["utilization.idle_fraction".to_owned()]
        );
        let mut motional = row.clone();
        motional.clock_motional_share += 0.125;
        assert_eq!(
            snapshot_mismatches(&reference, &row_json(&motional)),
            vec!["clock.fidelity_motional_share".to_owned()]
        );
        let mut slower = row;
        slower.clock_compile_s += 1.0;
        slower.baseline_compile_s += 1.0;
        assert!(snapshot_mismatches(&reference, &row_json(&slower)).is_empty());
    }

    /// The suite flags in the document are the ones `SuiteChecks::of`
    /// computes, and an `all_` flag clears when one row breaks it.
    #[test]
    fn report_carries_the_suite_checks() {
        let row = tiny_row();
        let mut worse = row.clone();
        worse.name = "worse".into();
        worse.optimized_shuttles = worse.baseline_shuttles + 1;
        let rows = vec![row, worse];
        let checks = SuiteChecks::of(&rows);
        assert!(!checks.all_leq);
        assert!(SuiteChecks::of(&rows[..1]).all_leq);
        let mut lossy = rows[0].clone();
        lossy.optimized_sim.log_program_fidelity = lossy.baseline_sim.log_program_fidelity - 1.0;
        assert!(!SuiteChecks::of(&[rows[0].clone(), lossy]).fidelity_geq);
        let spec = MachineSpec::linear(3, 8, 2).unwrap();
        let doc = report_json("mini", &spec, "realistic", &rows).to_string();
        assert!(doc.contains("\"all_optimized_leq_baseline\": false"));
        assert!(doc.contains(&format!(
            "\"all_optimized_fidelity_geq_baseline\": {}",
            checks.fidelity_geq
        )));
        assert!(doc.contains(&format!(
            "\"clock_strict_win_count\": {}",
            checks.clock_strict_wins
        )));
        assert!(doc.contains("\"baseline_shuttles\": 4"), "Fig. 4 preamble");
    }
}
