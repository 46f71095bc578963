//! `muzzle eval --format paper`: the paper's evaluation artefacts (§IV)
//! in its own layout.
//!
//! Table II (shuttles), Fig. 8 (fidelity) and Table III (compile time)
//! print the paper suite's [`ComparisonRow`]s plus the random suite's
//! "Random" aggregate row; the per-heuristic ablation, the §III-A3
//! proximity sweep and the §IV-E3 initial-placement ablation compile the
//! paper suite once more per configuration and print shuttle counts.

use qccd_bench::{aggregate_random, ComparisonRow, RandomAggregate, RANDOM_SUITE_SEED};
use qccd_circuit::generators::{paper_suite, random_suite};
use qccd_core::{
    compile, CompilerConfig, DirectionPolicy, IonSelection, MappingPolicy, RebalancePolicy,
};
use qccd_machine::MachineSpec;

/// Every artefact, in the paper's order, for the paper suite's `nisq`
/// rows and the `random` suite's rows (`per_size` circuits per qubit
/// count) on `machine` under the `timing` preset.
pub fn render_paper(
    machine: &MachineSpec,
    timing: &str,
    per_size: usize,
    nisq: &[ComparisonRow],
    random: &[ComparisonRow],
) -> String {
    let aggregate = aggregate_random(random);
    let mut out = format!(
        "# muzzle-shuttle paper evaluation (timing {timing})\n\
         # machine: {machine}   random suite: {per_size} circuits/size, seed {RANDOM_SUITE_SEED:#x}\n\n"
    );
    table2(&mut out, nisq, &aggregate);
    fig8(&mut out, nisq, &aggregate);
    table3(&mut out, nisq, &aggregate);
    ablation(&mut out, machine);
    proximity(&mut out, machine);
    mapping_ablation(&mut out, machine);
    out
}

/// Table II: reduction in the number of shuttles.
fn table2(out: &mut String, nisq: &[ComparisonRow], a: &RandomAggregate) {
    out.push_str("## Table II — Reduction in the number of shuttles\n");
    out.push_str(&format!(
        "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>8}\n",
        "Benchmark", "Qubits", "2Q gates", "[7]", "This Work", "D(dn)", "%D"
    ));
    for r in nisq {
        out.push_str(&format!(
            "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.2}%\n",
            r.name,
            r.qubits,
            r.two_qubit_gates,
            r.baseline_shuttles,
            r.optimized_shuttles,
            r.delta(),
            r.delta_percent()
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.2}%   (means; s in parens below)\n",
        "Random",
        "60-75",
        format!("{:.0}", a.gates.0),
        format!("{:.0}", a.baseline.0),
        format!("{:.0}", a.optimized.0),
        format!("{:.0}", a.delta.0),
        a.delta_percent.0
    ));
    out.push_str(&format!(
        "{:<14} {:>6} {:>8} {:>8} {:>10} {:>7} {:>7.0}\n\n",
        "  (std dev)",
        "",
        format!("({:.0})", a.gates.1),
        format!("({:.0})", a.baseline.1),
        format!("({:.0})", a.optimized.1),
        format!("({:.0})", a.delta.1),
        a.delta_percent.1
    ));
}

/// Fig. 8: improvement in program fidelity.
fn fig8(out: &mut String, nisq: &[ComparisonRow], a: &RandomAggregate) {
    out.push_str("## Fig. 8 — Program fidelity improvement (optimized / baseline)\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>14} {:>14}\n",
        "Benchmark", "Improvement", "F(baseline)", "F(this work)"
    ));
    for r in nisq {
        out.push_str(&format!(
            "{:<14} {:>11.2}X {:>14.3e} {:>14.3e}\n",
            r.name,
            r.fidelity_improvement(),
            r.baseline_sim.program_fidelity,
            r.optimized_sim.program_fidelity
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>11.2}X {:>14} {:>14}   (geometric mean)\n\n",
        "Random", a.fidelity_improvement_geomean, "-", "-"
    ));
}

/// Table III: compilation time overhead.
fn table3(out: &mut String, nisq: &[ComparisonRow], a: &RandomAggregate) {
    out.push_str("## Table III — Compilation time overhead\n");
    out.push_str(&format!(
        "{:<14} {:>18} {:>14} {:>10}\n",
        "Benchmark", "This work (sec)", "[7] (sec)", "D(up)"
    ));
    for r in nisq {
        out.push_str(&format!(
            "{:<14} {:>18.4} {:>14.4} {:>10.4}\n",
            r.name,
            r.optimized_compile_s,
            r.baseline_compile_s,
            r.compile_overhead_s()
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>18.4} {:>14.4} {:>10.4}   (means)\n\n",
        "Random",
        a.compile_s.1,
        a.compile_s.0,
        a.compile_s.1 - a.compile_s.0
    ));
}

/// The shuttle count of `config`'s compile of a paper-scale benchmark.
fn shuttles(circuit: &qccd_circuit::Circuit, spec: &MachineSpec, config: &CompilerConfig) -> usize {
    compile(circuit, spec, config)
        .expect("paper benchmarks compile on the paper machine")
        .stats
        .shuttles
}

/// Ablation: each heuristic toggled independently (§III design choices).
fn ablation(out: &mut String, spec: &MachineSpec) {
    out.push_str("## Ablation — shuttle count per enabled heuristic\n");
    let baseline = CompilerConfig::baseline();
    let mut dir_only = baseline;
    dir_only.direction = DirectionPolicy::FutureOps {
        proximity: CompilerConfig::DEFAULT_PROXIMITY,
    };
    let mut dir_reorder = dir_only;
    dir_reorder.reorder = true;
    let mut rebalance_only = baseline;
    rebalance_only.rebalance = RebalancePolicy::NearestNeighbor;
    rebalance_only.ion_selection = IonSelection::MaxScore;
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
    out.push_str(&format!("{:<14}", "Benchmark"));
    for (name, _) in &configs {
        out.push_str(&format!(" {name:>16}"));
    }
    out.push('\n');
    for bench in paper_suite() {
        out.push_str(&format!("{:<14}", bench.name));
        for (_, config) in &configs {
            out.push_str(&format!(" {:>16}", shuttles(&bench.circuit, spec, config)));
        }
        out.push('\n');
    }
    out.push('\n');
}

/// §III-A3 proximity design-parameter sweep.
fn proximity(out: &mut String, spec: &MachineSpec) {
    out.push_str("## Proximity sweep — shuttles vs design parameter (paper picks 6)\n");
    let proxies = [1u32, 2, 3, 4, 6, 8, 12, 16, 24];
    out.push_str(&format!("{:<14} {:>9}", "Benchmark", "baseline"));
    for p in proxies {
        out.push_str(&format!(" {:>7}", format!("p={p}")));
    }
    out.push('\n');
    let mut suite = paper_suite();
    suite.extend(random_suite(2, RANDOM_SUITE_SEED));
    for bench in suite {
        let base = shuttles(&bench.circuit, spec, &CompilerConfig::baseline());
        out.push_str(&format!("{:<14} {base:>9}", bench.name));
        for p in proxies {
            let config = CompilerConfig::optimized_with_proximity(p);
            out.push_str(&format!(" {:>7}", shuttles(&bench.circuit, spec, &config)));
        }
        out.push('\n');
    }
    out.push('\n');
}

/// §IV-E3 initial-mapping exploration: how much of the result depends on
/// the shared greedy placement.
fn mapping_ablation(out: &mut String, spec: &MachineSpec) {
    out.push_str(
        "## Initial-mapping ablation — optimized-compiler shuttles per placement policy\n",
    );
    let policies: [(&str, MappingPolicy); 3] = [
        ("greedy[14]", MappingPolicy::GreedyInteraction),
        ("round-robin", MappingPolicy::RoundRobin),
        ("random", MappingPolicy::RandomBalanced { seed: 7 }),
    ];
    out.push_str(&format!("{:<14}", "Benchmark"));
    for (name, _) in &policies {
        out.push_str(&format!(" {:>14}", format!("base/{name}")));
        out.push_str(&format!(" {:>14}", format!("opt/{name}")));
    }
    out.push('\n');
    for bench in paper_suite() {
        out.push_str(&format!("{:<14}", bench.name));
        for (_, mapping) in &policies {
            for mut config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
                config.mapping = *mapping;
                out.push_str(&format!(" {:>14}", shuttles(&bench.circuit, spec, &config)));
            }
        }
        out.push('\n');
    }
    out.push('\n');
}
