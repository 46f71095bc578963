//! Domain scenario: compiling a QAOA MaxCut workload — the benchmark with
//! the paper's highest shuttle-to-gate ratio and biggest fidelity win.
//!
//! Sweeps QAOA depth (rounds) and reports how shuttle counts, program
//! fidelity and makespan respond to the optimized compiler.
//!
//! ```text
//! cargo run --release --example qaoa_workload
//! ```

use muzzle_shuttle::circuit::generators::qaoa;
use muzzle_shuttle::compiler::{compile, CompilerConfig, ScheduleAnalysis};
use muzzle_shuttle::machine::MachineSpec;
use muzzle_shuttle::sim::{simulate, SimParams};
use muzzle_shuttle::timing::trap_reports;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineSpec::paper_l6();
    let params = SimParams::default();
    println!("QAOA MaxCut on {machine} (64 qubits, random 3-regular graph)");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "rounds", "2q gates", "base shtl", "opt shtl", "redux", "F improve", "makespan(ms)"
    );
    for rounds in [2u32, 5, 9, 13] {
        let circuit = qaoa(64, rounds, 0xA0A0);
        let base = compile(&circuit, &machine, &CompilerConfig::baseline())?;
        let opt = compile(&circuit, &machine, &CompilerConfig::optimized())?;
        let base_sim = simulate(&base.schedule, &circuit, &machine, &params)?;
        let opt_sim = simulate(&opt.schedule, &circuit, &machine, &params)?;
        println!(
            "{:>6} {:>9} {:>10} {:>10} {:>7.1}% {:>11.2}X {:>12.1}",
            rounds,
            circuit.two_qubit_gate_count(),
            base.stats.shuttles,
            opt.stats.shuttles,
            100.0 * (base.stats.shuttles as f64 - opt.stats.shuttles as f64)
                / base.stats.shuttles.max(1) as f64,
            opt_sim.fidelity_improvement_over(&base_sim),
            opt_sim.makespan_us / 1000.0,
        );
    }
    println!();
    println!("Deeper QAOA → more shuttles per gate → larger fidelity win for");
    println!("the optimized compiler (the paper's §IV-C observation).");

    // Dig into the deepest instance with the analysis API and the
    // compile's own timeline.
    let circuit = qaoa(64, 13, 0xA0A0);
    let base = compile(&circuit, &machine, &CompilerConfig::baseline())?;
    let opt = compile(&circuit, &machine, &CompilerConfig::optimized())?;
    println!();
    println!("movement analysis (13 rounds):");
    let base_a = ScheduleAnalysis::analyze(&base.schedule, machine.num_traps(), 64);
    let opt_a = ScheduleAnalysis::analyze(&opt.schedule, machine.num_traps(), 64);
    println!("  baseline : {base_a}");
    println!("  optimized: {opt_a}");
    println!(
        "  ping-pong traffic removed: {} -> {} hops",
        base_a.total_ping_pong(),
        opt_a.total_ping_pong()
    );

    let opt_sim = simulate(&opt.schedule, &circuit, &machine, &params)?;
    let traps = trap_reports(&opt.timeline, machine.num_traps() as usize);
    let mean_utilization = traps.iter().map(|t| t.utilization).sum::<f64>() / traps.len() as f64;
    println!(
        "  optimized machine idle fraction: {:.0}%  worst gate fidelity: {:.4}",
        100.0 * (1.0 - mean_utilization),
        opt_sim.min_gate_fidelity
    );
    for t in &traps {
        println!(
            "  trap {}: {:>5} events, busy {:>3.0}%, longest idle {:.1} ms",
            t.trap,
            t.events,
            100.0 * t.utilization,
            t.longest_idle_us / 1000.0
        );
    }
    Ok(())
}
