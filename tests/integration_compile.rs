//! End-to-end integration tests: circuits → compiler → schedule →
//! validation → simulation, across crates.

use muzzle_shuttle::circuit::generators::{
    qaoa, qft, quadratic_form, random_circuit, square_root, supremacy,
};
use muzzle_shuttle::circuit::Circuit;
use muzzle_shuttle::compiler::{compile, CompileError, CompileResult, CompilerConfig, Objective};
use muzzle_shuttle::machine::MachineSpec;
use muzzle_shuttle::pack::{compile_clock, compile_packed};
use muzzle_shuttle::route::RouterPolicy;
use muzzle_shuttle::sim::{simulate, SimParams};
use muzzle_shuttle::timing::TimingModel;

/// Scaled-down versions of the paper's benchmarks that compile in
/// milliseconds but exercise every pattern.
fn mini_suite() -> Vec<(&'static str, Circuit)> {
    vec![
        ("supremacy", supremacy(4, 4, 12)),
        ("qaoa", qaoa(16, 4, 3)),
        ("square_root", square_root(16, 3)),
        ("qft", qft(16)),
        ("quadratic_form", quadratic_form(16, 200)),
        ("random", random_circuit(18, 200, 9)),
    ]
}

#[test]
fn every_benchmark_compiles_and_validates_under_both_configs() {
    let spec = MachineSpec::linear(3, 8, 2).unwrap();
    for (name, circuit) in mini_suite() {
        for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
            let result =
                compile(&circuit, &spec, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
            // compile() already replay-validates; double-check the counts.
            assert_eq!(result.stats.gate_ops, circuit.len(), "{name}");
            assert_eq!(
                result.schedule.stats().shuttles,
                result.stats.shuttles,
                "{name}"
            );
            result.schedule.validate(&circuit, &spec).unwrap();
        }
    }
}

#[test]
fn optimized_never_loses_badly_and_usually_wins() {
    let spec = MachineSpec::linear(3, 8, 2).unwrap();
    let mut wins = 0usize;
    let mut total = 0usize;
    for (name, circuit) in mini_suite() {
        let base = compile(&circuit, &spec, &CompilerConfig::baseline()).unwrap();
        let opt = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
        total += 1;
        if opt.stats.shuttles < base.stats.shuttles {
            wins += 1;
        }
        // The optimized compiler must never be drastically worse.
        assert!(
            (opt.stats.shuttles as f64) < 1.25 * base.stats.shuttles.max(4) as f64,
            "{name}: optimized {} vs baseline {}",
            opt.stats.shuttles,
            base.stats.shuttles
        );
    }
    assert!(
        wins * 3 >= total * 2,
        "optimized should win on at least 2/3 of the mini suite ({wins}/{total})"
    );
}

#[test]
fn simulation_agrees_with_compile_stats() {
    let spec = MachineSpec::linear(3, 8, 2).unwrap();
    let params = SimParams::default();
    for (name, circuit) in mini_suite() {
        let result = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
        let report = simulate(&result.schedule, &circuit, &spec, &params).unwrap();
        assert_eq!(report.gates, circuit.len(), "{name}");
        assert_eq!(report.shuttles, result.stats.shuttles, "{name}");
        assert!(
            report.program_fidelity >= 0.0 && report.program_fidelity <= 1.0,
            "{name}"
        );
        assert!(report.makespan_us > 0.0, "{name}");
    }
}

#[test]
fn fewer_shuttles_gives_higher_fidelity_on_same_circuit() {
    // The Fig. 8 mechanism end-to-end: the compiler with fewer shuttles
    // must produce at least as good a program fidelity.
    let spec = MachineSpec::linear(4, 8, 2).unwrap();
    let params = SimParams::default();
    let circuit = random_circuit(24, 400, 77);
    let base = compile(&circuit, &spec, &CompilerConfig::baseline()).unwrap();
    let opt = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
    assert!(opt.stats.shuttles < base.stats.shuttles);
    let base_rep = simulate(&base.schedule, &circuit, &spec, &params).unwrap();
    let opt_rep = simulate(&opt.schedule, &circuit, &spec, &params).unwrap();
    assert!(
        opt_rep.program_fidelity > base_rep.program_fidelity,
        "optimized {} vs baseline {}",
        opt_rep.program_fidelity,
        base_rep.program_fidelity
    );
    assert!(opt_rep.fidelity_improvement_over(&base_rep) > 1.0);
}

#[test]
fn paper_machine_hosts_all_paper_benchmarks() {
    let spec = MachineSpec::paper_l6();
    // 78-qubit SquareRoot is the largest circuit; 6 × 15 = 90 slots.
    assert!(spec.initial_capacity() >= 78);
    let circuit = square_root(78, 2); // shortened for test speed
    for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
        compile(&circuit, &spec, &config).unwrap();
    }
}

#[test]
fn oversubscribed_machine_is_rejected_cleanly() {
    let spec = MachineSpec::linear(2, 4, 1).unwrap();
    let circuit = random_circuit(10, 20, 1);
    let err = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap_err();
    assert!(matches!(err, CompileError::CircuitTooLarge { .. }));
}

#[test]
fn capacity_u32_max_compiles_under_every_stack() {
    // `capacity + departures` once wrapped u32 in the round-capacity
    // checks: every router rejected its own rounds (debug builds panicked).
    let spec = MachineSpec::linear(6, u32::MAX, 2).unwrap();
    let base = CompilerConfig::optimized().with_timing(TimingModel::realistic());
    let strict = |r: &CompileResult, circuit: &Circuit| {
        r.schedule.validate(circuit, &spec).unwrap();
        r.transport.validate(&r.schedule, &spec).unwrap();
        r.timeline.validate().unwrap();
    };
    for circuit in [qft(8), random_circuit(12, 200, 3)] {
        let mut shuttles = 0;
        for (router, lookahead) in [
            (RouterPolicy::Serial, false),
            (RouterPolicy::congestion(), false),
            (RouterPolicy::congestion(), true),
        ] {
            let config = base.with_router(router).with_lookahead(lookahead);
            let r = compile(&circuit, &spec, &config).unwrap();
            r.schedule.validate(&circuit, &spec).unwrap();
            r.transport.validate_relaxed(&r.schedule, &spec).unwrap();
            if !lookahead {
                r.transport.validate(&r.schedule, &spec).unwrap();
            }
            r.timeline.validate().unwrap();
            shuttles += r.stats.shuttles;
        }
        let (packed, _) = compile_packed(&circuit, &spec, &base).unwrap();
        strict(&packed, &circuit);
        let clock = base.with_objective(Objective::Clock).with_jobs(2);
        let (clocked, _) = compile_clock(&circuit, &spec, &clock).unwrap();
        strict(&clocked, &circuit);
        assert!(shuttles > 0, "the machine must actually shuttle");
    }
}

#[test]
fn single_trap_machine_needs_no_shuttles() {
    let spec = MachineSpec::linear(1, 20, 2).unwrap();
    let circuit = random_circuit(16, 300, 5);
    for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
        let r = compile(&circuit, &spec, &config).unwrap();
        assert_eq!(r.stats.shuttles, 0);
    }
}

#[test]
fn deterministic_compilation() {
    let spec = MachineSpec::linear(3, 8, 2).unwrap();
    let circuit = random_circuit(18, 250, 13);
    let a = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
    let b = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn ring_and_grid_topologies_compile() {
    use muzzle_shuttle::machine::TrapTopology;
    let circuit = random_circuit(18, 200, 21);
    for topology in [TrapTopology::ring(4), TrapTopology::grid(2, 2)] {
        let spec = MachineSpec::new(topology, 8, 2).unwrap();
        for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
            let r = compile(&circuit, &spec, &config).unwrap();
            r.schedule.validate(&circuit, &spec).unwrap();
        }
    }
}
