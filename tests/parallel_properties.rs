//! The `--jobs N` contract: the only concurrency is `compile_clock`'s
//! two-arm race, and it is a pure wall-clock optimization.
//!
//! At `jobs >= 2` the default-objective arm compiles on a scoped thread
//! while the clock-objective arm compiles on the caller's. Each arm is an
//! independent deterministic compile and the race compares finished
//! results, so `compile_clock` at jobs ∈ {1, 2, 8} must return the same
//! schedule, transport rounds, [`ClockStats`] and makespan bits on
//! {linear, ring, grid} topologies under both timing models.
//!
//! [`ClockStats`]: muzzle_shuttle::pack::ClockStats

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::CompilerConfig;
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::pack::compile_clock;
use muzzle_shuttle::timing::TimingModel;

/// The three paper topologies at a size where shuttling is forced.
fn specs() -> Vec<(&'static str, MachineSpec)> {
    vec![
        (
            "linear",
            MachineSpec::linear(3, 8, 2).expect("linear spec builds"),
        ),
        (
            "ring",
            MachineSpec::new(TrapTopology::ring(4), 8, 2).expect("ring spec builds"),
        ),
        (
            "grid",
            MachineSpec::new(TrapTopology::grid(2, 2), 8, 2).expect("grid spec builds"),
        ),
    ]
}

fn models() -> [(&'static str, TimingModel); 2] {
    [
        ("ideal", TimingModel::ideal()),
        ("realistic", TimingModel::realistic()),
    ]
}

/// "Pool width" is the `--jobs` value: 1 runs the arms one after the
/// other, 2 and 8 race them.
#[test]
fn clock_pipeline_is_bit_identical_at_every_pool_width() {
    for (topo, spec) in specs() {
        let circuit = random_circuit(10, 40, 0x51f1);
        for (timing, model) in models() {
            let config = CompilerConfig::optimized().with_timing(model);
            let (base, base_stats) = compile_clock(&circuit, &spec, &config)
                .unwrap_or_else(|e| panic!("{topo}/{timing}: sequential pipeline failed: {e}"));
            for jobs in [2usize, 8] {
                let (wide, wide_stats) = compile_clock(&circuit, &spec, &config.with_jobs(jobs))
                    .unwrap_or_else(|e| {
                        panic!("{topo}/{timing}: jobs={jobs} pipeline failed: {e}")
                    });
                let at = format!("{topo}/{timing} jobs={jobs}");
                assert_eq!(wide_stats, base_stats, "{at}");
                assert_eq!(
                    wide_stats.chosen_makespan_us.to_bits(),
                    base_stats.chosen_makespan_us.to_bits(),
                    "{at}"
                );
                assert_eq!(wide.schedule, base.schedule, "{at}");
                assert_eq!(wide.transport, base.transport, "{at}");
                assert_eq!(
                    wide.timeline.makespan_us.to_bits(),
                    base.timeline.makespan_us.to_bits(),
                    "{at}"
                );
            }
        }
    }
}
