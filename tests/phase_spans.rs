//! The fixed per-compile passes each report under their own `--profile`
//! phase: DAG build, schedule validation, transport packing and strict
//! transport validation, beside the existing lowering span. This file
//! holds one test because telemetry is process-global.

use muzzle_shuttle::circuit::generators::qft;
use muzzle_shuttle::compiler::{compile, CompilerConfig, RouterPolicy};
use muzzle_shuttle::machine::MachineSpec;
use muzzle_shuttle::obs;

#[test]
fn fixed_passes_have_their_own_phase_spans() {
    let spec = MachineSpec::linear(2, 12, 2).unwrap();
    let circuit = qft(16);
    let congestion = CompilerConfig {
        router: RouterPolicy::congestion(),
        ..CompilerConfig::optimized()
    };
    for config in [CompilerConfig::optimized(), congestion] {
        obs::reset();
        obs::enable();
        compile(&circuit, &spec, &config).unwrap();
        obs::disable();
        let phases = obs::phase_stats();
        for name in [
            "compile",
            "dag",
            "schedule-validate",
            "transport-pack",
            "transport-validate",
            "lowering",
        ] {
            let count = phases.iter().find(|p| p.name == name).map(|p| p.count);
            assert_eq!(count, Some(1), "{name} in {:?}", config.router);
        }
    }
}
