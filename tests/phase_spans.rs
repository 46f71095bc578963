//! The fixed per-compile passes each report under their own `--profile`
//! phase: DAG build, transport packing, and the one checked replay that
//! validates the schedule and its rounds while it lowers them. So do the
//! optimized loop's local-gate drain and §III-B reorder scan. This file
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
        for name in ["compile", "dag", "transport-pack", "replay"] {
            let count = phases.iter().find(|p| p.name == name).map(|p| p.count);
            assert_eq!(count, Some(1), "{name} in {:?}", config.router);
        }
        // The standalone validators and `lower` no longer run inside a
        // compile: the replay applies their rules.
        for name in ["schedule-validate", "transport-validate", "lowering"] {
            assert!(
                phases.iter().all(|p| p.name != name),
                "{name} in {:?}",
                config.router
            );
        }
    }

    // QFT-64 on the paper's L6 machine hits full destinations, so the
    // optimized loop scans for reorder candidates as well as draining.
    obs::reset();
    obs::enable();
    compile(
        &qft(64),
        &MachineSpec::paper_l6(),
        &CompilerConfig::optimized(),
    )
    .unwrap();
    obs::disable();
    let phases = obs::phase_stats();
    for name in ["drain", "reorder-scan"] {
        let count = phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.count);
        assert!(count > 0, "{name} never ran");
    }
}
