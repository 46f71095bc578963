//! Work budget of the round backfill on the clock pipeline, read from the
//! deterministic `route.backfill_scan` counter: candidate rounds examined
//! plus downstream arrival entries re-checked, over every placement. The
//! downstream re-check starts at the first arrival after the candidate
//! round, so doubling the circuit about doubles the work; a re-check that
//! filters a trap's whole arrival list per candidate grows with the
//! circuit's length on top of that. This file holds one test because
//! telemetry is process-global.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{CompilerConfig, Objective};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::obs;
use muzzle_shuttle::pack::compile_clock;
use muzzle_shuttle::timing::TimingModel;

#[test]
fn backfill_scan_work_grows_linearly_with_circuit_length() {
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).unwrap();
    let config = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_objective(Objective::Clock)
        .with_jobs(2);
    let scan = |gates: usize| {
        let circuit = random_circuit(120, gates, 1);
        obs::reset();
        obs::enable();
        compile_clock(&circuit, &spec, &config).unwrap();
        obs::disable();
        let placements = obs::counter_value("route.backfill_attempts");
        let scan = obs::counter_value("route.backfill_scan");
        assert!(
            placements > 0 && scan >= placements,
            "{scan} / {placements}"
        );
        scan
    };
    let (small, large) = (scan(2_000), scan(4_000));
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 2.3,
        "backfill scan work {small} -> {large} (x{ratio:.2}) when the circuit doubles"
    );
}
