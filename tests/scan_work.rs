//! Work budget of the §III scans (direction, re-ordering and eviction
//! scores) on a large paper-default compile, read from the deterministic
//! `core.scan_entries` counter. The scans read a per-qubit remaining-gate
//! index, so their work per gate does not grow with the circuit (about
//! 95 entries per gate here); a scan that walks the whole pending queue
//! per decision reads thousands of queue positions per eviction alone.
//! This file holds one test because telemetry is process-global.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompilerConfig};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::obs;

#[test]
fn scan_work_per_gate_stays_bounded_on_a_large_grid_compile() {
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).unwrap();
    let gates = 8_000;
    let circuit = random_circuit(120, gates, 1);
    obs::reset();
    obs::enable();
    let result = compile(&circuit, &spec, &CompilerConfig::optimized()).unwrap();
    obs::disable();
    let entries = obs::counter_value("core.scan_entries");
    assert!(result.stats.rebalances > 0 && result.stats.reorders > 0);
    let per_gate = entries as f64 / gates as f64;
    assert!(
        (1.0..200.0).contains(&per_gate),
        "{entries} scan entries for {gates} gates"
    );
}
