//! Parity pins for every min-cost-flow caller. The values were recorded
//! from the compiler whose flow layer rebuilt a network per commodity and
//! read paths back out of the flow assignment; the one-unit path
//! primitive must reproduce them bit for bit:
//!
//! * the clock pipeline on a 4×4 grid — priced routes, priced evictions
//!   and batched multi-commodity layers, plus the flow work counters;
//! * a congestion-router compile on the paper's L6 machine — priced
//!   routes and evictions under the shuttle objective;
//! * the baseline compiler (`FromTrapZero` re-balancing) on L6 — the
//!   MCMF eviction route of §III-C1.

use muzzle_shuttle::circuit::generators::random_circuit;
use muzzle_shuttle::compiler::{compile, CompileResult, CompilerConfig, Objective};
use muzzle_shuttle::machine::{MachineSpec, TrapTopology};
use muzzle_shuttle::obs;
use muzzle_shuttle::pack::{compile_clock, ClockStats};
use muzzle_shuttle::route::RouterPolicy;
use muzzle_shuttle::timing::TimingModel;
use std::sync::Mutex;

/// Telemetry counters are process-global: tests in this binary compile
/// one at a time so the counter pins see only their own compile.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with telemetry on and returns its value with the flow work
/// counters: solves, augmenting paths, commodities, fallbacks.
fn with_flow_counters<T>(f: impl FnOnce() -> T) -> (T, [u64; 4]) {
    obs::reset();
    obs::enable();
    let value = f();
    obs::disable();
    let counters = [
        "flow.solves",
        "flow.augmenting_paths",
        "flow.commodities_routed",
        "flow.commodity_fallbacks",
    ]
    .map(obs::counter_value);
    (value, counters)
}

/// Shuttles, transport depth and timed-makespan bits of one result.
fn quality(result: &CompileResult) -> (usize, usize, u64) {
    (
        result.stats.shuttles,
        result.transport.depth(),
        result.timeline.makespan_us.to_bits(),
    )
}

#[test]
fn clock_pipeline_on_grid_matches_recorded_flow_routes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = MachineSpec::new(TrapTopology::grid(4, 4), 12, 2).unwrap();
    let config = CompilerConfig::optimized()
        .with_timing(TimingModel::realistic())
        .with_objective(Objective::Clock)
        .with_jobs(2);
    let circuit = random_circuit(120, 2000, 1);
    let ((result, stats), counters) =
        with_flow_counters(|| compile_clock(&circuit, &spec, &config).unwrap());
    assert_eq!(quality(&result), (4483, 1729, 4696141619680772096));
    assert_eq!(
        stats,
        ClockStats {
            packed_makespan_us: f64::from_bits(4697303262305452032),
            clock_makespan_us: f64::from_bits(4696141619680772096),
            chosen_makespan_us: f64::from_bits(4696141619680772096),
            clock_ties: 106,
            batched_layers: 140,
            batched_hops: 2591,
            improved: true,
        }
    );
    assert_eq!(counters, [14566, 11853, 7790, 2713]);
}

#[test]
fn congestion_router_on_l6_matches_recorded_flow_routes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = CompilerConfig::optimized().with_router(RouterPolicy::congestion());
    let circuit = random_circuit(60, 1438, 7);
    let (result, counters) =
        with_flow_counters(|| compile(&circuit, &MachineSpec::paper_l6(), &config).unwrap());
    assert_eq!(quality(&result), (2060, 2019, 4691032171966627840));
    assert_eq!(result.stats.rebalances, 88);
    assert_eq!(counters, [1931, 1931, 0, 0]);
}

#[test]
fn baseline_mcmf_evictions_on_l6_match_recorded_routes() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let config = CompilerConfig::baseline();
    let circuit = random_circuit(90, 1438, 7);
    let (result, counters) =
        with_flow_counters(|| compile(&circuit, &MachineSpec::paper_l6(), &config).unwrap());
    assert_eq!(quality(&result), (2777, 2777, 4691619723492720640));
    assert_eq!(result.stats.rebalances, 22);
    assert_eq!(counters, [22, 22, 0, 0]);
}
