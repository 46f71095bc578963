//! # muzzle-shuttle
//!
//! Shuttle-efficient compilation for multi-trap trapped-ion (QCCD) quantum
//! computers — a reproduction of *Saki, Topaloglu, Ghosh, "Muzzle the
//! Shuttle: Efficient Compilation for Multi-Trap Trapped-Ion Quantum
//! Computers", DATE 2022* (arXiv:2111.07961).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`circuit`] — circuit IR, gate-dependency DAG, benchmark generators.
//! * [`machine`] — QCCD machine model: traps, topologies, shuttles, schedules.
//! * [`flow`] — graph substrate (shortest paths, one-unit min-cost flow
//!   searches, multi-commodity routing).
//! * [`route`] — shuttle transport: congestion-aware route planning and
//!   concurrent transport scheduling (rounds of edge-disjoint shuttles).
//! * [`timing`] — device timing: per-operation duration models (uniform
//!   `ideal` and QCCDSim-style `realistic`) and the ASAP event-timeline
//!   scheduler with per-trap/per-edge resource validation.
//! * [`compiler`] — the paper's contribution: the shuttle-aware compiler with
//!   baseline (Murali et al., ISCA'20) and optimized (this paper) policies.
//! * [`pack`] — the timeline-driven transport optimizer: cross-gate round
//!   packing and batched multi-commodity layer planning, rewriting a
//!   compile result into a provably-equivalent one with lower timed
//!   makespan.
//! * [`sim`] — fidelity/timing simulator replaying compiled schedules on
//!   their timed event timelines.
//! * [`obs`] — structured compile telemetry: hierarchical phase spans,
//!   process-wide hot-path counters, and Chrome-trace export. Disabled by
//!   default at zero cost; instrumentation observes, never decides.
//!
//! # Quickstart
//!
//! ```
//! use muzzle_shuttle::circuit::generators::qft;
//! use muzzle_shuttle::compiler::{compile, CompilerConfig};
//! use muzzle_shuttle::machine::MachineSpec;
//! use muzzle_shuttle::sim::{simulate, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = qft(16);
//! let machine = MachineSpec::linear(2, 17, 2)?; // 2 traps in a line
//! let baseline = compile(&circuit, &machine, &CompilerConfig::baseline())?;
//! let optimized = compile(&circuit, &machine, &CompilerConfig::optimized())?;
//! assert!(optimized.stats.shuttles <= baseline.stats.shuttles);
//!
//! let report = simulate(&optimized.schedule, &circuit, &machine, &SimParams::default())?;
//! assert!(report.program_fidelity > 0.0 && report.program_fidelity <= 1.0);
//!
//! # Ok(())
//! # }
//! ```

pub use qccd_circuit as circuit;
pub use qccd_core as compiler;
pub use qccd_flow as flow;
pub use qccd_machine as machine;
pub use qccd_obs as obs;
pub use qccd_pack as pack;
pub use qccd_route as route;
pub use qccd_sim as sim;
pub use qccd_timing as timing;

/// Convenience prelude importing the most common types.
pub mod prelude {
    pub use qccd_circuit::{Circuit, DependencyDag, Gate, GateId, Opcode, Qubit};
    pub use qccd_core::{compile, CompileResult, CompilerConfig, Objective, ScoreMode};
    pub use qccd_machine::{IonId, MachineSpec, MachineState, Schedule, TrapId, ZoneLayout};
    pub use qccd_pack::{compile_clock, compile_packed, pack, ClockStats, PackConfig, PackStats};
    pub use qccd_route::{RouterPolicy, TransportSchedule};
    pub use qccd_sim::{simulate, simulate_timed, SimParams, SimReport};
    pub use qccd_timing::{DeltaScorer, LowerState, Timeline, TimingModel};
}
