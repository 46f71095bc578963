//! Fidelity and timing simulator for compiled QCCD schedules.
//!
//! Replays a [`Schedule`](qccd_machine::Schedule) against the machine model
//! of the paper (§II-B), tracking:
//!
//! * **per-trap clocks** — gates inside a trap are serial, traps run in
//!   parallel (§II-B1); a shuttle occupies both endpoint traps;
//! * **per-chain motional mode `n̄`** — background heating accrues with
//!   trap-local time, and every shuttle's SPLIT/MOVE/MERGE steps deposit
//!   quanta into the source and destination chains (Fig. 3);
//! * **per-gate fidelity** — the analytical model of §II-B3,
//!   `F = 1 − Γτ − A(2n̄ + 1)` with `A ∝ m / log2(m)` for an `m`-ion chain.
//!
//! Program fidelity is the product of all gate fidelities, so reducing
//! shuttles (which curbs `n̄`) directly improves the reported number —
//! the mechanism behind Fig. 8 of the paper.
//!
//! The error-physics constants in [`SimParams`] and the durations in
//! [`TimingModel`] are calibrated-plausible trapped-ion figures
//! (documented per field); the paper inherits its exact values from
//! the QCCDSim code base and omits them "for brevity", so absolute
//! fidelities here are not comparable to the authors' — improvement
//! *ratios* between two compilations of the same circuit are.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::generators::qft;
//! use qccd_core::{compile, CompilerConfig};
//! use qccd_machine::MachineSpec;
//! use qccd_sim::{simulate, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = qft(12);
//! let spec = MachineSpec::linear(2, 10, 2)?;
//! let compiled = compile(&circuit, &spec, &CompilerConfig::optimized())?;
//! let report = simulate(&compiled.schedule, &circuit, &spec, &SimParams::default())?;
//! assert!(report.program_fidelity > 0.0 && report.program_fidelity <= 1.0);
//! # Ok(())
//! # }
//! ```

mod attribution;
mod error;
mod fidelity;
mod params;
#[cfg(test)]
mod replay_oracle;
mod report;
mod simulator;

pub use attribution::{
    attribute_fidelity, attribute_fidelity_timed, FidelityAttribution, HeatDeposit, HeatKind,
    HeatLedger, HeatPart, LossTerm, ShuttleBlame,
};
pub use error::SimError;
pub use fidelity::{chain_scaling_factor, one_qubit_gate_fidelity, two_qubit_gate_fidelity};
pub use params::SimParams;
pub use report::SimReport;
pub use simulator::{simulate, simulate_timed};

// The timing model is every replay's clock; re-export it so simulator
// users need not depend on `qccd-timing` directly.
pub use qccd_timing::{Timeline, TimingModel};
