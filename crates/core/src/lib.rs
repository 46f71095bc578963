//! The muzzle-shuttle QCCD compiler — the paper's primary contribution.
//!
//! Compiles a logical quantum circuit onto a multi-trap trapped-ion machine,
//! inserting the shuttle operations needed to co-locate every two-qubit
//! gate's ions. Two complete policy stacks are provided:
//!
//! * **Baseline** ([`CompilerConfig::baseline`]) — the QCCD compiler of
//!   Murali et al. (ISCA'20) as characterised in the paper: excess-capacity
//!   shuttle direction (Listing 1), no gate re-ordering, trap-0-first
//!   re-balancing routed by min-cost max-flow, chain-end ion eviction.
//! * **Optimized** ([`CompilerConfig::optimized`]) — the paper's three
//!   heuristics: future-ops shuttle direction with gate-proximity cutoff
//!   (§III-A), opportunistic gate re-ordering (§III-B, Algorithm 1), and
//!   nearest-neighbour-first re-balancing with max-score ion selection
//!   (§III-C, Algorithm 2).
//!
//! Every compile is validated by replay before being returned, so a returned
//! [`CompileResult`] is guaranteed executable: gates in dependency order,
//! operands co-located, shuttles legal.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::generators::qft;
//! use qccd_core::{compile, CompilerConfig};
//! use qccd_machine::MachineSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = qft(16);
//! let machine = MachineSpec::linear(2, 10, 2)?;
//! let baseline = compile(&circuit, &machine, &CompilerConfig::baseline())?;
//! let optimized = compile(&circuit, &machine, &CompilerConfig::optimized())?;
//! assert!(optimized.stats.shuttles <= baseline.stats.shuttles);
//! # Ok(())
//! # }
//! ```

mod analysis;
mod batch;
mod config;
mod error;
mod frontier;
mod mapping;
mod objective;
mod policies;
mod rebalance;
mod remaining;
mod scheduler;
mod stats;

pub use analysis::ScheduleAnalysis;
pub use config::{
    CompilerConfig, DirectionPolicy, IonSelection, MappingPolicy, Objective, RebalancePolicy,
    ScoreMode,
};
pub use error::CompileError;
pub use mapping::initial_mapping;
pub use scheduler::{compile, compile_with_mapping, CompileResult};
pub use stats::CompileStats;

// Routing and timing types surface in the compiler's public API
// (`CompilerConfig`, `CompileResult`); re-export them so most users need
// only `qccd-core`.
pub use qccd_route::{RouterPolicy, TransportError, TransportRound, TransportSchedule};
pub use qccd_timing::{Timeline, TimelineEvent, TimingModel};
