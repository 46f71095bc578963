//! Device timing for QCCD machines: a per-operation duration model and an
//! ASAP event-timeline scheduler.
//!
//! The paper's evaluation counts shuttles, and PR 2's simulator charged
//! every transport round one uniform hop duration. Real QCCD transport
//! cost depends on *where* an ion moves: straight segments are cheap,
//! T-/X-junction corners and swaps are slow, split/merge quanta bracket
//! every hop, and reordering ions between a trap's gate/storage/loading
//! zones is itself a timed operation. This crate owns that model:
//!
//! * [`TimingModel`] — per-operation durations with two presets:
//!   [`ideal`](TimingModel::ideal) (uniform hops; the simulator's clock
//!   when no other model is given) and
//!   [`realistic`](TimingModel::realistic) (QCCDSim-style constants:
//!   linear-segment speed, junction corner cost, zone-move cost).
//! * [`lower`] — the ASAP scheduler: replays a compiled
//!   [`Schedule`](qccd_machine::Schedule) (optionally with its
//!   [`TransportSchedule`](qccd_route::TransportSchedule) rounds) and
//!   assigns every gate, transport round and synthesized zone move its
//!   earliest start under per-trap and per-edge resource constraints.
//! * [`LowerState`] — the same fold, resumable: checkpoint (clone) the
//!   state at a chunk boundary and re-lower only a perturbed suffix, so a
//!   transport optimizer scoring many candidate rewrites pays O(suffix)
//!   per candidate instead of a full O(n) `lower` each time. The fold
//!   streams: it hands every event to a caller-supplied sink as an
//!   [`EventRef`], so callers that only need the physics or the makespan
//!   never store events.
//! * [`replay`] — the same fold with every check of `Schedule::validate`,
//!   the strict transport validator and `lower` folded in: one walk over
//!   a finished program on one chain-free placement, for the compiler's
//!   and the simulator's own replays.
//! * [`DeltaScorer`] — the fold with O(delta) speculative scoring on top:
//!   a candidate shuttle walk is priced by touching only the clocks of the
//!   traps it visits and the one moved ion's availability, with a small
//!   undo log instead of a cloned state — bit-for-bit equal to the
//!   checkpoint-and-re-lower oracle (the `delta_properties` differential
//!   harness pins the equality).
//! * [`Timeline`] — the result: timed events with resource intervals and a
//!   [`validate`](Timeline::validate) pass proving no trap or shuttle-path
//!   segment is ever double-booked. Round members are stored flat, in two
//!   arrays shared by all rounds.
//!
//! `qccd-core` attaches a checked [`replay`]'s timeline to every compile
//! result; `qccd-sim` drives the same checked replay and runs its physics
//! on the streamed events.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::generators::qft;
//! use qccd_core::{compile, CompilerConfig};
//! use qccd_machine::MachineSpec;
//! use qccd_timing::{lower, TimingModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = qft(12);
//! let spec = MachineSpec::linear(2, 10, 2)?;
//! let compiled = compile(&circuit, &spec, &CompilerConfig::optimized())?;
//! let ideal = lower(
//!     &compiled.schedule,
//!     Some(&compiled.transport),
//!     &circuit,
//!     &spec,
//!     &TimingModel::ideal(),
//! )?;
//! let realistic = lower(
//!     &compiled.schedule,
//!     Some(&compiled.transport),
//!     &circuit,
//!     &spec,
//!     &TimingModel::realistic(),
//! )?;
//! ideal.validate()?;
//! realistic.validate()?;
//! assert!(realistic.makespan_us > ideal.makespan_us);
//! # Ok(())
//! # }
//! ```

mod delta;
mod explain;
#[cfg(test)]
mod lower_oracle;
mod model;
mod replay;
#[cfg(test)]
mod replay_checks;
mod scheduler;
mod timeline;

pub use delta::DeltaScorer;
pub use explain::{
    attribute_makespan, attribute_path, critical_path, edge_reports, trap_reports, Blame,
    CriticalPath, CriticalPathStep, EdgeReport, MakespanAttribution, TrapReport,
};
pub use model::TimingModel;
pub use replay::{replay, ReplayError, Rounds};
pub use scheduler::{lower, LowerError, LowerState};
pub use timeline::{EventRef, TimedMove, Timeline, TimelineError, TimelineEvent};
