//! QCCD trapped-ion machine model for the muzzle-shuttle compiler.
//!
//! This crate models the hardware substrate of the paper (§II-B):
//!
//! * [`TrapId`] / [`IonId`] — typed identifiers. One ion carries one logical
//!   qubit, so `IonId(i)` carries `Qubit(i)` throughout the workspace.
//! * [`TrapTopology`] — how traps are interconnected by shuttle paths
//!   (the paper's L6 is [`TrapTopology::linear`]`(6)`).
//! * [`MachineSpec`] — topology + per-trap *total capacity* and
//!   *communication capacity* (§II-B1).
//! * [`Placement`] — chain-free live placement (ion → trap, per-trap
//!   occupancy) and the machine's legality rules: the validated one-hop
//!   [`shuttle`](Placement::shuttle) and concurrent
//!   [`apply_round`](Placement::apply_round).
//! * [`MachineState`] — a placement plus the ordered ion chain per trap,
//!   for the compile loop and multi-zone gate-zone promotion.
//! * [`Operation`] / [`Schedule`] — the compiled program: gates pinned to
//!   traps interleaved with shuttle hops, plus a full replay validator.
//!
//! # Example
//!
//! ```
//! use qccd_machine::{InitialMapping, IonId, MachineSpec, MachineState, TrapId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fig. 1 of the paper: 2 traps, capacity 4, comm capacity 1.
//! let spec = MachineSpec::linear(2, 4, 1)?;
//! let mapping = InitialMapping::round_robin(&spec, 6)?;
//! let mut state = MachineState::with_mapping(&spec, &mapping)?;
//! assert_eq!(state.excess_capacity(TrapId(0)), 1);
//! state.shuttle(IonId(2), TrapId(1))?;
//! assert_eq!(state.trap_of(IonId(2)), TrapId(1));
//! # Ok(())
//! # }
//! ```

mod error;
mod ids;
mod mapping;
mod ops;
mod placement;
mod schedule;
mod spec;
mod state;
mod topology;
mod zones;

pub use error::MachineError;
pub use ids::{IonId, TrapId};
pub use mapping::InitialMapping;
pub use ops::{Operation, ShuttleMove};
pub use placement::Placement;
pub use schedule::{Schedule, ScheduleStats, ValidateScheduleError};
pub use spec::MachineSpec;
pub use state::MachineState;
pub use topology::TrapTopology;
pub use zones::{ZoneLayout, ZoneOccupancy};
