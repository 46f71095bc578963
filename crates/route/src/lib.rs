//! Shuttle transport for QCCD machines: route planning and concurrent
//! transport scheduling.
//!
//! The compiler in `qccd-core` decides *which* ion must reach *which* trap;
//! this crate owns *how* it gets there and *when* each hop runs:
//!
//! * [`RouterPolicy`] — the route-selection policy. [`RouterPolicy::Serial`]
//!   reproduces the paper's executor (one ion at a time, hop-by-hop along
//!   the shortest path, detouring around full traps whenever any detour
//!   exists). [`RouterPolicy::Congestion`] routes each move as one unit of
//!   min-cost flow (`qccd-flow`'s `SplitSearch`): a full interior trap
//!   costs a fixed eviction penalty of 6 hops and recently-used shuttle
//!   segments cost a congestion surcharge, so the planner detours around
//!   full traps only while the detour is cheaper than a re-balancing
//!   eviction and spreads equal-length routes across cold edges.
//! * [`RoutePlanner`] / [`PlannedRoute`] — one compile's route planner:
//!   multi-segment routes and priced evictions for one ion over the live
//!   [`MachineState`](qccd_machine::MachineState), searched on one
//!   node-split graph built per compile whose edges are priced as the
//!   search relaxes them (`qccd-flow`'s `SplitSearch`), with the decaying
//!   per-segment usage counters that feed the congestion surcharge.
//! * [`TransportSchedule`] — a compiled flat
//!   [`Schedule`](qccd_machine::Schedule) re-expressed as *rounds* of
//!   edge-disjoint concurrent shuttles, with full replay validation
//!   against the machine's per-edge occupancy and junction rules. The
//!   round count is the schedule's *transport depth* — the
//!   timing-relevant shuttle metric once transport runs concurrently.
//!
//! # Example
//!
//! ```
//! use qccd_machine::{InitialMapping, MachineSpec, MachineState, TrapId};
//! use qccd_route::{RoutePlanner, RouterPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = MachineSpec::new(qccd_machine::TrapTopology::ring(6), 4, 1)?;
//! let mapping = InitialMapping::round_robin(&spec, 6)?;
//! let state = MachineState::with_mapping(&spec, &mapping)?;
//! let mut planner = RoutePlanner::new(spec.topology());
//! let route = planner
//!     .plan_route(RouterPolicy::default(), &state, TrapId(0), TrapId(3))
//!     .expect("ring is connected");
//! assert_eq!(route.path.first(), Some(&TrapId(0)));
//! assert_eq!(route.path.last(), Some(&TrapId(3)));
//! # Ok(())
//! # }
//! ```

mod backfill;
mod planner;
mod policy;
mod transport;

pub use backfill::{BackfillRules, CreditRule, Placement, RoundBackfill};
pub use planner::{route_budget, EdgeWeightFn, PlannedRoute, RoutePlanner};
pub use policy::RouterPolicy;
pub use transport::{FlatRounds, RoundList, TransportError, TransportRound, TransportSchedule};
