//! Graph substrate for the muzzle-shuttle QCCD compiler.
//!
//! The baseline compiler of Murali et al. (ISCA'20) resolves traffic blocks
//! with a minimum-cost maximum-flow computation over the trap topology; the
//! optimized compiler of the paper replaces the destination search with a
//! nearest-neighbour scan but still needs shortest paths. This crate
//! provides both primitives, self-contained:
//!
//! * [`Adjacency`] — a small undirected graph with BFS shortest paths, and
//!   the allocation-free first-hop query a hop-by-hop router needs
//!   ([`BfsScratch`]).
//! * [`FlowNetwork`] / [`min_cost_max_flow`] — successive-shortest-path
//!   min-cost max-flow with non-negative edge costs, on flat edge storage.
//! * [`min_cost_unit_path`] — one unit along a minimum-cost path: a
//!   single shortest-path search, one augmentation, and the node path read
//!   off the predecessor chain (the baseline re-balancer's MCMF eviction).
//! * [`SplitSearch`] — the same search specialised to the node-split trap
//!   graph that the route planner, its evictions and the batched layers
//!   route on (about 128k solves per `grid_clock` benchmark pass): it
//!   prices each edge from the caller's [`SplitCosts`] as it relaxes it
//!   and stops once the sink's label is final, with the same routes and
//!   tie-breaks as the full search.
//! * [`CommodityRouter`] — sequential multi-commodity routing over
//!   shared unit edge capacities: pairwise edge-disjoint paths (so a whole
//!   layer of moves can share transport rounds), with a per-commodity
//!   `None` fallback when the flows conflict. The router builds its
//!   segment table once per graph and routes each commodity with one
//!   [`SplitSearch`]; spent segments are closed.
//!   [`route_commodities`] is the one-shot form on a fresh router.
//!
//! # Example
//!
//! ```
//! use qccd_flow::Adjacency;
//!
//! let line = Adjacency::line(6);
//! assert_eq!(line.shortest_path(0, 5).unwrap(), vec![0, 1, 2, 3, 4, 5]);
//! assert_eq!(line.distance(4, 1), Some(3));
//! ```

mod adjacency;
mod mcmf;
mod multicommodity;
mod split;

pub use adjacency::{Adjacency, BfsScratch};
pub use mcmf::{min_cost_max_flow, min_cost_unit_path, FlowEdge, FlowNetwork, FlowResult};
pub use multicommodity::{route_commodities, Commodity, CommodityRouter};
pub use split::{SplitCosts, SplitSearch, SplitSink};
