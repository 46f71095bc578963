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
//! * [`min_cost_unit_path`] — the one-unit primitive every compiler caller
//!   uses: a single shortest-path search, one augmentation, and the node
//!   path read off the predecessor chain. The priced planner, its
//!   evictions, the baseline re-balancer and the batched layers together
//!   make about 128k of these solves per `grid_clock` benchmark pass.
//! * [`CommodityRouter`] — sequential multi-commodity routing over
//!   shared unit edge capacities: pairwise edge-disjoint paths (so a whole
//!   layer of moves can share transport rounds), with a per-commodity
//!   `None` fallback when the flows conflict. The router builds its
//!   node-split network once per graph and re-prices it in place for
//!   every batch; spent segments drop to capacity 0.
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

pub use adjacency::{Adjacency, BfsScratch};
pub use mcmf::{min_cost_max_flow, min_cost_unit_path, FlowEdge, FlowNetwork, FlowResult};
pub use multicommodity::{route_commodities, Commodity, CommodityRouter};
