//! Graph substrate for the muzzle-shuttle QCCD compiler.
//!
//! The baseline compiler of Murali et al. (ISCA'20) resolves traffic blocks
//! with a minimum-cost maximum-flow computation over the trap topology; the
//! optimized compiler of the paper replaces the destination search with a
//! nearest-neighbour scan but still needs shortest paths. This crate
//! provides the searches both need, self-contained:
//!
//! * [`Adjacency`] — a small undirected graph with BFS shortest paths, and
//!   the allocation-free first-hop query a hop-by-hop router needs
//!   ([`BfsScratch`]). Its
//!   [`shortest_path_in_insertion_order`](Adjacency::shortest_path_in_insertion_order)
//!   is the baseline re-balancer's unit-cost MCMF eviction, which with unit
//!   costs is exactly a BFS in neighbour order.
//! * [`SplitSearch`] — the FIFO min-cost search of one flow unit on the
//!   node-split trap graph that the route planner, its evictions and the
//!   batched layers route on (about 128k solves per `grid_clock` benchmark
//!   pass): it prices each edge from the caller's [`SplitCosts`] as it
//!   relaxes it and stops once the sink's label is final.
//! * [`CommodityRouter`] — sequential multi-commodity routing over
//!   shared unit edge capacities: pairwise edge-disjoint paths (so a whole
//!   layer of moves can share transport rounds), with a per-commodity
//!   `None` fallback when the flows conflict. The router builds its
//!   segment table once per graph and routes each commodity with one
//!   [`SplitSearch`]; spent segments are closed.
//!
//! A general successive-shortest-path min-cost max-flow solver lives in
//! the test build only, as the oracle all three searches are checked
//! against: the same routes, tie-breaks and costs.
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
#[cfg(test)]
mod mcmf;
mod multicommodity;
mod split;

pub use adjacency::{Adjacency, BfsScratch};
pub use multicommodity::{Commodity, CommodityRouter};
pub use split::{SplitCosts, SplitSearch, SplitSink};
