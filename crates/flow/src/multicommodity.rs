//! Multi-commodity routing: one unit per commodity over shared edge
//! capacities.
//!
//! The congestion planner prices one move at a time; the batched layer
//! planners (the clock objective's in-loop batches and `qccd-pack`'s
//! layer pass) instead plan a whole *ready layer* of pending moves
//! together, so a wide QAOA layer's shuttles share transport rounds
//! deliberately. True minimum-cost multi-commodity flow is NP-hard in the
//! integral case; this module implements the standard sequential
//! relaxation on the MCMF substrate: commodities are routed one at a time
//! through a *shared* residual network whose undirected edges carry unit
//! capacity, so the routed paths are pairwise edge-disjoint — exactly the
//! property that lets their k-th hops share the k-th transport round.
//! When the shared network has no remaining path for a commodity (the
//! flows conflict), that commodity falls back to `None` and the caller
//! routes it alone.
//!
//! A [`CommodityRouter`] builds the node-split network once per graph and
//! re-prices it in place for every batch, the way the route planner in
//! `qccd-route` reuses its network: a compile that plans thousands of
//! batches builds one network, not one per batch.

use crate::adjacency::Adjacency;
use crate::mcmf::FlowNetwork;

/// Commodities handed to [`CommodityRouter::route`] across all calls.
static FLOW_COMMODITIES: qccd_obs::Counter = qccd_obs::Counter::new("flow.commodities_routed");
/// Commodities the shared network had no path left for (`None` entries
/// the caller must route alone).
static FLOW_COMMODITY_FALLBACKS: qccd_obs::Counter =
    qccd_obs::Counter::new("flow.commodity_fallbacks");

/// One unit of demand: route an ion from `source` to `sink`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commodity {
    /// Node the unit starts at.
    pub source: usize,
    /// Node the unit must reach.
    pub sink: usize,
}

/// Routes every commodity over `graph` on a fresh [`CommodityRouter`]:
/// see [`CommodityRouter::route`]. Callers that route many batches over
/// one graph keep a router instead.
///
/// # Panics
///
/// Panics if a commodity endpoint is out of range for `graph`.
pub fn route_commodities(
    graph: &Adjacency,
    commodities: &[Commodity],
    edge_cost: impl FnMut(usize, usize) -> i64,
) -> Vec<Option<Vec<usize>>> {
    CommodityRouter::new(graph).route(commodities, edge_cost)
}

/// The node-split unit-capacity network of one graph, built once and
/// re-priced in place by every [`route`](CommodityRouter::route) call.
///
/// Trap `a` is split into an in-half `2a` and an out-half `2a + 1` joined
/// by an internal edge of capacity 1, which keeps paths simple; each
/// directed segment `a → b` is an edge `2a + 1 → 2b`; node `2n` is a
/// super-source with a closed entry edge into every in-half. Edges are
/// inserted trap by trap (internal edge, then segments in neighbour
/// order), then all entries.
///
/// Every call resets each edge through [`FlowNetwork::set_edge`], which
/// also clears the previous call's flow. A closed (capacity-0) edge is
/// never relaxed, so each call searches exactly like a network freshly
/// built with the same edges in the same order: the same FIFO
/// shortest-path searches, the same tie-breaks, the same routes.
#[derive(Debug, Clone)]
pub struct CommodityRouter {
    net: FlowNetwork,
    /// Trap `a`'s internal edge `2a → 2a + 1`.
    internal: Vec<usize>,
    /// Trap `a`'s segments are `segments[first[a]..first[a + 1]]`, in
    /// `graph.neighbors(a)` order; `heads` holds each segment's head.
    first: Vec<usize>,
    segments: Vec<usize>,
    heads: Vec<usize>,
    /// Trap `a`'s closed entry `2n → 2a`.
    entries: Vec<usize>,
}

impl CommodityRouter {
    /// The network of `graph`, every edge closed until a call prices it.
    pub fn new(graph: &Adjacency) -> Self {
        let n = graph.len();
        let mut net = FlowNetwork::new(2 * n + 1);
        let mut internal = Vec::with_capacity(n);
        let mut first = Vec::with_capacity(n + 1);
        let mut segments = Vec::new();
        let mut heads = Vec::new();
        for a in 0..n {
            internal.push(net.add_edge(2 * a, 2 * a + 1, 0, 0));
            first.push(segments.len());
            for &b in graph.neighbors(a) {
                segments.push(net.add_edge(2 * a + 1, 2 * b, 0, 0));
                heads.push(b);
            }
        }
        first.push(segments.len());
        let entries = (0..n).map(|a| net.add_edge(2 * n, 2 * a, 0, 0)).collect();
        CommodityRouter {
            net,
            internal,
            first,
            segments,
            heads,
            entries,
        }
    }

    /// Routes every commodity with pairwise *edge-disjoint* paths,
    /// sequentially through the shared unit-capacity network.
    ///
    /// Each undirected edge of the graph may carry at most one commodity
    /// in total (either direction), and each returned path is simple.
    /// Commodities are processed in the given order; each is routed as one
    /// unit of min-cost flow ([`min_cost_unit_path`](crate::min_cost_unit_path))
    /// over the remaining capacities with `edge_cost(a, b)` pricing the hop
    /// `a → b` (costs must be non-negative). The entry for a commodity is
    /// `None` when the shared network has no path left for it — the flows
    /// conflict — and the caller decides the fallback (typically routing
    /// it alone on the raw topology).
    ///
    /// A zero-length commodity (`source == sink`) routes to the trivial
    /// one-node path and consumes no capacity.
    ///
    /// `edge_cost` is called exactly once per directed segment of the
    /// graph, before any commodity is routed, so it must be pure — a cost
    /// may not depend on earlier routing. Segments a routed commodity
    /// spends drop to capacity 0, and each entry edge is opened only while
    /// its node's commodity is being routed.
    ///
    /// # Panics
    ///
    /// Panics if a commodity endpoint is out of range for the graph.
    pub fn route(
        &mut self,
        commodities: &[Commodity],
        mut edge_cost: impl FnMut(usize, usize) -> i64,
    ) -> Vec<Option<Vec<usize>>> {
        let _phase = qccd_obs::span("flow");
        let n = self.internal.len();
        let source = 2 * n;
        for a in 0..n {
            self.net.set_edge(self.internal[a], 1, 0);
            for k in self.first[a]..self.first[a + 1] {
                let cost = edge_cost(a, self.heads[k]);
                self.net.set_edge(self.segments[k], 1, cost);
            }
            self.net.set_edge(self.entries[a], 0, 0);
        }
        commodities
            .iter()
            .map(|c| {
                assert!(
                    c.source < n && c.sink < n,
                    "commodity endpoint out of range"
                );
                FLOW_COMMODITIES.incr();
                if c.source == c.sink {
                    return Some(vec![c.source]);
                }
                self.net.reset_edge(self.entries[c.source], 1);
                // The out-halves the unit passes spell the trap path.
                let path: Option<Vec<usize>> =
                    self.net.unit_path(source, 2 * c.sink + 1).map(|nodes| {
                        nodes
                            .iter()
                            .filter(|&&v| v % 2 == 1 && v < source)
                            .map(|&v| v / 2)
                            .collect()
                    });
                self.net.reset_edge(self.entries[c.source], 0);
                let Some(path) = path else {
                    FLOW_COMMODITY_FALLBACKS.incr();
                    return None;
                };
                // Re-open the traps the unit crossed; spend its segments in
                // both directions.
                for &a in &path {
                    self.net.reset_edge(self.internal[a], 1);
                }
                for w in path.windows(2) {
                    for (a, b) in [(w[0], w[1]), (w[1], w[0])] {
                        let id = self.segment(a, b);
                        self.net.reset_edge(id, 0);
                    }
                }
                Some(path)
            })
            .collect()
    }

    /// Edge id of the directed segment `a → b`.
    fn segment(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = (self.first[a], self.first[a + 1]);
        let k = self.heads[lo..hi].iter().position(|&x| x == b);
        self.segments[lo + k.expect("routed hops follow graph edges")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(source: usize, sink: usize) -> Commodity {
        Commodity { source, sink }
    }

    #[test]
    fn disjoint_demands_route_simultaneously() {
        // Line of 6: 0→2 and 3→5 never touch the same segment.
        let g = Adjacency::line(6);
        let routes = route_commodities(&g, &[c(0, 2), c(3, 5)], |_, _| 1);
        assert_eq!(routes[0], Some(vec![0, 1, 2]));
        assert_eq!(routes[1], Some(vec![3, 4, 5]));
    }

    #[test]
    fn conflicting_demands_take_disjoint_detours() {
        // Ring of 6: 0→3 has two 3-hop routes; two commodities with the
        // same endpoints must split across them.
        let g = Adjacency::ring(6);
        let routes = route_commodities(&g, &[c(0, 3), c(0, 3)], |_, _| 1);
        let a = routes[0].as_ref().unwrap();
        let b = routes[1].as_ref().unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_ne!(a[1], b[1], "the two units must take opposite arcs");
    }

    #[test]
    fn overconstrained_commodity_falls_back_to_none() {
        // Line of 3: both commodities need segment 1—2; the second must
        // report a conflict rather than share the edge.
        let g = Adjacency::line(3);
        let routes = route_commodities(&g, &[c(0, 2), c(1, 2)], |_, _| 1);
        assert_eq!(routes[0], Some(vec![0, 1, 2]));
        assert_eq!(routes[1], None);
    }

    #[test]
    fn zero_length_commodity_is_trivial_and_free() {
        let g = Adjacency::line(3);
        let routes = route_commodities(&g, &[c(1, 1), c(0, 2)], |_, _| 1);
        assert_eq!(routes[0], Some(vec![1]));
        assert_eq!(routes[1], Some(vec![0, 1, 2]), "no capacity was consumed");
    }

    #[test]
    fn edge_costs_steer_route_choice() {
        // Ring of 4: 0→2 via 1 or via 3; price the clockwise arc hot.
        let g = Adjacency::ring(4);
        let hot = |a: usize, b: usize| {
            if (a, b) == (0, 1) || (a, b) == (1, 0) {
                100
            } else {
                1
            }
        };
        let routes = route_commodities(&g, &[c(0, 2)], hot);
        assert_eq!(routes[0], Some(vec![0, 3, 2]));
    }

    #[test]
    fn routed_paths_are_pairwise_edge_disjoint() {
        let g = Adjacency::grid(3, 3);
        let demands = [c(0, 8), c(2, 6), c(1, 7)];
        let routes = route_commodities(&g, &demands, |_, _| 1);
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for route in routes.iter().flatten() {
            for w in route.windows(2) {
                let k = if w[0] <= w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                };
                assert!(!seen.contains(&k), "segment {k:?} used twice");
                seen.push(k);
            }
        }
    }

    #[test]
    fn edge_cost_is_called_once_per_directed_segment() {
        for g in [
            Adjacency::line(5),
            Adjacency::ring(6),
            Adjacency::grid(3, 4),
        ] {
            let mut calls: Vec<(usize, usize)> = Vec::new();
            let demands = [c(0, 4), c(0, 4), c(2, 2), c(4, 0), c(1, 3)];
            route_commodities(&g, &demands, |a, b| {
                calls.push((a, b));
                1
            });
            let mut expected: Vec<(usize, usize)> = (0..g.len())
                .flat_map(|a| g.neighbors(a).iter().map(move |&b| (a, b)))
                .collect();
            calls.sort_unstable();
            expected.sort_unstable();
            assert_eq!(calls, expected);
        }
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::mcmf::{min_cost_max_flow, FlowNetwork};
    use proptest::prelude::*;

    /// The per-commodity rebuild [`route_commodities`] replaced, kept as
    /// its oracle: a fresh split network for every commodity with spent
    /// segments left out, a full [`min_cost_max_flow`] solve, and a walk of
    /// the flow assignment.
    fn reference_route_commodities(
        graph: &Adjacency,
        commodities: &[Commodity],
        edge_cost: impl Fn(usize, usize) -> i64,
    ) -> Vec<Option<Vec<usize>>> {
        let n = graph.len();
        let mut used: Vec<(usize, usize)> = Vec::new();
        let key = |a: usize, b: usize| if a <= b { (a, b) } else { (b, a) };
        commodities
            .iter()
            .map(|c| {
                if c.source == c.sink {
                    return Some(vec![c.source]);
                }
                let source = 2 * n;
                let mut net = FlowNetwork::new(2 * n + 1);
                for a in 0..n {
                    net.add_edge(2 * a, 2 * a + 1, 1, 0);
                    for &b in graph.neighbors(a) {
                        if !used.contains(&key(a, b)) {
                            net.add_edge(2 * a + 1, 2 * b, 1, edge_cost(a, b));
                        }
                    }
                }
                net.add_edge(source, 2 * c.source, 1, 0);
                if min_cost_max_flow(&mut net, source, 2 * c.sink + 1).flow != 1 {
                    return None;
                }
                let flows = net.forward_flows();
                let mut path = vec![c.source];
                let mut cur = c.source;
                while cur != c.sink {
                    let next = flows
                        .iter()
                        .find_map(|&(s, t, f)| {
                            (f > 0 && s == 2 * cur + 1 && t % 2 == 0).then_some(t / 2)
                        })
                        .expect("flow conservation");
                    path.push(next);
                    cur = next;
                }
                for w in path.windows(2) {
                    used.push(key(w[0], w[1]));
                }
                Some(path)
            })
            .collect()
    }

    fn graph(kind: usize, size: usize) -> Adjacency {
        match kind % 3 {
            0 => Adjacency::line(size),
            1 => Adjacency::ring(size.max(3)),
            _ => Adjacency::grid(2 + size % 3, 2 + size / 3 % 3),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The build-once router matches the per-commodity rebuild on
        /// line, ring and grid graphs: conflicts, `None` fallbacks and
        /// zero-length commodities included, under tied asymmetric costs.
        #[test]
        fn build_once_routing_matches_per_commodity_rebuild(
            kind in 0usize..3,
            size in 2usize..=9,
            demands in proptest::collection::vec((0usize..16, 0usize..16), 0..10),
            costs in proptest::collection::vec(1i64..=3, 1..20),
        ) {
            let g = graph(kind, size);
            let n = g.len();
            let commodities: Vec<Commodity> = demands
                .iter()
                .map(|&(a, b)| Commodity { source: a % n, sink: b % n })
                .collect();
            let cost = |a: usize, b: usize| costs[(a * 7 + b * 3) % costs.len()];
            let got = route_commodities(&g, &commodities, cost);
            let want = reference_route_commodities(&g, &commodities, cost);
            prop_assert_eq!(got, want);
        }
    }
}
