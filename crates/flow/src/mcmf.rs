//! Minimum-cost flow via successive shortest paths, plus the one-unit
//! path primitive every compiler caller uses.
//!
//! The baseline QCCD compiler (Murali et al., ISCA'20) formulates trap
//! re-balancing as an MCMF problem: full traps are sources, traps with
//! excess capacity are sinks, and shuttle-path segments carry unit costs.
//! This module implements the classic successive-shortest-path algorithm
//! with SPFA path selection (a FIFO-queue Bellman–Ford; costs here are
//! non-negative and networks have a few dozen nodes).
//!
//! Every compiler caller sends exactly one unit — one ion — per solve, so
//! [`min_cost_unit_path`] runs a single SPFA, applies that augmentation and
//! returns the node path straight from the predecessor chain. The traffic
//! is not small: one `grid_clock` benchmark pass (three 8000-gate circuits
//! on a 4×4 grid through the clock pipeline) makes about 128k one-unit
//! solves, so the network is flat — one edge vector with each forward edge
//! `id` paired with its residual reverse `id ^ 1`, and per-node edge lists
//! threaded through it in insertion order — and it owns its SPFA scratch
//! and path buffer, so a solve on a network built once allocates nothing
//! but the returned path.

use std::collections::VecDeque;

/// MCMF solves started (one per [`min_cost_max_flow`] or
/// [`min_cost_unit_path`] call).
static FLOW_SOLVES: qccd_obs::Counter = qccd_obs::Counter::new("flow.solves");
/// Augmenting paths found and applied across all solves.
static FLOW_AUGMENTING_PATHS: qccd_obs::Counter = qccd_obs::Counter::new("flow.augmenting_paths");

/// End-of-list / no-predecessor marker for edge ids.
const NONE: usize = usize::MAX;

/// One directed edge in a [`FlowNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEdge {
    /// Edge head (target node).
    pub to: usize,
    /// Remaining capacity.
    pub capacity: i64,
    /// Cost per unit of flow (negated on residual reverses).
    pub cost: i64,
    /// Next edge id in the tail node's list, or [`NONE`].
    next: usize,
}

/// A directed flow network on nodes `0..n`.
///
/// Edges live in one vector: [`add_edge`](FlowNetwork::add_edge) pushes the
/// forward edge at an even id and its residual reverse at `id ^ 1`. Each
/// node's outgoing edges (forward and residual) are linked in insertion
/// order, which is the order the shortest-path search relaxes them in.
///
/// # Example
///
/// ```
/// use qccd_flow::{FlowNetwork, min_cost_max_flow};
///
/// let mut net = FlowNetwork::new(4);
/// net.add_edge(0, 1, 2, 1);
/// net.add_edge(0, 2, 1, 2);
/// net.add_edge(1, 3, 2, 1);
/// net.add_edge(2, 3, 1, 2);
/// let result = min_cost_max_flow(&mut net, 0, 3);
/// assert_eq!(result.flow, 3);
/// assert_eq!(result.cost, 2 * 2 + 1 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    edges: Vec<FlowEdge>,
    /// First and last edge id of each node's list.
    head: Vec<usize>,
    tail: Vec<usize>,
    /// Shortest-path scratch, kept across solves.
    spfa: Spfa,
    /// The last unit path, kept across solves.
    path: Vec<usize>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            edges: Vec::new(),
            head: vec![NONE; n],
            tail: vec![NONE; n],
            spfa: Spfa::new(n),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.head.len()
    }

    /// Returns `true` if the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Adds a directed edge `from → to` with the given capacity and cost,
    /// returning its id (for [`reset_edge`](FlowNetwork::reset_edge)).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, `capacity < 0`, or `cost < 0`.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: i64, cost: i64) -> usize {
        assert!(
            from < self.len() && to < self.len(),
            "endpoint out of range"
        );
        assert!(capacity >= 0, "capacity must be non-negative");
        assert!(cost >= 0, "cost must be non-negative");
        let id = self.edges.len();
        self.push(from, to, capacity, cost);
        self.push(to, from, 0, -cost);
        id
    }

    fn push(&mut self, from: usize, to: usize, capacity: i64, cost: i64) {
        let id = self.edges.len();
        self.edges.push(FlowEdge {
            to,
            capacity,
            cost,
            next: NONE,
        });
        match self.tail[from] {
            NONE => self.head[from] = id,
            last => self.edges[last].next = id,
        }
        self.tail[from] = id;
    }

    /// Clears any flow on edge `id` (as returned by
    /// [`add_edge`](FlowNetwork::add_edge)) and sets its capacity, so one
    /// network can be re-solved with edges opened, closed or spent.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an edge id or `capacity < 0`.
    pub fn reset_edge(&mut self, id: usize, capacity: i64) {
        assert!(
            id.is_multiple_of(2) && id < self.edges.len(),
            "not an edge id"
        );
        self.set_edge(id, capacity, self.edges[id].cost);
    }

    /// Clears any flow on edge `id` and sets both its capacity and its
    /// cost, so a network built once can be re-priced and re-solved in
    /// place. Node lists are untouched: the edge keeps its position in
    /// the relaxation order, and a capacity-0 edge is never relaxed, so a
    /// re-priced network searches exactly like a fresh one built with the
    /// same edges in the same order (closed edges left out).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an edge id, `capacity < 0`, or `cost < 0`.
    pub fn set_edge(&mut self, id: usize, capacity: i64, cost: i64) {
        assert!(
            id.is_multiple_of(2) && id < self.edges.len(),
            "not an edge id"
        );
        assert!(capacity >= 0, "capacity must be non-negative");
        assert!(cost >= 0, "cost must be non-negative");
        self.edges[id].capacity = capacity;
        self.edges[id].cost = cost;
        self.edges[id ^ 1].capacity = 0;
        self.edges[id ^ 1].cost = -cost;
    }

    /// Edge ids leaving `node`, residual reverses included, in insertion
    /// order.
    fn out_edges(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let live = |e: usize| (e != NONE).then_some(e);
        std::iter::successors(live(self.head[node]), move |&e| live(self.edges[e].next))
    }

    /// Flow currently assigned along each *forward* edge, as
    /// `(from, to, flow)` triples in insertion order.
    pub fn forward_flows(&self) -> Vec<(usize, usize, i64)> {
        let mut out = Vec::new();
        for from in 0..self.len() {
            for id in self.out_edges(from).filter(|id| id.is_multiple_of(2)) {
                // Flow pushed = capacity of the residual reverse edge.
                out.push((from, self.edges[id].to, self.edges[id ^ 1].capacity));
            }
        }
        out
    }
}

/// The result of a min-cost max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowResult {
    /// Total flow pushed from source to sink.
    pub flow: i64,
    /// Total cost of that flow.
    pub cost: i64,
}

/// Shortest-path scratch: allocated with the network, reused by every
/// augmentation of every solve.
#[derive(Debug, Clone)]
struct Spfa {
    dist: Vec<i64>,
    /// Id of the edge each node was last relaxed through, or [`NONE`].
    prev: Vec<usize>,
    in_queue: Vec<bool>,
    queue: VecDeque<usize>,
}

impl Spfa {
    fn new(n: usize) -> Self {
        Spfa {
            dist: vec![i64::MAX; n],
            prev: vec![NONE; n],
            in_queue: vec![false; n],
            queue: VecDeque::with_capacity(n),
        }
    }

    /// FIFO SPFA over the residual graph from `source`, run to completion
    /// (no early exit at any sink); a node's distance and predecessor only
    /// change on a strictly shorter path, so ties keep the first-found
    /// edge in relaxation order.
    fn run(&mut self, net: &FlowNetwork, source: usize) {
        self.dist.fill(i64::MAX);
        self.prev.fill(NONE);
        self.dist[source] = 0;
        self.queue.push_back(source);
        self.in_queue[source] = true;
        while let Some(u) = self.queue.pop_front() {
            self.in_queue[u] = false;
            let du = self.dist[u];
            let mut id = net.head[u];
            while id != NONE {
                let e = &net.edges[id];
                if e.capacity > 0 && du + e.cost < self.dist[e.to] {
                    self.dist[e.to] = du + e.cost;
                    self.prev[e.to] = id;
                    if !self.in_queue[e.to] {
                        self.queue.push_back(e.to);
                        self.in_queue[e.to] = true;
                    }
                }
                id = e.next;
            }
        }
    }

    /// Pushes `amount` units along the shortest path to `sink`, calling
    /// `visit` with each node the path passes, sink end first (the sink
    /// itself excluded).
    fn augment(
        &self,
        net: &mut FlowNetwork,
        sink: usize,
        amount: i64,
        mut visit: impl FnMut(usize),
    ) {
        let mut v = sink;
        while self.prev[v] != NONE {
            let e = self.prev[v];
            net.edges[e].capacity -= amount;
            net.edges[e ^ 1].capacity += amount;
            v = net.edges[e ^ 1].to;
            visit(v);
        }
    }

    /// Smallest residual capacity on the shortest path to `sink`.
    fn bottleneck(&self, net: &FlowNetwork, sink: usize) -> i64 {
        let mut min = i64::MAX;
        let mut v = sink;
        while self.prev[v] != NONE {
            let e = self.prev[v];
            min = min.min(net.edges[e].capacity);
            v = net.edges[e ^ 1].to;
        }
        min
    }
}

/// Computes minimum-cost maximum flow from `source` to `sink`, mutating the
/// network's residual capacities in place.
///
/// Runs successive shortest augmenting paths, one SPFA per path. Compiler
/// callers that route a single unit use [`min_cost_unit_path`] instead;
/// this is the general solver (and its test oracle).
///
/// # Panics
///
/// Panics if `source` or `sink` is out of range, or `source == sink`.
pub fn min_cost_max_flow(net: &mut FlowNetwork, source: usize, sink: usize) -> FlowResult {
    assert!(source < net.len() && sink < net.len(), "node out of range");
    assert_ne!(source, sink, "source and sink must differ");
    FLOW_SOLVES.incr();
    let mut spfa = std::mem::replace(&mut net.spfa, Spfa::new(0));
    let mut total_flow = 0i64;
    let mut total_cost = 0i64;
    loop {
        spfa.run(net, source);
        if spfa.dist[sink] == i64::MAX {
            break; // no augmenting path remains
        }
        FLOW_AUGMENTING_PATHS.incr();
        let bottleneck = spfa.bottleneck(net, sink);
        spfa.augment(net, sink, bottleneck, |_| {});
        total_flow += bottleneck;
        total_cost += bottleneck * spfa.dist[sink];
    }
    net.spfa = spfa;
    FlowResult {
        flow: total_flow,
        cost: total_cost,
    }
}

/// Sends one unit of flow from `source` to `sink` along a minimum-cost
/// path and returns that path as nodes `source ..= sink`, or `None` when
/// `sink` is unreachable in the residual network (nothing changes then).
///
/// This is the first augmentation of [`min_cost_max_flow`] on the same
/// network — same search, same tie-breaking — capped at one unit, without
/// the follow-up search a one-unit demand cannot use, and with the path
/// read off the predecessor chain instead of the flow assignment.
///
/// # Example
///
/// ```
/// use qccd_flow::{FlowNetwork, min_cost_unit_path};
///
/// let mut net = FlowNetwork::new(4);
/// net.add_edge(0, 1, 1, 5);
/// net.add_edge(0, 2, 1, 1);
/// net.add_edge(1, 3, 1, 1);
/// net.add_edge(2, 3, 1, 1);
/// assert_eq!(min_cost_unit_path(&mut net, 0, 3), Some(vec![0, 2, 3]));
/// assert_eq!(min_cost_unit_path(&mut net, 0, 3), Some(vec![0, 1, 3]));
/// assert_eq!(min_cost_unit_path(&mut net, 0, 3), None);
/// ```
///
/// # Panics
///
/// Panics if `source` or `sink` is out of range, or `source == sink`.
pub fn min_cost_unit_path(net: &mut FlowNetwork, source: usize, sink: usize) -> Option<Vec<usize>> {
    assert!(source < net.len() && sink < net.len(), "node out of range");
    assert_ne!(source, sink, "source and sink must differ");
    net.unit_path(source, sink).map(<[usize]>::to_vec)
}

impl FlowNetwork {
    /// [`min_cost_unit_path`] into the network's own path buffer: the
    /// returned slice lives until the next solve.
    pub(crate) fn unit_path(&mut self, source: usize, sink: usize) -> Option<&[usize]> {
        FLOW_SOLVES.incr();
        let mut spfa = std::mem::replace(&mut self.spfa, Spfa::new(0));
        spfa.run(self, source);
        let found = spfa.dist[sink] != i64::MAX;
        if found {
            FLOW_AUGMENTING_PATHS.incr();
            let mut path = std::mem::take(&mut self.path);
            path.clear();
            path.push(sink);
            spfa.augment(self, sink, 1, |v| path.push(v));
            path.reverse();
            self.path = path;
        }
        self.spfa = spfa;
        found.then_some(&self.path[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 5, 3);
        let r = min_cost_max_flow(&mut net, 0, 1);
        assert_eq!(r, FlowResult { flow: 5, cost: 15 });
    }

    #[test]
    fn prefers_cheaper_path() {
        // Two parallel 0→1 routes; cheap one saturates first.
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1, 10); // expensive direct
        net.add_edge(0, 2, 1, 1);
        net.add_edge(2, 3, 1, 1);
        net.add_edge(3, 1, 1, 1); // cheap detour, total cost 3
        let r = min_cost_max_flow(&mut net, 0, 1);
        assert_eq!(r.flow, 2);
        assert_eq!(r.cost, 3 + 10);
    }

    #[test]
    fn disconnected_graph_zero_flow() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 4, 1);
        let r = min_cost_max_flow(&mut net, 0, 2);
        assert_eq!(r, FlowResult { flow: 0, cost: 0 });
    }

    #[test]
    fn respects_bottleneck() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10, 1);
        net.add_edge(1, 2, 3, 1);
        let r = min_cost_max_flow(&mut net, 0, 2);
        assert_eq!(r.flow, 3);
        assert_eq!(r.cost, 6);
    }

    #[test]
    fn forward_flows_report_assignment() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2, 1);
        net.add_edge(1, 2, 2, 1);
        min_cost_max_flow(&mut net, 0, 2);
        let flows = net.forward_flows();
        assert_eq!(flows, vec![(0, 1, 2), (1, 2, 2)]);
    }

    #[test]
    fn rebalance_shaped_instance_picks_nearest_sink() {
        // Line of 6 traps; trap 4 is full (source); traps 0, 3, 5 have
        // spare capacity. Unit cost per hop. MCMF should route to 3 or 5
        // (cost 1), never to 0 (cost 4).
        let n = 6;
        let src = n; // super-source
        let sink = n + 1; // super-sink
        let mut net = FlowNetwork::new(n + 2);
        for i in 0..n - 1 {
            net.add_edge(i, i + 1, 10, 1);
            net.add_edge(i + 1, i, 10, 1);
        }
        net.add_edge(src, 4, 1, 0); // one ion must leave trap 4
        for free in [0, 3, 5] {
            net.add_edge(free, sink, 1, 0);
        }
        let r = min_cost_max_flow(&mut net, src, sink);
        assert_eq!(r.flow, 1);
        assert_eq!(r.cost, 1, "flow should use a 1-hop route to trap 3 or 5");
    }

    #[test]
    fn flow_conservation_holds() {
        let mut net = FlowNetwork::new(5);
        net.add_edge(0, 1, 3, 2);
        net.add_edge(0, 2, 2, 4);
        net.add_edge(1, 3, 2, 1);
        net.add_edge(2, 3, 2, 1);
        net.add_edge(1, 2, 1, 1);
        net.add_edge(3, 4, 4, 1);
        let r = min_cost_max_flow(&mut net, 0, 4);
        // Conservation: for every interior node, inflow == outflow.
        let flows = net.forward_flows();
        for node in 1..4 {
            let inflow: i64 = flows
                .iter()
                .filter(|(_, t, _)| *t == node)
                .map(|(_, _, f)| f)
                .sum();
            let outflow: i64 = flows
                .iter()
                .filter(|(s, _, _)| *s == node)
                .map(|(_, _, f)| f)
                .sum();
            assert_eq!(inflow, outflow, "node {node}");
        }
        assert!(r.flow >= 3, "expected near-max flow, got {}", r.flow);
    }

    #[test]
    fn unit_path_follows_cheapest_route_then_residual() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 1, 1);
        net.add_edge(1, 3, 1, 1);
        net.add_edge(0, 2, 1, 1);
        net.add_edge(2, 3, 1, 1);
        // Equal costs: the first-inserted route wins the tie.
        assert_eq!(min_cost_unit_path(&mut net, 0, 3), Some(vec![0, 1, 3]));
        assert_eq!(net.forward_flows()[0], (0, 1, 1));
        assert_eq!(min_cost_unit_path(&mut net, 0, 3), Some(vec![0, 2, 3]));
        assert_eq!(min_cost_unit_path(&mut net, 0, 3), None);
    }

    #[test]
    fn reset_edge_clears_flow_and_reopens() {
        let mut net = FlowNetwork::new(2);
        let id = net.add_edge(0, 1, 1, 4);
        assert_eq!(min_cost_unit_path(&mut net, 0, 1), Some(vec![0, 1]));
        assert_eq!(min_cost_unit_path(&mut net, 0, 1), None);
        net.reset_edge(id, 1);
        assert_eq!(net.forward_flows(), vec![(0, 1, 0)]);
        assert_eq!(min_cost_unit_path(&mut net, 0, 1), Some(vec![0, 1]));
        net.reset_edge(id, 0);
        assert_eq!(min_cost_unit_path(&mut net, 0, 1), None);
    }

    #[test]
    fn set_edge_reprices_in_place() {
        let mut net = FlowNetwork::new(3);
        let direct = net.add_edge(0, 2, 1, 1);
        net.add_edge(0, 1, 1, 1);
        net.add_edge(1, 2, 1, 1);
        assert_eq!(min_cost_unit_path(&mut net, 0, 2), Some(vec![0, 2]));
        // Re-opened but now dearer than the two-hop detour.
        net.set_edge(direct, 1, 5);
        assert_eq!(net.forward_flows()[0], (0, 2, 0));
        assert_eq!(min_cost_unit_path(&mut net, 0, 2), Some(vec![0, 1, 2]));
        net.set_edge(direct, 0, 0);
        assert_eq!(min_cost_unit_path(&mut net, 0, 2), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn rejects_negative_capacity() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, -1, 0);
    }

    #[test]
    #[should_panic(expected = "cost must be non-negative")]
    fn rejects_negative_cost() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 1, -2);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::adjacency::Adjacency;
    use proptest::prelude::*;

    /// The path extraction the compiler used before [`min_cost_unit_path`]:
    /// a full [`min_cost_max_flow`] solve, then a walk of the flow
    /// assignment from `source`, one [`FlowNetwork::forward_flows`] scan per
    /// hop. Only meaningful when at most one unit can flow.
    fn oracle_unit_path(net: &mut FlowNetwork, source: usize, sink: usize) -> Option<Vec<usize>> {
        if min_cost_max_flow(net, source, sink).flow != 1 {
            return None;
        }
        let flows = net.forward_flows();
        let mut path = vec![source];
        while *path.last().unwrap() != sink {
            let cur = *path.last().unwrap();
            let next = flows
                .iter()
                .find_map(|&(s, t, f)| (f > 0 && s == cur).then_some(t))
                .expect("flow conservation");
            path.push(next);
            assert!(path.len() <= net.len(), "flow walk cycled");
        }
        Some(path)
    }

    /// A node-split network shaped like the compiler's priced planner:
    /// in/out halves per node (internal cost `penalty[a]`), segment costs
    /// from a tiny range so equal-cost routes are everywhere, and a
    /// one-unit super-source at node `2n` into `src`'s in-half.
    fn split_network(
        n: usize,
        edges: &[(usize, usize)],
        costs: &[i64],
        penalty: &[i64],
        src: usize,
    ) -> FlowNetwork {
        let mut adj = Adjacency::new(n);
        for &(a, b) in edges {
            if a % n != b % n {
                adj.add_edge(a % n, b % n);
            }
        }
        let mut net = FlowNetwork::new(2 * n + 1);
        let mut k = 0;
        for a in 0..n {
            net.add_edge(2 * a, 2 * a + 1, 1, penalty[a % penalty.len()]);
            for &b in adj.neighbors(a) {
                net.add_edge(2 * a + 1, 2 * b, 1, costs[k % costs.len()]);
                k += 1;
            }
        }
        net.add_edge(2 * n, 2 * src, 1, 0);
        net
    }

    proptest! {
        /// On split networks with tied costs, the primitive returns the
        /// oracle's path and leaves the identical residual network.
        #[test]
        fn unit_path_matches_mcmf_walk_on_tied_split_graphs(
            n in 2usize..=8,
            edges in proptest::collection::vec((0usize..8, 0usize..8), 1..20),
            costs in proptest::collection::vec(1i64..=2, 1..12),
            penalty in proptest::collection::vec(0i64..=1, 1..8),
            endpoints in (0usize..8, 0usize..8),
        ) {
            let (src, dst) = (endpoints.0 % n, endpoints.1 % n);
            let mut fast = split_network(n, &edges, &costs, &penalty, src);
            let mut oracle = fast.clone();
            let sink = 2 * dst + 1;
            let got = min_cost_unit_path(&mut fast, 2 * n, sink);
            let want = oracle_unit_path(&mut oracle, 2 * n, sink);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(fast.forward_flows(), oracle.forward_flows());
        }

        /// Plain (unsplit) graphs with mixed capacities and zero-cost
        /// edges, as the baseline re-balancer builds: same path, same
        /// residual state, and the path costs what the full solve charged.
        #[test]
        fn unit_path_matches_mcmf_walk_on_plain_graphs(
            n in 2usize..=8,
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1i64..=3, 0i64..=2), 1..24),
            endpoints in (0usize..8, 0usize..8),
        ) {
            let (src, dst) = (endpoints.0 % n, endpoints.1 % n);
            prop_assume!(src != dst);
            let mut fast = FlowNetwork::new(n + 1);
            for &(a, b, cap, cost) in &edges {
                if a % n != b % n {
                    fast.add_edge(a % n, b % n, cap, cost);
                }
            }
            fast.add_edge(n, src, 1, 0);
            let mut oracle = fast.clone();
            let cost_of = |net: &FlowNetwork| -> i64 {
                net.forward_flows().iter().zip(edges.iter().filter(|e| e.0 % n != e.1 % n))
                    .map(|(&(_, _, f), e)| f * e.3)
                    .sum()
            };
            let got = min_cost_unit_path(&mut fast, n, dst);
            let want = oracle_unit_path(&mut oracle, n, dst);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(fast.forward_flows(), oracle.forward_flows());
            prop_assert_eq!(cost_of(&fast), cost_of(&oracle));
        }

        /// On a unit-cost bidirectional graph, one unit of min-cost flow
        /// costs exactly the BFS distance.
        #[test]
        fn unit_flow_cost_equals_bfs_distance(
            n in 2usize..=8,
            raw_edges in proptest::collection::vec((0usize..8, 0usize..8), 1..16),
            endpoints in (0usize..8, 0usize..8),
        ) {
            let mut adj = Adjacency::new(n);
            for (a, b) in raw_edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    adj.add_edge(a, b);
                }
            }
            let (src, dst) = (endpoints.0 % n, endpoints.1 % n);
            prop_assume!(src != dst);

            // Super-source limits the flow to one unit.
            let mut net = FlowNetwork::new(n + 1);
            for a in 0..n {
                for &b in adj.neighbors(a) {
                    net.add_edge(a, b, 1, 1);
                }
            }
            net.add_edge(n, src, 1, 0);
            let result = min_cost_max_flow(&mut net, n, dst);
            match adj.distance(src, dst) {
                Some(d) => {
                    prop_assert_eq!(result.flow, 1);
                    prop_assert_eq!(result.cost, d as i64);
                }
                None => prop_assert_eq!(result.flow, 0),
            }
        }

        /// Flow never exceeds the trivial cut bounds (out-degree of source,
        /// in-degree of sink) and cost is non-negative.
        #[test]
        fn flow_respects_degree_bounds(
            n in 2usize..=7,
            raw_edges in proptest::collection::vec((0usize..7, 0usize..7, 1i64..4), 1..20),
        ) {
            let mut net = FlowNetwork::new(n);
            let mut out_cap = vec![0i64; n];
            let mut in_cap = vec![0i64; n];
            for (a, b, cap) in raw_edges {
                let (a, b) = (a % n, b % n);
                if a != b {
                    net.add_edge(a, b, cap, 1);
                    out_cap[a] += cap;
                    in_cap[b] += cap;
                }
            }
            let result = min_cost_max_flow(&mut net, 0, n - 1);
            prop_assert!(result.flow <= out_cap[0]);
            prop_assert!(result.flow <= in_cap[n - 1]);
            prop_assert!(result.cost >= 0);
            prop_assert!(result.flow >= 0);
        }
    }
}
