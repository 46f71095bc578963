//! Exact one-unit routes on a node-split trap graph, priced as they are
//! relaxed.
//!
//! The route planner and the commodity router both route one ion at a
//! time through the same node-split graph of a trap topology with `n`
//! traps: trap `t` has an in-half `2t` and an out-half `2t + 1` joined by
//! an internal edge, each directed segment `a → b` is an edge
//! `2a + 1 → 2b`, node `2n` is a super-source with an entry into one
//! trap's in-half, and node `2n + 1` a super-sink reached through the
//! open exits of some out-halves. [`SplitSearch`] sends one unit of
//! min-cost flow through that graph: the FIFO label-correcting search
//! (SPFA) of a successive-shortest-path solver, without building the
//! graph as a flow network:
//!
//! * **Pricing on relaxation.** A popped node relaxes only the edges open
//!   at solve time, in the order a flow network built trap by trap
//!   (internal edge, then segments in neighbour order), then exits, then
//!   entries, would list them: the super-source relaxes the source trap's
//!   entry, an in-half its internal edge, an out-half its open segments
//!   in neighbour order and then its exit, if open. Costs come from the
//!   caller's [`SplitCosts`] at that moment, so nothing is re-priced
//!   before the solve. Residual reverse edges are never open: each solve
//!   starts from an unused network.
//! * **Same ties.** A label changes only on a strictly shorter path, so
//!   ties keep the first edge found, as in the full search.
//! * **Early stop.** At each FIFO round boundary (when the queue holds
//!   exactly the nodes labelled during the last round), the search stops
//!   once the sink's label is at most every queued label. With
//!   non-negative costs every later relaxation writes a label at least
//!   the smallest queued one, and a label changes only when it strictly
//!   drops, so neither the sink nor any node on its predecessor chain
//!   (all labelled at most the sink) can change again: the route is the
//!   one the full search returns.
//! * **Work proportional to the search.** Labels are reset only where the
//!   previous search wrote them, so a search that stops after a few pops
//!   costs a few pops, whatever the machine's size.
//!
//! The test module checks every search against a successive-shortest-path
//! solver on a flow network of the same open edges: the same found or not
//! found, node path and sink label.

use crate::adjacency::Adjacency;

/// Solves started: one per [`SplitSearch::search`] call.
static FLOW_SOLVES: qccd_obs::Counter = qccd_obs::Counter::new("flow.solves");
/// Searches that reached their sink.
static FLOW_AUGMENTING_PATHS: qccd_obs::Counter = qccd_obs::Counter::new("flow.augmenting_paths");
/// Labels popped off the split search's queue, summed over searches.
static FLOW_SEARCH_POPS: qccd_obs::Counter = qccd_obs::Counter::new("flow.search_pops");

/// No-predecessor marker.
const NONE: u32 = u32::MAX;

/// One node's label in a search.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: i64,
    /// The node it was last relaxed from, or [`NONE`].
    prev: u32,
    queued: bool,
}

const UNLABELLED: Label = Label {
    dist: i64::MAX,
    prev: NONE,
    queued: false,
};

/// The FIFO queue: a ring over one slot per node, since a node is queued
/// at most once at a time.
#[derive(Debug, Clone)]
struct Fifo {
    slots: Vec<u32>,
    head: usize,
    len: usize,
}

impl Fifo {
    fn push(&mut self, v: u32) {
        let mut i = self.head + self.len;
        if i >= self.slots.len() {
            i -= self.slots.len();
        }
        self.slots[i] = v;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let v = self.slots[self.head];
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
        self.len -= 1;
        Some(v)
    }

    /// The queued nodes, front first.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let cap = self.slots.len();
        (0..self.len).map(move |i| {
            let j = self.head + i;
            self.slots[if j >= cap { j - cap } else { j }]
        })
    }
}

/// A search's labels, one per node, and its queue.
#[derive(Debug, Clone)]
struct SearchState {
    labels: Vec<Label>,
    queue: Fifo,
    /// Nodes labelled since the last reset, so a reset touches only those.
    touched: Vec<u32>,
}

impl SearchState {
    fn reset(&mut self) {
        for &v in &self.touched {
            self.labels[v as usize] = UNLABELLED;
        }
        self.touched.clear();
        self.queue.head = 0;
        self.queue.len = 0;
    }

    /// Labels `v` with `label` through `u` on a strict improvement.
    #[inline]
    fn relax(&mut self, u: usize, v: usize, label: i64) {
        let l = &mut self.labels[v];
        if label < l.dist {
            if l.dist == i64::MAX {
                self.touched.push(v as u32);
            }
            l.dist = label;
            l.prev = u as u32;
            if !l.queued {
                l.queued = true;
                self.queue.push(v as u32);
            }
        }
    }
}

/// The prices of one split search, read when an edge is relaxed. Every
/// cost must be non-negative: both the search's termination and its
/// early stop depend on it.
pub trait SplitCosts {
    /// Cost of crossing trap `trap` (its internal edge `2t → 2t + 1`).
    fn internal(&self, trap: usize) -> i64;
    /// Cost of segment `k` (see [`SplitSearch::segments`]), or `None`
    /// when it is closed.
    fn segment(&self, k: usize) -> Option<i64>;
    /// Whether `trap`'s zero-cost exit into the super-sink is open.
    fn exit(&self, _trap: usize) -> bool {
        false
    }
}

/// Where a [`SplitSearch`] routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitSink {
    /// The out-half `2t + 1` of trap `t`.
    Trap(usize),
    /// The super-sink `2n + 1`, through the open exits.
    Exits,
}

/// The split-graph search of one trap graph: its segment table, built
/// once, and the search's labels, kept across searches.
///
/// # Example
///
/// ```
/// use qccd_flow::{Adjacency, SplitCosts, SplitSearch, SplitSink};
///
/// /// Unit hops, free traps, every segment open.
/// struct Hops;
/// impl SplitCosts for Hops {
///     fn internal(&self, _trap: usize) -> i64 {
///         0
///     }
///     fn segment(&self, _k: usize) -> Option<i64> {
///         Some(1)
///     }
/// }
///
/// let mut search = SplitSearch::new(&Adjacency::ring(6));
/// assert_eq!(search.search(0, SplitSink::Trap(2), &Hops), Some(2));
/// assert_eq!(search.trap_path(), vec![0, 1, 2]);
/// assert_eq!(search.first_hop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct SplitSearch {
    /// Trap `t`'s segments are `heads[first[t]..first[t + 1]]`, in
    /// `graph.neighbors(t)` order.
    first: Vec<usize>,
    heads: Vec<usize>,
    /// The last search's labels and queue.
    state: SearchState,
    /// Source trap and sink node of the last search.
    source: usize,
    sink: usize,
    /// Labels the last search popped.
    pops: u64,
}

impl SplitSearch {
    /// The search of `graph`'s node-split graph.
    pub fn new(graph: &Adjacency) -> Self {
        let n = graph.len();
        let mut first = Vec::with_capacity(n + 1);
        let mut heads = Vec::new();
        for t in 0..n {
            first.push(heads.len());
            heads.extend_from_slice(graph.neighbors(t));
        }
        first.push(heads.len());
        assert!(
            2 * n + 2 <= NONE as usize,
            "graph too large for the split search"
        );
        SplitSearch {
            first,
            heads,
            state: SearchState {
                labels: vec![UNLABELLED; 2 * n + 2],
                queue: Fifo {
                    slots: vec![0; 2 * n + 2],
                    head: 0,
                    len: 0,
                },
                touched: Vec::new(),
            },
            source: usize::MAX,
            sink: usize::MAX,
            pops: 0,
        }
    }

    /// Number of traps.
    pub fn traps(&self) -> usize {
        self.first.len() - 1
    }

    /// Trap `t`'s segments: indices `k` whose heads are
    /// `graph.neighbors(t)`, in that order. Segments are numbered trap by
    /// trap, so there are `graph.neighbors(t).len()` summed over `t`.
    pub fn segments(&self, trap: usize) -> std::ops::Range<usize> {
        self.first[trap]..self.first[trap + 1]
    }

    /// Number of directed segments.
    pub fn num_segments(&self) -> usize {
        self.heads.len()
    }

    /// Head trap of segment `k`.
    pub fn head(&self, k: usize) -> usize {
        self.heads[k]
    }

    /// The index of the segment `a → b`, if `a — b` is an edge.
    pub fn segment(&self, a: usize, b: usize) -> Option<usize> {
        let range = self.segments(a);
        let lo = range.start;
        self.heads[range]
            .iter()
            .position(|&h| h == b)
            .map(|k| lo + k)
    }

    /// Routes one unit from trap `source`'s in-half to `sink` along a
    /// minimum-cost path under `costs`, returning the sink's label (the
    /// path's cost), or `None` when the sink is unreachable. The path is
    /// then read with [`trap_path`](Self::trap_path) or
    /// [`first_hop`](Self::first_hop) until the next search.
    ///
    /// Counts one `flow.solves`, one `flow.augmenting_paths` when a path
    /// is found, and the labels popped in `flow.search_pops`.
    ///
    /// # Panics
    ///
    /// Panics if `source` or the sink trap is out of range.
    pub fn search(
        &mut self,
        source: usize,
        sink: SplitSink,
        costs: &impl SplitCosts,
    ) -> Option<i64> {
        let n = self.traps();
        assert!(source < n, "source trap out of range");
        let sink = match sink {
            SplitSink::Trap(t) => {
                assert!(t < n, "sink trap out of range");
                2 * t + 1
            }
            SplitSink::Exits => 2 * n + 1,
        };
        FLOW_SOLVES.incr();
        self.source = source;
        self.sink = sink;
        let SplitSearch {
            first,
            heads,
            state,
            ..
        } = self;
        state.reset();
        let super_source = 2 * n;
        state.relax(NONE as usize, super_source, 0);
        let mut pops = 0u64;
        let mut round = 1usize;
        while let Some(u) = state.queue.pop() {
            let u = u as usize;
            pops += 1;
            state.labels[u].queued = false;
            let du = state.labels[u].dist;
            if u == super_source {
                state.relax(u, 2 * source, du);
            } else if u < super_source && u.is_multiple_of(2) {
                let cost = costs.internal(u / 2);
                debug_assert!(cost >= 0, "cost must be non-negative");
                state.relax(u, u + 1, du + cost);
            } else if u < super_source {
                let t = u / 2;
                let (lo, hi) = (first[t], first[t + 1]);
                for (k, &head) in (lo..hi).zip(&heads[lo..hi]) {
                    if let Some(cost) = costs.segment(k) {
                        debug_assert!(cost >= 0, "cost must be non-negative");
                        state.relax(u, 2 * head, du + cost);
                    }
                }
                if costs.exit(t) {
                    state.relax(u, 2 * n + 1, du);
                }
            }
            // The super-sink has no open edges out.
            round -= 1;
            if round == 0 {
                let SearchState { labels, queue, .. } = &*state;
                let ds = labels[sink].dist;
                if ds != i64::MAX && queue.iter().all(|v| labels[v as usize].dist >= ds) {
                    break;
                }
                round = queue.len;
            }
        }
        self.pops = pops;
        FLOW_SEARCH_POPS.add(pops);
        let label = self.state.labels[sink].dist;
        let found = label != i64::MAX;
        if found {
            FLOW_AUGMENTING_PATHS.incr();
        }
        found.then_some(label)
    }

    /// Labels the last search popped.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// The last search's path as split-graph nodes, super-source first
    /// and sink last; empty when it found none.
    #[cfg(test)]
    fn nodes(&self) -> Vec<usize> {
        let mut path: Vec<usize> = self.chain().collect();
        path.reverse();
        path
    }

    /// The traps the last search's path passes, source first: the
    /// out-halves on it, in order. Empty when it found none.
    pub fn trap_path(&self) -> Vec<usize> {
        self.trap_path_with(|t| t)
    }

    /// [`trap_path`](Self::trap_path) with every trap mapped through
    /// `trap`, in one allocation.
    pub fn trap_path_with<T>(&self, trap: impl Fn(usize) -> T) -> Vec<T> {
        let mut path: Vec<T> = self.chain_traps().map(trap).collect();
        path.reverse();
        path
    }

    /// The second trap of [`trap_path`](Self::trap_path), without
    /// building it; `None` when the path is a single trap or there is
    /// none.
    pub fn first_hop(&self) -> Option<usize> {
        let mut hop = None;
        for t in self.chain_traps() {
            if t == self.source {
                return hop;
            }
            hop = Some(t);
        }
        None
    }

    /// The last search's path nodes, sink first; empty when it found none.
    fn chain(&self) -> impl Iterator<Item = usize> + '_ {
        let labels = &self.state.labels;
        let found = self.sink != usize::MAX && labels[self.sink].dist != i64::MAX;
        std::iter::successors(found.then_some(self.sink), |&v| {
            let prev = labels[v].prev;
            (prev != NONE).then_some(prev as usize)
        })
    }

    /// The traps whose out-halves the last search's path passes, sink
    /// first.
    fn chain_traps(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.traps();
        self.chain()
            .filter(move |&v| v % 2 == 1 && v < 2 * n)
            .map(|v| v / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Hops;

    impl SplitCosts for Hops {
        fn internal(&self, _trap: usize) -> i64 {
            0
        }
        fn segment(&self, _k: usize) -> Option<i64> {
            Some(1)
        }
    }

    #[test]
    fn adjacent_route_stops_after_five_pops_on_any_grid() {
        for side in [4, 8, 32] {
            let mut search = SplitSearch::new(&Adjacency::grid(side, side));
            assert_eq!(search.search(0, SplitSink::Trap(1), &Hops), Some(1));
            assert_eq!(search.trap_path(), vec![0, 1]);
            // Super-source, 0's halves, then both neighbours' in-halves.
            assert_eq!(search.pops(), 5, "grid {side}x{side}");
        }
    }

    #[test]
    fn unreachable_sink_drains_the_queue() {
        let mut g = Adjacency::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let mut search = SplitSearch::new(&g);
        assert_eq!(search.search(0, SplitSink::Trap(3), &Hops), None);
        assert_eq!(search.pops(), 5, "2n, then both halves of traps 0 and 1");
        assert!(search.nodes().is_empty());
        assert!(search.trap_path().is_empty());
        assert_eq!(search.first_hop(), None);
    }

    #[test]
    fn a_search_forgets_the_last_one() {
        let mut search = SplitSearch::new(&Adjacency::line(5));
        assert_eq!(search.search(0, SplitSink::Trap(4), &Hops), Some(4));
        assert_eq!(search.search(4, SplitSink::Trap(2), &Hops), Some(2));
        assert_eq!(search.trap_path(), vec![4, 3, 2]);
        assert_eq!(search.nodes(), vec![10, 8, 9, 6, 7, 4, 5]);
        assert_eq!(search.search(2, SplitSink::Trap(2), &Hops), Some(0));
        assert_eq!(search.trap_path(), vec![2]);
        assert_eq!(search.first_hop(), None);
    }

    #[test]
    fn exits_route_to_the_nearest_open_exit() {
        struct Evict;
        impl SplitCosts for Evict {
            fn internal(&self, _trap: usize) -> i64 {
                0
            }
            fn segment(&self, _k: usize) -> Option<i64> {
                Some(1)
            }
            fn exit(&self, trap: usize) -> bool {
                trap == 0 || trap == 4
            }
        }
        let mut search = SplitSearch::new(&Adjacency::line(6));
        assert_eq!(search.search(2, SplitSink::Exits, &Evict), Some(2));
        assert_eq!(search.trap_path(), vec![2, 1, 0]);
        assert_eq!(search.first_hop(), Some(1));
        assert_eq!(*search.nodes().last().unwrap(), 13);
    }

    #[test]
    fn segment_lookup_follows_neighbour_order() {
        let g = Adjacency::grid(2, 3);
        let search = SplitSearch::new(&g);
        assert_eq!(search.num_segments(), 2 * g.edge_count());
        for a in 0..g.len() {
            for (i, &b) in g.neighbors(a).iter().enumerate() {
                let k = search.segment(a, b).unwrap();
                assert_eq!(k, search.segments(a).start + i);
                assert_eq!(search.head(k), b);
            }
        }
        assert_eq!(search.segment(0, 5), None);
    }
}

#[cfg(test)]
mod oracle {
    use super::*;
    use crate::mcmf::{min_cost_max_flow, min_cost_unit_path, FlowNetwork};
    use proptest::prelude::*;

    /// Planner-shaped prices from generated tables.
    struct Table {
        internal: Vec<i64>,
        segment: Vec<Option<i64>>,
        exits: Vec<bool>,
    }

    impl SplitCosts for Table {
        fn internal(&self, trap: usize) -> i64 {
            self.internal[trap]
        }
        fn segment(&self, k: usize) -> Option<i64> {
            self.segment[k]
        }
        fn exit(&self, trap: usize) -> bool {
            self.exits[trap]
        }
    }

    /// The same instance as a [`FlowNetwork`] holding only the open
    /// edges, in the planner's insertion order: trap by trap (internal
    /// edge, then open segments in neighbour order), then open exits,
    /// then the source's entry.
    fn network(search: &SplitSearch, costs: &Table, source: usize) -> FlowNetwork {
        let n = search.traps();
        let mut net = FlowNetwork::new(2 * n + 2);
        for t in 0..n {
            net.add_edge(2 * t, 2 * t + 1, 1, costs.internal[t]);
            for k in search.segments(t) {
                if let Some(cost) = costs.segment[k] {
                    net.add_edge(2 * t + 1, 2 * search.head(k), 1, cost);
                }
            }
        }
        for t in (0..n).filter(|&t| costs.exits[t]) {
            net.add_edge(2 * t + 1, 2 * n + 1, 1, 0);
        }
        net.add_edge(2 * n, 2 * source, 1, 0);
        net
    }

    /// A line or ring of `size` traps, a `rows × cols` grid, or two lines
    /// side by side.
    fn graph(kind: u32, size: usize, rows: usize, cols: usize) -> Adjacency {
        match kind {
            0 => Adjacency::line(size),
            1 => Adjacency::ring(size.max(3)),
            2 => Adjacency::grid(rows, cols),
            _ => {
                let mut g = Adjacency::new(size);
                for v in (1..size).filter(|&v| v != size / 2) {
                    g.add_edge(v - 1, v);
                }
                g
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The split search returns the full SPFA's found/not-found, node
        /// path and sink label on random instances: zero and tied costs,
        /// closed segments, penalised traps, an out-half sink or a set of
        /// open exits. Half the instances are priced like the route
        /// planner: every segment open at `units × hop_scale + load`, with
        /// `hop_scale` above any load sum, and full traps penalised in
        /// whole hops, on lines and rings up to 24 traps and grids up to
        /// 6×6.
        #[test]
        fn split_search_matches_min_cost_unit_path(
            kind in 0u32..4,
            size in 2usize..=24,
            rows in 1usize..=6,
            cols in 2usize..=6,
            planner_priced in any::<bool>(),
            penalties in proptest::collection::vec(prop_oneof![Just(0i64), 0i64..=3], 1..8),
            segments in proptest::collection::vec(prop_oneof![Just(None), (0i64..=2).prop_map(Some)], 1..16),
            units in proptest::collection::vec(1i64..=3, 1..8),
            loads in proptest::collection::vec(prop_oneof![Just(0i64), 0i64..=15], 1..16),
            exits in any::<u64>(),
            to_exits in any::<bool>(),
            endpoints in (0usize..64, 0usize..64),
        ) {
            let g = graph(kind, size, rows, cols);
            let n = g.len();
            let mut search = SplitSearch::new(&g);
            let penalty = |t: usize| penalties[t * 5 % penalties.len()];
            let costs = if planner_priced {
                let hop_scale = (n as i64 + 1) * 16;
                Table {
                    internal: (0..n).map(|t| penalty(t) * hop_scale).collect(),
                    segment: (0..search.num_segments())
                        .map(|k| Some(units[k * 7 % units.len()] * hop_scale + loads[k * 3 % loads.len()]))
                        .collect(),
                    exits: (0..n).map(|t| to_exits && exits >> t & 1 == 1).collect(),
                }
            } else {
                Table {
                    internal: (0..n).map(penalty).collect(),
                    segment: (0..search.num_segments()).map(|k| segments[k * 3 % segments.len()]).collect(),
                    exits: (0..n).map(|t| to_exits && exits >> t & 1 == 1).collect(),
                }
            };
            let (source, dest) = (endpoints.0 % n, endpoints.1 % n);
            let (sink, sink_node) = if to_exits {
                (SplitSink::Exits, 2 * n + 1)
            } else {
                (SplitSink::Trap(dest), 2 * dest + 1)
            };
            let got = search.search(source, sink, &costs);
            let mut net = network(&search, &costs, source);
            let mut flow = net.clone();
            let want = min_cost_unit_path(&mut net, 2 * n, sink_node);
            let label = min_cost_max_flow(&mut flow, 2 * n, sink_node);
            prop_assert_eq!(got.is_some(), want.is_some());
            prop_assert_eq!(search.nodes(), want.clone().unwrap_or_default());
            if let Some(cost) = got {
                prop_assert_eq!(label.flow, 1);
                prop_assert_eq!(cost, label.cost);
                let traps: Vec<usize> =
                    want.unwrap().iter().filter(|&&v| v % 2 == 1 && v < 2 * n).map(|&v| v / 2).collect();
                prop_assert_eq!(search.first_hop(), traps.get(1).copied());
                prop_assert_eq!(search.trap_path(), traps);
            }
        }
    }
}
