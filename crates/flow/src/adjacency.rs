//! Small undirected graph with memoized BFS shortest paths.
//!
//! # Row memo
//!
//! Distance and shortest-path queries are answered from per-source BFS
//! rows: the hop distance to every node plus the node's BFS-tree parent.
//! A row is computed the first time its source is queried and kept.
//!
//! * **Tie-break.** The BFS visits each node's neighbours in ascending
//!   index order, so every returned path is the lexicographically smallest
//!   shortest path.
//! * **Sharing.** The rows sit behind an [`Arc`]: every clone of a graph
//!   (and so of every `MachineSpec` and `MachineState` built on it) shares
//!   them, and a row computed through one clone serves all.
//!   [`Adjacency::add_edge`] detaches the graph from the shared rows, so
//!   clones taken before the edge keep answering for the old graph.
//! * **Memory.** A row holds two `u32` per node, so the worst case, a row
//!   for every source, is n² × 8 B (2 KiB for a 4×4 grid).
//!
//! [`Adjacency::shortest_path_filtered`] returns the memoized tree path
//! whenever all of its interior nodes are allowed. The filtered BFS would
//! return that same path: the tree path is the smallest shortest path of
//! the whole graph and lies inside the allowed subgraph, so it is also the
//! smallest shortest path there. Only a blocked tree path falls back to a
//! BFS over the allowed nodes.
//!
//! [`Adjacency::first_hop_filtered`] answers the same query for a caller
//! that only takes the path's first step: it walks the tree path's parent
//! links, or runs the fallback BFS in a caller-owned [`BfsScratch`], and
//! allocates nothing once the row and the scratch are warm.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// Marks an unreachable node in a row's `dist` and a missing parent.
const NONE: u32 = u32::MAX;

/// An undirected graph on nodes `0..n`, stored as adjacency lists.
///
/// Used to model trap topologies (the paper's L6 is [`Adjacency::line`]`(6)`)
/// and to answer the shortest-path queries both re-balancing policies need.
/// See the [module docs](self) for the memo contract behind the queries.
#[derive(Clone)]
pub struct Adjacency {
    neighbors: Vec<Vec<usize>>,
    /// BFS answers, built on first query and shared by every clone.
    memo: Arc<OnceLock<Memo>>,
}

/// The lazily built query state of one graph.
struct Memo {
    /// Neighbour lists in ascending order: the BFS visit order.
    sorted: Vec<Vec<usize>>,
    /// `rows[s]`: the BFS row of source `s`, built on first use.
    rows: Vec<OnceLock<Row>>,
}

/// A full BFS from one source.
struct Row {
    /// Hop distance from the source; [`NONE`] when unreachable.
    dist: Vec<u32>,
    /// BFS-tree parent; [`NONE`] for the source and unreachable nodes.
    parent: Vec<u32>,
}

impl Memo {
    fn new(neighbors: &[Vec<usize>]) -> Self {
        let sorted = neighbors
            .iter()
            .map(|nbrs| {
                let mut nbrs = nbrs.clone();
                nbrs.sort_unstable();
                nbrs
            })
            .collect();
        Memo {
            sorted,
            rows: (0..neighbors.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    fn row(&self, from: usize) -> &Row {
        self.rows[from].get_or_init(|| {
            let n = self.sorted.len();
            let mut dist = vec![NONE; n];
            let mut parent = vec![NONE; n];
            let mut queue = Vec::with_capacity(n);
            dist[from] = 0;
            queue.push(from);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &v in &self.sorted[u] {
                    if dist[v] == NONE {
                        dist[v] = dist[u] + 1;
                        parent[v] = u as u32;
                        queue.push(v);
                    }
                }
            }
            Row { dist, parent }
        })
    }
}

impl Row {
    /// The tree path from the row's source to `to` inclusive, each node
    /// mapped through `node`, in one allocation.
    fn path_to<T>(&self, to: usize, node: impl Fn(usize) -> T) -> Option<Vec<T>> {
        let hops = self.dist[to];
        if hops == NONE {
            return None;
        }
        let mut path = Vec::with_capacity(hops as usize + 1);
        let mut cur = to;
        for _ in 0..=hops {
            path.push(node(cur));
            cur = self.parent[cur] as usize;
        }
        path.reverse();
        Some(path)
    }

    /// The node after the source on the tree path to the reachable node
    /// `to` (`to` itself for the source), walking parent links; `None`
    /// when an interior node of that path fails `allowed`.
    fn first_hop(&self, to: usize, allowed: impl Fn(usize) -> bool) -> Option<usize> {
        let mut cur = to;
        for _ in 1..self.dist[to] {
            cur = self.parent[cur] as usize;
            if !allowed(cur) {
                return None;
            }
        }
        Some(cur)
    }
}

/// Reusable buffers for the filtered BFS of
/// [`Adjacency::first_hop_filtered`]: kept by the caller across queries,
/// so a warm query allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BfsScratch {
    /// BFS parent of every visited node (the source is its own parent);
    /// [`NONE`] for unvisited nodes.
    prev: Vec<u32>,
    queue: Vec<u32>,
}

impl Adjacency {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        Adjacency {
            neighbors: vec![Vec::new(); n],
            memo: Arc::default(),
        }
    }

    /// A path graph `0 — 1 — … — n−1` (the paper's "Lk" linear topologies).
    pub fn line(n: usize) -> Self {
        let mut g = Adjacency::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i);
        }
        g
    }

    /// A cycle graph `0 — 1 — … — n−1 — 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (a cycle needs at least 3 nodes).
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring requires at least 3 nodes");
        let mut g = Adjacency::line(n);
        g.add_edge(n - 1, 0);
        g
    }

    /// A `rows × cols` grid graph in row-major node order.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut g = Adjacency::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if c + 1 < cols {
                    g.add_edge(i, i + 1);
                }
                if r + 1 < rows {
                    g.add_edge(i, i + cols);
                }
            }
        }
        g
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Adds the undirected edge `a — b`. Duplicate edges are ignored.
    ///
    /// A new edge drops this graph's memoized rows; clones taken before
    /// keep theirs.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range, or if `a == b` (self-loop).
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(
            a < self.len() && b < self.len(),
            "edge endpoint out of range"
        );
        assert_ne!(a, b, "self-loops are not allowed");
        if !self.neighbors[a].contains(&b) {
            self.neighbors[a].push(b);
            self.neighbors[b].push(a);
            match Arc::get_mut(&mut self.memo) {
                Some(memo) => drop(memo.take()),
                None => self.memo = Arc::default(),
            }
        }
    }

    /// Neighbours of `node`, in edge insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.neighbors[node]
    }

    /// Returns `true` if `a — b` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.len() && self.neighbors[a].contains(&b)
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Hop distance between `from` and `to`, or `None` if disconnected.
    pub fn distance(&self, from: usize, to: usize) -> Option<usize> {
        let row = self.row(from, to)?;
        let hops = row.dist[to];
        (hops != NONE).then_some(hops as usize)
    }

    /// A shortest path from `from` to `to` inclusive, or `None` if
    /// disconnected. Ties are broken toward lower-indexed neighbours.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        self.shortest_path_with(from, to, |v| v)
    }

    /// [`shortest_path`](Adjacency::shortest_path) with every node mapped
    /// through `node`, built straight from the memoized row in one
    /// allocation.
    pub fn shortest_path_with<T>(
        &self,
        from: usize,
        to: usize,
        node: impl Fn(usize) -> T,
    ) -> Option<Vec<T>> {
        self.row(from, to)?.path_to(to, node)
    }

    /// A shortest path whose *interior* nodes all satisfy `allowed`
    /// (endpoints are always permitted). Used to route shuttles around
    /// full traps.
    pub fn shortest_path_filtered(
        &self,
        from: usize,
        to: usize,
        allowed: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        self.shortest_path_filtered_with(from, to, allowed, |v| v)
    }

    /// [`shortest_path_filtered`](Adjacency::shortest_path_filtered) with
    /// every node mapped through `node`. When the memoized tree path is
    /// allowed (checked along its parent links) this is one allocation.
    pub fn shortest_path_filtered_with<T>(
        &self,
        from: usize,
        to: usize,
        allowed: impl Fn(usize) -> bool,
        node: impl Fn(usize) -> T,
    ) -> Option<Vec<T>> {
        let row = self.row(from, to)?;
        if row.dist[to] == NONE {
            return None;
        }
        if row.first_hop(to, &allowed).is_some() {
            return row.path_to(to, node);
        }
        let mut scratch = BfsScratch::default();
        if !self.bfs_filtered(from, to, &allowed, &mut scratch) {
            return None;
        }
        let mut path = vec![node(to)];
        let mut cur = to;
        while cur != from {
            cur = scratch.prev[cur] as usize;
            path.push(node(cur));
        }
        path.reverse();
        Some(path)
    }

    /// The second node of
    /// [`shortest_path_filtered`](Adjacency::shortest_path_filtered)`(from,
    /// to, allowed)` without building the path; `None` when that path is
    /// `None` or `from == to`. A blocked tree path runs the filtered BFS in
    /// `scratch`, so warm queries allocate nothing.
    pub fn first_hop_filtered(
        &self,
        from: usize,
        to: usize,
        allowed: impl Fn(usize) -> bool,
        scratch: &mut BfsScratch,
    ) -> Option<usize> {
        let row = self.row(from, to)?;
        if from == to || row.dist[to] == NONE {
            return None;
        }
        if let Some(hop) = row.first_hop(to, &allowed) {
            return Some(hop);
        }
        if !self.bfs_filtered(from, to, &allowed, scratch) {
            return None;
        }
        let mut cur = to;
        while scratch.prev[cur] as usize != from {
            cur = scratch.prev[cur] as usize;
        }
        Some(cur)
    }

    fn memo(&self) -> &Memo {
        self.memo.get_or_init(|| Memo::new(&self.neighbors))
    }

    /// The memoized row of `from`, or `None` when either endpoint is out
    /// of range.
    fn row(&self, from: usize, to: usize) -> Option<&Row> {
        (from < self.len() && to < self.len()).then(|| self.memo().row(from))
    }

    /// BFS over `from`, `to` and the allowed nodes, visiting neighbours in
    /// ascending order, recording parents in `scratch`; stops when `to` is
    /// reached and returns whether it was.
    fn bfs_filtered(
        &self,
        from: usize,
        to: usize,
        interior_allowed: &dyn Fn(usize) -> bool,
        scratch: &mut BfsScratch,
    ) -> bool {
        let sorted = &self.memo().sorted;
        let BfsScratch { prev, queue } = scratch;
        prev.clear();
        prev.resize(self.len(), NONE);
        queue.clear();
        prev[from] = from as u32;
        queue.push(from as u32);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in &sorted[u as usize] {
                if prev[v] != NONE || (v != to && !interior_allowed(v)) {
                    continue;
                }
                prev[v] = u;
                if v == to {
                    return true;
                }
                queue.push(v as u32);
            }
        }
        false
    }
}

/// Graphs are equal when their adjacency lists are; the memo is a cache.
impl PartialEq for Adjacency {
    fn eq(&self, other: &Self) -> bool {
        self.neighbors == other.neighbors
    }
}

impl Eq for Adjacency {}

impl fmt::Debug for Adjacency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Adjacency")
            .field("neighbors", &self.neighbors)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure() {
        let g = Adjacency::line(6);
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 5);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(4, 5));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn ring_wraps() {
        let g = Adjacency::ring(5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.distance(0, 4), Some(1));
        assert_eq!(g.distance(0, 2), Some(2));
    }

    #[test]
    fn grid_structure() {
        let g = Adjacency::grid(2, 3);
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.distance(0, 5), Some(3));
    }

    #[test]
    fn shortest_path_on_line() {
        let g = Adjacency::line(6);
        assert_eq!(g.shortest_path(3, 5).unwrap(), vec![3, 4, 5]);
        assert_eq!(g.shortest_path(5, 3).unwrap(), vec![5, 4, 3]);
        assert_eq!(g.shortest_path(2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn filtered_path_routes_around_blocked_node() {
        let mut g = Adjacency::ring(6);
        // Direct path 0->1->2; block node 1, must go the long way.
        g.add_edge(0, 2); // add a chord so both routes exist
        let p = g
            .shortest_path_filtered(0, 2, |n| n != 1)
            .expect("path exists via chord");
        assert!(!p[1..p.len() - 1].contains(&1));
    }

    #[test]
    fn filtered_path_none_when_cut() {
        let g = Adjacency::line(4);
        assert_eq!(g.shortest_path_filtered(0, 3, |n| n != 2), None);
    }

    #[test]
    fn disconnected_returns_none() {
        let g = Adjacency::new(3);
        assert_eq!(g.distance(0, 2), None);
        assert_eq!(g.shortest_path(0, 2), None);
    }

    #[test]
    fn out_of_range_queries_return_none() {
        let g = Adjacency::line(3);
        assert_eq!(g.shortest_path(0, 9), None);
        assert_eq!(g.distance(9, 0), None);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Adjacency::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Adjacency::new(2);
        g.add_edge(1, 1);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference all-pairs distances via Floyd–Warshall.
    #[allow(clippy::needless_range_loop)] // index-triple form is the canonical FW presentation
    fn floyd_warshall(g: &Adjacency) -> Vec<Vec<Option<usize>>> {
        let n = g.len();
        let mut d = vec![vec![None; n]; n];
        for i in 0..n {
            d[i][i] = Some(0);
            for &j in g.neighbors(i) {
                d[i][j] = Some(1);
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if let (Some(a), Some(b)) = (d[i][k], d[k][j]) {
                        if d[i][j].is_none_or(|c| a + b < c) {
                            d[i][j] = Some(a + b);
                        }
                    }
                }
            }
        }
        d
    }

    fn random_graph() -> impl Strategy<Value = Adjacency> {
        (
            2usize..=8,
            proptest::collection::vec((0usize..8, 0usize..8), 0..16),
        )
            .prop_map(|(n, raw_edges)| {
                let mut g = Adjacency::new(n);
                for (a, b) in raw_edges {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        g.add_edge(a, b);
                    }
                }
                g
            })
    }

    proptest! {
        /// BFS distances agree with the Floyd–Warshall reference on
        /// arbitrary graphs, including disconnected ones.
        #[test]
        #[allow(clippy::needless_range_loop)]
        fn bfs_matches_floyd_warshall(g in random_graph()) {
            let reference = floyd_warshall(&g);
            for i in 0..g.len() {
                for j in 0..g.len() {
                    prop_assert_eq!(g.distance(i, j), reference[i][j], "pair ({}, {})", i, j);
                }
            }
        }

        /// Every returned shortest path is a real path of the right length.
        #[test]
        fn shortest_paths_are_valid_walks(g in random_graph()) {
            for i in 0..g.len() {
                for j in 0..g.len() {
                    if let Some(p) = g.shortest_path(i, j) {
                        prop_assert_eq!(p[0], i);
                        prop_assert_eq!(*p.last().expect("non-empty"), j);
                        for w in p.windows(2) {
                            prop_assert!(g.has_edge(w[0], w[1]));
                        }
                        prop_assert_eq!(Some(p.len() - 1), g.distance(i, j));
                    }
                }
            }
        }
    }
}

/// Differential check of the memoized queries against the per-query BFS
/// they replaced, kept here as the oracle.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The previous BFS: clones and sorts the neighbour list on every
    /// dequeue and stops at `to`.
    fn reference(
        g: &Adjacency,
        from: usize,
        to: usize,
        interior_allowed: &dyn Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        if from >= g.len() || to >= g.len() {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<usize>> = vec![None; g.len()];
        let mut visited = vec![false; g.len()];
        let mut queue = VecDeque::new();
        visited[from] = true;
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            let mut nbrs = g.neighbors(u).to_vec();
            nbrs.sort_unstable();
            for v in nbrs {
                if visited[v] || (v != to && !interior_allowed(v)) {
                    continue;
                }
                visited[v] = true;
                prev[v] = Some(u);
                if v == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = prev[cur] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(v);
            }
        }
        None
    }

    /// Random graphs on up to 12 nodes with edges inserted in arbitrary
    /// (unsorted) order, often disconnected, plus allow-masks.
    fn graph() -> impl Strategy<Value = (Adjacency, Vec<u32>)> {
        (
            1usize..=12,
            proptest::collection::vec((0usize..12, 0usize..12), 0..30),
            proptest::collection::vec(0u32..1 << 12, 6..7),
        )
            .prop_map(|(n, raw, masks)| {
                let mut g = Adjacency::new(n);
                for (a, b) in raw {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        g.add_edge(a, b);
                    }
                }
                (g, masks)
            })
    }

    /// A path with its nodes mapped the way `TrapTopology` maps them.
    fn mapped(path: Option<Vec<usize>>) -> Option<Vec<u32>> {
        path.map(|p| p.into_iter().map(|v| v as u32).collect())
    }

    /// Every query for every ordered pair (and one out-of-range node),
    /// plain, mapped and as a first hop.
    fn check_all(g: &Adjacency, masks: &[u32]) -> Result<usize, String> {
        // One scratch for every query, as a route planner keeps it.
        let scratch = &mut BfsScratch::default();
        let mut queries = 0;
        for from in 0..=g.len() {
            for to in 0..=g.len() {
                let want = reference(g, from, to, &|_| true);
                prop_assert_eq!(g.shortest_path(from, to), want.clone());
                prop_assert_eq!(
                    g.shortest_path_with(from, to, |v| v as u32),
                    mapped(want.clone())
                );
                prop_assert_eq!(g.distance(from, to), want.map(|p| p.len() - 1));
                for &mask in masks {
                    let allowed = |v: usize| mask >> v & 1 == 1;
                    let want = reference(g, from, to, &allowed);
                    prop_assert_eq!(
                        g.shortest_path_filtered(from, to, allowed),
                        want.clone(),
                        "{} -> {} under mask {:#b}",
                        from,
                        to,
                        mask
                    );
                    prop_assert_eq!(
                        g.shortest_path_filtered_with(from, to, allowed, |v| v as u32),
                        mapped(want.clone()),
                        "mapped {} -> {} under mask {:#b}",
                        from,
                        to,
                        mask
                    );
                    prop_assert_eq!(
                        g.first_hop_filtered(from, to, allowed, scratch),
                        want.and_then(|p| p.get(1).copied()),
                        "first hop {} -> {} under mask {:#b}",
                        from,
                        to,
                        mask
                    );
                }
                queries += 3 + 3 * masks.len();
            }
        }
        Ok(queries)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn memoized_queries_match_the_per_query_bfs(case in graph()) {
            let (g, masks) = case;
            check_all(&g, &masks)?;
            // A second pass reads only memoized rows.
            check_all(&g, &masks)?;
        }

        /// A clone shares rows until its twin gains an edge; then each
        /// answers for its own graph.
        #[test]
        fn clones_keep_their_answers_when_a_twin_gains_an_edge(
            case in graph(),
            edge in (0usize..12, 0usize..12),
        ) {
            let ((g, masks), (a, b)) = (case, edge);
            let n = g.len();
            check_all(&g, &masks)?;
            let mut twin = g.clone();
            let (a, b) = (a % n, b % n);
            if a != b {
                twin.add_edge(a, b);
            }
            check_all(&twin, &masks)?;
            check_all(&g, &masks)?;
            prop_assert_eq!(g.has_edge(a, b), g.neighbors(a).contains(&b));
        }
    }

    #[test]
    fn a_grown_clone_answers_for_its_own_graph() {
        let line = Adjacency::line(5);
        assert_eq!(line.distance(0, 4), Some(4));
        let mut ring = line.clone();
        ring.add_edge(4, 0);
        assert_eq!(ring.distance(0, 4), Some(1));
        assert_eq!(ring.shortest_path(0, 3), Some(vec![0, 4, 3]));
        assert_eq!(line.distance(0, 4), Some(4));
        assert_eq!(line.shortest_path(0, 3), Some(vec![0, 1, 2, 3]));
    }
}
