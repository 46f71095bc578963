//! Trap interconnect topologies.

use crate::error::MachineError;
use crate::ids::TrapId;
use qccd_flow::Adjacency;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How traps are interconnected by shuttle paths.
///
/// The paper evaluates on the "L6" topology — 6 traps connected in a line
/// (Fig. 7) — built by [`TrapTopology::linear`]`(6)`. Ring and grid
/// variants are provided for architecture exploration (Murali et al.
/// study G-shaped topologies too).
///
/// The adjacency lists sit behind an [`Arc`], like the BFS memo inside
/// them: cloning a topology (and so every `MachineSpec` and
/// `MachineState`) shares them instead of copying one list per trap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrapTopology {
    kind: TopologyKind,
    #[serde(skip, default = "empty_adjacency")]
    adj: Arc<Adjacency>,
}

// Referenced by the `#[serde(default = "...")]` attribute above; the
// vendored serde stub ignores field attributes, so without this allow the
// compiler sees no non-test use.
#[allow(dead_code)]
fn empty_adjacency() -> Arc<Adjacency> {
    Arc::new(Adjacency::new(0))
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum TopologyKind {
    Linear { n: u32 },
    Ring { n: u32 },
    Grid { rows: u32, cols: u32 },
    Custom { n: u32, edges: Vec<(u32, u32)> },
}

impl TrapTopology {
    /// `n` traps in a line: `T0 — T1 — … — T(n−1)` (the paper's "Ln").
    pub fn linear(n: u32) -> Self {
        TrapTopology {
            kind: TopologyKind::Linear { n },
            adj: Arc::new(Adjacency::line(n as usize)),
        }
    }

    /// `n` traps in a ring.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: u32) -> Self {
        TrapTopology {
            kind: TopologyKind::Ring { n },
            adj: Arc::new(Adjacency::ring(n as usize)),
        }
    }

    /// `rows × cols` traps in a grid, row-major trap ids.
    pub fn grid(rows: u32, cols: u32) -> Self {
        TrapTopology {
            kind: TopologyKind::Grid { rows, cols },
            adj: Arc::new(Adjacency::grid(rows as usize, cols as usize)),
        }
    }

    /// An arbitrary interconnect over `n` traps with explicit shuttle-path
    /// `edges` — for exploring machine layouts beyond lines, rings and
    /// grids (H-junctions, X-junctions, combs).
    ///
    /// # Panics
    ///
    /// Panics if the edge list is invalid; see [`TrapTopology::try_custom`]
    /// for the fallible constructor and the exact rejection rules.
    pub fn custom(n: u32, edges: &[(u32, u32)]) -> Self {
        Self::try_custom(n, edges).expect("invalid custom topology")
    }

    /// Fallible form of [`TrapTopology::custom`].
    ///
    /// # Errors
    ///
    /// * [`MachineError::TrapOutOfRange`] — an edge endpoint `>= n`.
    /// * [`MachineError::SelfLoopEdge`] — an edge connects a trap to itself.
    /// * [`MachineError::DuplicateEdge`] — the same segment (in either
    ///   orientation) is listed twice.
    pub fn try_custom(n: u32, edges: &[(u32, u32)]) -> Result<Self, MachineError> {
        let mut adj = Adjacency::new(n as usize);
        for &(a, b) in edges {
            for endpoint in [a, b] {
                if endpoint >= n {
                    return Err(MachineError::TrapOutOfRange {
                        trap: TrapId(endpoint),
                        num_traps: n,
                    });
                }
            }
            if a == b {
                return Err(MachineError::SelfLoopEdge { trap: TrapId(a) });
            }
            if adj.has_edge(a as usize, b as usize) {
                return Err(MachineError::DuplicateEdge {
                    a: TrapId(a),
                    b: TrapId(b),
                });
            }
            adj.add_edge(a as usize, b as usize);
        }
        Ok(TrapTopology {
            kind: TopologyKind::Custom {
                n,
                edges: edges.to_vec(),
            },
            adj: Arc::new(adj),
        })
    }

    /// Rebuilds the adjacency structure after deserialisation.
    ///
    /// Serde skips the derived adjacency lists (they are pure functions of
    /// the topology kind); call this once on a deserialised value before
    /// issuing path queries. Swaps in a fresh shared list, so clones taken
    /// before keep theirs.
    pub fn rebuild_adjacency(&mut self) {
        self.adj = Arc::new(match &self.kind {
            TopologyKind::Linear { n } => Adjacency::line(*n as usize),
            TopologyKind::Ring { n } => Adjacency::ring(*n as usize),
            TopologyKind::Grid { rows, cols } => Adjacency::grid(*rows as usize, *cols as usize),
            TopologyKind::Custom { n, edges } => {
                let mut adj = Adjacency::new(*n as usize);
                for &(a, b) in edges {
                    adj.add_edge(a as usize, b as usize);
                }
                adj
            }
        });
    }

    /// Number of traps.
    pub fn num_traps(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Returns `true` if `a` and `b` share a shuttle-path segment.
    pub fn are_adjacent(&self, a: TrapId, b: TrapId) -> bool {
        self.adj.has_edge(a.index(), b.index())
    }

    /// Number of shuttle-path segments meeting at `t`.
    pub fn degree(&self, t: TrapId) -> u32 {
        self.adj.neighbors(t.index()).len() as u32
    }

    /// `true` when three or more shuttle paths meet at `t` — a T- or
    /// X-junction whose corner/swap hardware real QCCD transport must
    /// negotiate (linear segments and ring corners have degree ≤ 2).
    pub fn is_junction(&self, t: TrapId) -> bool {
        self.degree(t) >= 3
    }

    /// Neighbouring traps of `t`.
    pub fn neighbors(&self, t: TrapId) -> Vec<TrapId> {
        self.adj
            .neighbors(t.index())
            .iter()
            .map(|&i| TrapId(i as u32))
            .collect()
    }

    /// Hop distance between two traps, or `None` if disconnected.
    pub fn distance(&self, from: TrapId, to: TrapId) -> Option<u32> {
        self.adj
            .distance(from.index(), to.index())
            .map(|d| d as u32)
    }

    /// Shortest trap path `from → … → to` inclusive, or `None` if
    /// disconnected.
    pub fn shortest_path(&self, from: TrapId, to: TrapId) -> Option<Vec<TrapId>> {
        self.adj
            .shortest_path_with(from.index(), to.index(), |i| TrapId(i as u32))
    }

    /// Shortest path whose interior traps all satisfy `allowed` — used to
    /// route shuttles around full traps where possible.
    pub fn shortest_path_filtered(
        &self,
        from: TrapId,
        to: TrapId,
        allowed: impl Fn(TrapId) -> bool,
    ) -> Option<Vec<TrapId>> {
        self.adj.shortest_path_filtered_with(
            from.index(),
            to.index(),
            |i| allowed(TrapId(i as u32)),
            |i| TrapId(i as u32),
        )
    }

    /// All trap ids.
    pub fn traps(&self) -> impl Iterator<Item = TrapId> {
        (0..self.num_traps()).map(TrapId)
    }

    /// The topology's interconnect as `qccd-flow`'s [`Adjacency`] graph —
    /// the substrate the flow routines (multi-commodity routing, filtered
    /// BFS) consume directly, so callers need not rebuild it edge by edge.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adj
    }
}

impl fmt::Display for TrapTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TopologyKind::Linear { n } => write!(f, "L{n}"),
            TopologyKind::Ring { n } => write!(f, "R{n}"),
            TopologyKind::Grid { rows, cols } => write!(f, "G{rows}x{cols}"),
            TopologyKind::Custom { n, edges } => write!(f, "C{n}e{}", edges.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l6_matches_paper() {
        let t = TrapTopology::linear(6);
        assert_eq!(t.num_traps(), 6);
        assert_eq!(t.to_string(), "L6");
        assert!(t.are_adjacent(TrapId(3), TrapId(4)));
        assert!(!t.are_adjacent(TrapId(0), TrapId(5)));
        // Fig. 7: T4 to T0 needs 4 shuttles.
        assert_eq!(t.distance(TrapId(4), TrapId(0)), Some(4));
        assert_eq!(t.distance(TrapId(4), TrapId(3)), Some(1));
    }

    #[test]
    fn shortest_path_endpoints_inclusive() {
        let t = TrapTopology::linear(4);
        assert_eq!(
            t.shortest_path(TrapId(0), TrapId(3)).unwrap(),
            vec![TrapId(0), TrapId(1), TrapId(2), TrapId(3)]
        );
    }

    #[test]
    fn ring_distance_wraps() {
        let t = TrapTopology::ring(6);
        assert_eq!(t.distance(TrapId(0), TrapId(5)), Some(1));
        assert_eq!(t.distance(TrapId(0), TrapId(3)), Some(3));
    }

    #[test]
    fn grid_neighbors() {
        let t = TrapTopology::grid(2, 3);
        let mut n = t.neighbors(TrapId(4)); // middle of bottom row
        n.sort_unstable();
        assert_eq!(n, vec![TrapId(1), TrapId(3), TrapId(5)]);
        assert_eq!(t.to_string(), "G2x3");
    }

    #[test]
    fn filtered_path_avoids_blocked_trap() {
        let t = TrapTopology::ring(6);
        let p = t
            .shortest_path_filtered(TrapId(0), TrapId(2), |trap| trap != TrapId(1))
            .expect("ring offers an alternative route");
        assert!(!p[1..p.len() - 1].contains(&TrapId(1)));
        assert_eq!(p.len(), 5); // 0-5-4-3-2
    }

    #[test]
    fn junction_classification() {
        let line = TrapTopology::linear(4);
        assert!(line.traps().all(|t| !line.is_junction(t)));
        let ring = TrapTopology::ring(6);
        assert!(ring.traps().all(|t| ring.degree(t) == 2));
        let grid = TrapTopology::grid(3, 3);
        assert_eq!(grid.degree(TrapId(4)), 4, "grid centre is an X-junction");
        assert!(
            grid.is_junction(TrapId(1)),
            "edge midpoints are T-junctions"
        );
        assert!(!grid.is_junction(TrapId(0)), "corners are not junctions");
    }

    #[test]
    fn custom_topology_h_junction() {
        // An H of 5 traps: 0-2, 1-2, 2-3, 3-4 (a junction at 2).
        let t = TrapTopology::custom(5, &[(0, 2), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(t.num_traps(), 5);
        assert_eq!(t.distance(TrapId(0), TrapId(1)), Some(2));
        assert_eq!(t.distance(TrapId(0), TrapId(4)), Some(3));
        assert_eq!(t.to_string(), "C5e4");
        let mut n = t.neighbors(TrapId(2));
        n.sort_unstable();
        assert_eq!(n, vec![TrapId(0), TrapId(1), TrapId(3)]);
    }

    #[test]
    fn try_custom_rejects_out_of_range_endpoint() {
        assert_eq!(
            TrapTopology::try_custom(3, &[(0, 1), (1, 3)]).unwrap_err(),
            MachineError::TrapOutOfRange {
                trap: TrapId(3),
                num_traps: 3
            }
        );
    }

    #[test]
    fn try_custom_rejects_self_loop() {
        assert_eq!(
            TrapTopology::try_custom(3, &[(0, 1), (2, 2)]).unwrap_err(),
            MachineError::SelfLoopEdge { trap: TrapId(2) }
        );
    }

    #[test]
    fn try_custom_rejects_duplicate_edge() {
        // Duplicates are rejected in either orientation.
        assert_eq!(
            TrapTopology::try_custom(3, &[(0, 1), (1, 0)]).unwrap_err(),
            MachineError::DuplicateEdge {
                a: TrapId(1),
                b: TrapId(0)
            }
        );
        assert_eq!(
            TrapTopology::try_custom(3, &[(1, 2), (1, 2)]).unwrap_err(),
            MachineError::DuplicateEdge {
                a: TrapId(1),
                b: TrapId(2)
            }
        );
    }

    #[test]
    #[should_panic(expected = "invalid custom topology")]
    fn custom_panics_on_invalid_edges() {
        let _ = TrapTopology::custom(2, &[(0, 0)]);
    }

    #[test]
    fn custom_topology_rebuilds() {
        let mut t = TrapTopology::custom(3, &[(0, 1), (1, 2)]);
        t.adj = super::empty_adjacency();
        t.rebuild_adjacency();
        assert_eq!(t.distance(TrapId(0), TrapId(2)), Some(2));
    }

    #[test]
    fn rebuild_adjacency_restores_structure() {
        // After deserialisation the adjacency field is empty; rebuild must
        // restore it from the topology kind.
        let mut t = TrapTopology::linear(6);
        t.adj = super::empty_adjacency();
        assert_eq!(t.distance(TrapId(0), TrapId(5)), None);
        t.rebuild_adjacency();
        assert_eq!(t.distance(TrapId(0), TrapId(5)), Some(5));
    }

    #[test]
    fn clones_share_adjacency_until_rebuilt() {
        let t = TrapTopology::grid(4, 4);
        let mut twin = t.clone();
        assert!(std::ptr::eq(t.adjacency(), twin.adjacency()));
        twin.rebuild_adjacency();
        assert!(!std::ptr::eq(t.adjacency(), twin.adjacency()));
        assert_eq!(t, twin);
        assert_eq!(
            twin.shortest_path(TrapId(0), TrapId(15)),
            t.shortest_path(TrapId(0), TrapId(15))
        );
    }
}
