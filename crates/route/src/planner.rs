//! The route planner: multi-segment routes over the live machine state,
//! priced with min-cost max-flow.

use crate::policy::RouterPolicy;
use qccd_flow::{min_cost_unit_path, BfsScratch, FlowNetwork};
use qccd_machine::{MachineState, TrapId, TrapTopology};

/// Per-segment congestion surcharge cap. Loads are clamped here so the
/// surcharge can only break ties between routes of equal hop count, never
/// lengthen a route (hop costs are scaled to dominate any load sum).
const LOAD_CAP: u32 = 15;

/// Decaying usage counters per directed shuttle segment, kept by the
/// [`RoutePlanner`] across a compile as the congestion price of each edge.
///
/// Counters saturate at an internal cap and halve on every [`decay`]
/// (called once per executed gate), so only *recent* traffic is priced.
/// There is one counter per directed segment, in the planner's segment
/// order (trap by trap, neighbours in topology order), plus the list of
/// nonzero ones: a counter is 0 after four halvings from its cap, so
/// [`decay`] touches a handful of counters, not the whole machine.
/// Everything is deterministic.
///
/// [`decay`]: EdgeLoad::decay
#[derive(Debug, Clone)]
struct EdgeLoad {
    /// Trap `t`'s outgoing segments are `heads[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
    heads: Vec<TrapId>,
    counts: Vec<u32>,
    /// Segments with a nonzero counter, each once.
    hot: Vec<usize>,
}

impl EdgeLoad {
    /// A zero-load table over `topology`'s directed segments.
    fn new(topology: &TrapTopology) -> Self {
        let mut offsets = vec![0];
        let mut heads = Vec::new();
        for t in topology.traps() {
            heads.extend(topology.neighbors(t));
            offsets.push(heads.len());
        }
        EdgeLoad {
            offsets,
            counts: vec![0; heads.len()],
            heads,
            hot: Vec::new(),
        }
    }

    /// The segment index of `from → to`, if that is a segment.
    fn segment(&self, from: TrapId, to: TrapId) -> Option<usize> {
        let lo = *self.offsets.get(from.index())?;
        let hi = *self.offsets.get(from.index() + 1)?;
        let k = self.heads[lo..hi].iter().position(|&h| h == to)?;
        Some(lo + k)
    }

    /// Records one shuttle traversing `from → to`.
    fn record(&mut self, from: TrapId, to: TrapId) {
        if let Some(k) = self.segment(from, to) {
            if self.counts[k] == 0 {
                self.hot.push(k);
            }
            self.counts[k] = (self.counts[k] + 1).min(LOAD_CAP);
        }
    }

    /// Current surcharge for `from → to`, in `[0, LOAD_CAP]` (0 off the
    /// topology's segments).
    #[cfg(test)]
    fn load(&self, from: TrapId, to: TrapId) -> u32 {
        self.segment(from, to).map_or(0, |k| self.counts[k])
    }

    /// Halves every counter.
    fn decay(&mut self) {
        let counts = &mut self.counts;
        self.hot.retain(|&k| {
            counts[k] /= 2;
            counts[k] > 0
        });
    }
}

/// One planned multi-segment route for one ion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedRoute {
    /// Trap path `from ..= dest`, inclusive.
    pub path: Vec<TrapId>,
    /// Number of *full* interior traps on the path at plan time — each one
    /// will force a re-balancing eviction when the ion reaches it.
    pub full_interior_traps: usize,
}

impl PlannedRoute {
    /// Hop count of the route.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    fn from_path(state: &MachineState, path: Vec<TrapId>) -> Self {
        let full = if path.len() > 2 {
            path[1..path.len() - 1]
                .iter()
                .filter(|&&t| state.is_full(t))
                .count()
        } else {
            0
        };
        PlannedRoute {
            path,
            full_interior_traps: full,
        }
    }
}

/// The hop budget for moving one ion from `from` to `dest` — the planner's
/// routed-path-length bound that replaces the old ad-hoc
/// `4 × traps + 8` bail-out. The budget is the planned distance plus
/// `2 × traps + 4` slack for re-routes (in the worst case every trap fills
/// up once mid-route and forces one re-plan). Exceeding it means routing
/// cannot make progress and the compiler reports
/// `RouteExhausted` instead of silently capping.
///
/// Returns `None` when `dest` is unreachable from `from`.
pub fn route_budget(topology: &TrapTopology, from: TrapId, dest: TrapId) -> Option<u32> {
    topology
        .distance(from, dest)
        .map(|d| d + 2 * topology.num_traps() + 4)
}

/// Per-segment weight hook for the priced planner: the relative cost of
/// traversing `from → to`, in abstract units (values below 1 count as 1).
/// [`RoutePlanner::with_weights`] evaluates it once per directed segment;
/// [`RoutePlanner::new`] (or a hook returning 1 everywhere) is unit-hop
/// pricing. A timed-objective compiler passes the timing model's relative
/// hop durations here so junction-heavy segments price by what the
/// hardware actually pays. Weights are scaled above the congestion
/// surcharge, so the cost order is: cheapest weighted distance
/// (+ eviction penalties) first, colder edges second.
pub type EdgeWeightFn<'a> = dyn Fn(TrapId, TrapId) -> u32 + 'a;

/// The route planner of one compile: the decaying edge-load counters,
/// the segment weights, and one priced node-split flow network, all built
/// once from the topology.
///
/// Nodes `2t` / `2t+1` are trap `t`'s in/out halves, joined by an internal
/// edge of capacity 1 (so routes are simple paths) that carries the
/// full-trap penalty; each physical segment `a → b` is an edge
/// `2a+1 → 2b`. Node `2n` is a super-source with a closed entry edge into
/// every trap's in-half, and node `2n+1` a super-sink with a closed exit
/// edge out of every trap's out-half. Edges are inserted trap by trap
/// (internal edge, then segments in neighbour order), then all exits,
/// then all entries.
///
/// Every call re-prices the internal and segment edges from the live
/// state, the weights and the loads, and opens only the entries and exits
/// it needs, through [`FlowNetwork::set_edge`]; that also clears the
/// previous call's flow.
/// A closed (capacity-0) edge is never relaxed, so each solve searches
/// exactly like a network freshly built with only the open edges, in the
/// same order — the same FIFO shortest-path search, the same tie-breaks,
/// the same routes — without a single allocation for the network.
#[derive(Debug, Clone)]
pub struct RoutePlanner {
    load: EdgeLoad,
    net: FlowNetwork,
    /// Trap `t`'s internal edge `2t → 2t+1`.
    internal: Vec<usize>,
    /// Every segment edge, in the load table's segment order.
    segments: Vec<usize>,
    /// Each segment's weight (≥ 1), in the same order.
    weights: Vec<u32>,
    /// Trap `t`'s closed exit `2t+1 → 2n+1`.
    exits: Vec<usize>,
    /// Trap `t`'s closed entry `2n → 2t`.
    entries: Vec<usize>,
    /// Cost of one unit-weight hop: above any possible load sum, so cost
    /// order is fewer `hops + penalty × full traps` first, colder edges
    /// second.
    hop_scale: i64,
    /// Buffers of the filtered BFS behind a blocked memoized tree path.
    scratch: BfsScratch,
}

impl RoutePlanner {
    /// A planner with zero loads and unit segment weights over
    /// `topology`.
    pub fn new(topology: &TrapTopology) -> Self {
        Self::with_weights(topology, &|_, _| 1)
    }

    /// A planner with zero loads over `topology` whose segments are
    /// priced by `weight` (see [`EdgeWeightFn`]), evaluated once per
    /// directed segment here and never again.
    pub fn with_weights(topology: &TrapTopology, weight: &EdgeWeightFn) -> Self {
        let n = topology.num_traps() as usize;
        let mut net = FlowNetwork::new(2 * n + 2);
        let mut internal = Vec::with_capacity(n);
        let mut segments = Vec::new();
        let mut weights = Vec::new();
        for t in topology.traps() {
            internal.push(net.add_edge(2 * t.index(), 2 * t.index() + 1, 0, 0));
            for nb in topology.neighbors(t) {
                segments.push(net.add_edge(2 * t.index() + 1, 2 * nb.index(), 0, 0));
                weights.push(weight(t, nb).max(1));
            }
        }
        let exits = (0..n)
            .map(|t| net.add_edge(2 * t + 1, 2 * n + 1, 0, 0))
            .collect();
        let entries = (0..n).map(|t| net.add_edge(2 * n, 2 * t, 0, 0)).collect();
        RoutePlanner {
            load: EdgeLoad::new(topology),
            net,
            internal,
            segments,
            weights,
            exits,
            entries,
            // Any load sum is < n * (LOAD_CAP + 1); scale hop costs above it.
            hop_scale: (n as i64 + 1) * i64::from(LOAD_CAP + 1),
            scratch: BfsScratch::default(),
        }
    }

    /// Records one shuttle traversing `from → to` in the congestion loads.
    pub fn record(&mut self, from: TrapId, to: TrapId) {
        self.load.record(from, to);
    }

    /// Halves every load counter — call once per executed gate so only
    /// recent traffic is priced.
    pub fn decay(&mut self) {
        self.load.decay();
    }

    /// The weight of the segment `from → to` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `from → to` is not a segment of the topology.
    pub fn weight(&self, from: TrapId, to: TrapId) -> u32 {
        let k = self.load.segment(from, to);
        self.weights[k.expect("weights exist only for segments")]
    }

    /// Plans a route for one ion currently in `from` toward `dest` over the
    /// live `state`.
    ///
    /// * [`RouterPolicy::Serial`] — the paper executor's choice: the
    ///   shortest path whose interior traps all have room, falling back to
    ///   the unconditional shortest path (whose full traps the caller
    ///   re-balances).
    /// * [`RouterPolicy::Congestion`] — min-cost flow pricing over the
    ///   node-split network: every segment costs its weight (one hop
    ///   unless built [`with_weights`](Self::with_weights)) plus the load
    ///   surcharge, and a full interior trap costs `full_trap_penalty`
    ///   extra hops. The cheapest route
    ///   wins; hop count strictly dominates the surcharge, so congestion
    ///   only arbitrates between otherwise-equal routes, and a full-free
    ///   detour is taken only while it beats evicting through the full
    ///   trap. Only this policy consumes the weights — the serial policy
    ///   is the paper's executor and stays BFS-shortest by hop count.
    ///
    /// Returns `None` when `dest` is unreachable.
    pub fn plan_route(
        &mut self,
        policy: RouterPolicy,
        state: &MachineState,
        from: TrapId,
        dest: TrapId,
    ) -> Option<PlannedRoute> {
        let topology = state.spec().topology();
        if from == dest {
            return Some(PlannedRoute {
                path: vec![from],
                full_interior_traps: 0,
            });
        }
        let filtered = |t| t == dest || !state.is_full(t);
        match policy {
            RouterPolicy::Serial => topology
                .shortest_path_filtered(from, dest, filtered)
                .or_else(|| topology.shortest_path(from, dest))
                .map(|p| PlannedRoute::from_path(state, p)),
            RouterPolicy::Congestion { full_trap_penalty } => {
                if self.free_first_hop(state, from, dest).is_none() {
                    // Every route needs evictions: walk the serial router's
                    // eviction path so the two routers share eviction
                    // behavior.
                    return topology
                        .shortest_path(from, dest)
                        .map(|p| PlannedRoute::from_path(state, p));
                }
                match self.priced_route(state, from, dest, full_trap_penalty) {
                    Some(priced) => Some(priced),
                    // The flow found no route (cannot happen while BFS
                    // did; be safe): fall back to the full-free detour.
                    None => topology
                        .shortest_path_filtered(from, dest, filtered)
                        .map(|p| PlannedRoute::from_path(state, p)),
                }
            }
        }
    }

    /// The first trap after `from` on the route [`plan_route`] plans
    /// toward `dest`, or `None` when there is none (`from == dest`, or
    /// `dest` unreachable).
    ///
    /// The serial router takes it from the memoized BFS rows without
    /// building the route: the first hop of the full-free tree path, of
    /// the filtered BFS when that path is blocked, else of the
    /// unconditional tree path. A warm serial query allocates nothing.
    /// The congestion router prices the whole route as [`plan_route`] does.
    ///
    /// [`plan_route`]: RoutePlanner::plan_route
    pub fn next_hop(
        &mut self,
        policy: RouterPolicy,
        state: &MachineState,
        from: TrapId,
        dest: TrapId,
    ) -> Option<TrapId> {
        match policy {
            RouterPolicy::Serial => {
                let graph = state.spec().topology().adjacency();
                self.free_first_hop(state, from, dest).or_else(|| {
                    graph
                        .first_hop_filtered(from.index(), dest.index(), |_| true, &mut self.scratch)
                        .map(|t| TrapId(t as u32))
                })
            }
            RouterPolicy::Congestion { .. } => self
                .plan_route(policy, state, from, dest)?
                .path
                .get(1)
                .copied(),
        }
    }

    /// The first hop of the shortest path from `from` to `dest` whose
    /// interior traps all have room, without building the path.
    fn free_first_hop(
        &mut self,
        state: &MachineState,
        from: TrapId,
        dest: TrapId,
    ) -> Option<TrapId> {
        let graph = state.spec().topology().adjacency();
        let free = |t: usize| !state.is_full(TrapId(t as u32));
        graph
            .first_hop_filtered(from.index(), dest.index(), free, &mut self.scratch)
            .map(|t| TrapId(t as u32))
    }

    /// Plans a re-balancing eviction out of the full trap `blocked` under
    /// the congestion policy: the destination *and* the route are chosen
    /// together on the same priced network [`plan_route`] uses, instead of
    /// the paper's nearest-slot policy followed by an unpriced shortest
    /// path.
    ///
    /// Every trap with excess capacity (other than `blocked` and the traps
    /// in `avoid`) is a candidate sink; each physical segment costs its
    /// weight plus its load surcharge, and crossing a *full* interior trap
    /// costs `full_trap_penalty` extra hops. Hop count strictly dominates
    /// the surcharge, so the destination is still a nearest non-full trap —
    /// but ties break toward cold corridors and routes never thread a full
    /// trap when an equal-cost detour exists. The clock-objective compiler
    /// builds the planner with timed weights, steering re-balancing traffic
    /// away from junction-heavy corridors that cost more device time than
    /// their hop count suggests.
    ///
    /// Returns the chosen destination and the inclusive trap path
    /// `blocked ..= destination`, or `None` when no candidate is reachable.
    ///
    /// [`plan_route`]: RoutePlanner::plan_route
    pub fn plan_eviction(
        &mut self,
        state: &MachineState,
        blocked: TrapId,
        avoid: &[TrapId],
        full_trap_penalty: u32,
    ) -> Option<(TrapId, Vec<TrapId>)> {
        let _phase = qccd_obs::span("route-plan");
        self.price(state, full_trap_penalty, |t| t != blocked);
        let mut candidates = 0usize;
        for t in state.spec().topology().traps() {
            if t != blocked && !avoid.contains(&t) && !state.is_full(t) {
                self.net.set_edge(self.exits[t.index()], 1, 0);
                candidates += 1;
            }
        }
        if candidates == 0 {
            return None;
        }
        self.net.set_edge(self.entries[blocked.index()], 1, 0);
        let n = self.internal.len();
        // The trap the unit exits to the super-sink from is the destination.
        let path = trap_path(&min_cost_unit_path(&mut self.net, 2 * n, 2 * n + 1)?, n);
        Some((*path.last()?, path))
    }

    /// Minimum-cost route from `from` to `dest`; full traps at the route's
    /// own endpoints are exempt from the eviction penalty.
    fn priced_route(
        &mut self,
        state: &MachineState,
        from: TrapId,
        dest: TrapId,
        full_trap_penalty: u32,
    ) -> Option<PlannedRoute> {
        let _phase = qccd_obs::span("route-plan");
        self.price(state, full_trap_penalty, |t| t != from && t != dest);
        self.net.set_edge(self.entries[from.index()], 1, 0);
        let n = self.internal.len();
        let nodes = min_cost_unit_path(&mut self.net, 2 * n, 2 * dest.index() + 1)?;
        Some(PlannedRoute::from_path(state, trap_path(&nodes, n)))
    }

    /// Re-prices every internal and segment edge from `state` and the
    /// loads, and closes every entry and exit. The internal edge of a full
    /// trap costs the penalty when `penalized(t)`; each segment costs
    /// `weight × hop_scale + load`.
    fn price(
        &mut self,
        state: &MachineState,
        full_trap_penalty: u32,
        penalized: impl Fn(TrapId) -> bool,
    ) {
        debug_assert_eq!(state.spec().num_traps() as usize, self.internal.len());
        for (t, &id) in self.internal.iter().enumerate() {
            let t = TrapId(t as u32);
            let cost = if penalized(t) && state.is_full(t) {
                i64::from(full_trap_penalty) * self.hop_scale
            } else {
                0
            };
            self.net.set_edge(id, 1, cost);
        }
        // `segments`, `weights` and the load table list segments in the
        // same order.
        for (k, &id) in self.segments.iter().enumerate() {
            let cost = i64::from(self.weights[k]) * self.hop_scale + i64::from(self.load.counts[k]);
            self.net.set_edge(id, 1, cost);
        }
        for &id in self.exits.iter().chain(&self.entries) {
            self.net.set_edge(id, 0, 0);
        }
    }
}

/// The trap path spelled by a unit path through the planner's network:
/// the out-halves it passes, in order (the super-nodes sit at `2n` and
/// above).
fn trap_path(nodes: &[usize], n: usize) -> Vec<TrapId> {
    nodes
        .iter()
        .filter(|&&v| v % 2 == 1 && v < 2 * n)
        .map(|&v| TrapId((v / 2) as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::{InitialMapping, MachineSpec, TrapTopology};

    /// Ring of `n` traps, capacity 3/comm 1, with the given occupancies.
    fn ring_state(n: u32, occupancy: &[u32]) -> MachineState {
        let spec = MachineSpec::new(TrapTopology::ring(n), 3, 1).unwrap();
        let mut traps = Vec::new();
        for (t, &occ) in occupancy.iter().enumerate() {
            for _ in 0..occ.min(2) {
                traps.push(TrapId(t as u32));
            }
        }
        let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
        let mut state = MachineState::with_mapping(&spec, &mapping).unwrap();
        // Top up traps that need to be genuinely full (occupancy 3 >
        // initial capacity 2) by shuttling an ion in from the next trap
        // over; the donor's exact occupancy does not matter to the tests.
        for (t, &occ) in occupancy.iter().enumerate() {
            if occ >= 3 {
                let nb = TrapId(((t + 1) % n as usize) as u32);
                let spare = state.chain(nb)[0];
                state.shuttle(spare, TrapId(t as u32)).unwrap();
            }
        }
        state
    }

    fn planner(state: &MachineState) -> RoutePlanner {
        RoutePlanner::new(state.spec().topology())
    }

    fn route(
        planner: &mut RoutePlanner,
        policy: RouterPolicy,
        state: &MachineState,
        from: u32,
        dest: u32,
    ) -> Option<PlannedRoute> {
        planner.plan_route(policy, state, TrapId(from), TrapId(dest))
    }

    #[test]
    fn serial_prefers_full_free_detour() {
        // Ring of 6; trap 1 full; 0 → 2 must go the long way for serial.
        let state = ring_state(6, &[1, 3, 1, 1, 1, 1]);
        assert!(state.is_full(TrapId(1)));
        let r = route(&mut planner(&state), RouterPolicy::Serial, &state, 0, 2).unwrap();
        assert_eq!(r.hops(), 4, "0-5-4-3-2 around the full trap");
        assert_eq!(r.full_interior_traps, 0);
    }

    #[test]
    fn congestion_matches_serial_on_cheap_detours() {
        // Detour excess (2 hops) is far below the penalty (6): both
        // routers detour, and the planner reports no eviction needed.
        let state = ring_state(6, &[1, 3, 1, 1, 1, 1]);
        let r = route(
            &mut planner(&state),
            RouterPolicy::congestion(),
            &state,
            0,
            2,
        )
        .unwrap();
        assert_eq!(r.hops(), 4);
        assert_eq!(r.full_interior_traps, 0);
    }

    #[test]
    fn congestion_evicts_through_full_trap_when_detour_is_too_long() {
        // Ring of 16; trap 1 full; 0 → 2. The detour costs 14 hops, the
        // pass-through 2 hops + penalty 6 = 8: the congestion router
        // crosses the full trap (one eviction) where serial would walk the
        // 14-hop detour.
        let mut occ = vec![1u32; 16];
        occ[1] = 3;
        let state = ring_state(16, &occ);
        assert!(state.is_full(TrapId(1)));
        let mut p = planner(&state);
        let serial = route(&mut p, RouterPolicy::Serial, &state, 0, 2).unwrap();
        assert_eq!(serial.hops(), 14);
        let congestion = route(&mut p, RouterPolicy::congestion(), &state, 0, 2).unwrap();
        assert_eq!(congestion.hops(), 2, "pass through the full trap");
        assert_eq!(congestion.full_interior_traps, 1);
    }

    #[test]
    fn load_breaks_ties_toward_cold_edges() {
        // Ring of 6, nobody full: 0 → 3 has two 3-hop routes. Heat the
        // clockwise first segment; the planner must take the other one.
        let state = ring_state(6, &[1, 1, 1, 1, 1, 1]);
        let mut p = planner(&state);
        p.record(TrapId(0), TrapId(1));
        let r = route(&mut p, RouterPolicy::congestion(), &state, 0, 3).unwrap();
        assert_eq!(r.hops(), 3);
        assert_eq!(r.path[1], TrapId(5), "cold counter-clockwise route");
    }

    #[test]
    fn load_never_lengthens_a_route() {
        // Saturate every edge of the short route: the planner still takes
        // it because hop count dominates the surcharge.
        let state = ring_state(6, &[1, 1, 1, 1, 1, 1]);
        let mut p = planner(&state);
        for _ in 0..100 {
            p.record(TrapId(0), TrapId(1));
            p.record(TrapId(1), TrapId(2));
        }
        let r = route(&mut p, RouterPolicy::congestion(), &state, 0, 2).unwrap();
        assert_eq!(r.hops(), 2, "hot 2-hop route still beats a 4-hop one");
    }

    #[test]
    fn edge_weights_reroute_around_expensive_segments() {
        // Ring of 6, 0 → 3: two 3-hop routes. Weighting the clockwise
        // first segment 4x (a junction-priced corridor) must push the
        // planner counter-clockwise even with zero congestion — and a
        // unit-weight hook must reproduce the unweighted choice exactly.
        let state = ring_state(6, &[1, 1, 1, 1, 1, 1]);
        let heavy = |a: TrapId, b: TrapId| -> u32 {
            if (a, b) == (TrapId(0), TrapId(1)) || (a, b) == (TrapId(1), TrapId(0)) {
                4
            } else {
                1
            }
        };
        let topology = state.spec().topology();
        let mut p = RoutePlanner::with_weights(topology, &heavy);
        assert_eq!(p.weight(TrapId(1), TrapId(0)), 4);
        assert_eq!(p.weight(TrapId(1), TrapId(2)), 1);
        let policy = RouterPolicy::congestion();
        let r = route(&mut p, policy, &state, 0, 3).unwrap();
        assert_eq!(r.hops(), 3);
        assert_eq!(r.path[1], TrapId(5), "weighted route avoids the 4x edge");
        let mut unitized = RoutePlanner::with_weights(topology, &|_, _| 0);
        assert_eq!(
            route(&mut planner(&state), policy, &state, 0, 3),
            route(&mut unitized, policy, &state, 0, 3),
            "unit weights (and weights below 1) reproduce unweighted pricing"
        );
    }

    #[test]
    fn edge_load_decays_and_saturates() {
        let mut load = EdgeLoad::new(&TrapTopology::linear(3));
        for _ in 0..100 {
            load.record(TrapId(0), TrapId(1));
        }
        assert_eq!(load.load(TrapId(0), TrapId(1)), LOAD_CAP);
        load.decay();
        assert_eq!(load.load(TrapId(0), TrapId(1)), LOAD_CAP / 2);
        assert_eq!(load.load(TrapId(1), TrapId(0)), 0);
    }

    #[test]
    fn priced_eviction_picks_nearest_candidate_and_cold_route() {
        // Ring of 6, trap 0 full: both neighbours are 1 hop away. Heating
        // the 0→1 segment must steer the eviction to trap 5.
        let state = ring_state(6, &[3, 1, 1, 1, 1, 1]);
        assert!(state.is_full(TrapId(0)));
        let mut p = planner(&state);
        p.record(TrapId(0), TrapId(1));
        let (dest, route) = p.plan_eviction(&state, TrapId(0), &[], 6).unwrap();
        assert_eq!(dest, TrapId(5), "cold neighbour wins the tie");
        assert_eq!(route, vec![TrapId(0), TrapId(5)]);
    }

    #[test]
    fn priced_eviction_respects_avoid_and_detours_around_full_traps() {
        // Ring of 8 with comm capacity 0 so traps 0 and 1 start genuinely
        // full; trap 7 is on the avoid list. Clockwise candidates sit
        // behind full trap 1 (2 hops + penalty 6); counter-clockwise,
        // trap 6 is 2 clean hops away *through* avoided trap 7 — avoid
        // only vetoes destinations, not interior crossings.
        let spec = MachineSpec::new(TrapTopology::ring(8), 2, 0).unwrap();
        let mut traps = vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)];
        traps.extend((2..8).map(TrapId));
        let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        assert!(state.is_full(TrapId(0)) && state.is_full(TrapId(1)));
        let mut p = planner(&state);
        let (dest, route) = p.plan_eviction(&state, TrapId(0), &[TrapId(7)], 6).unwrap();
        assert_eq!(dest, TrapId(6));
        assert_eq!(route, vec![TrapId(0), TrapId(7), TrapId(6)]);
        // No candidate at all: every other trap avoided.
        let all: Vec<TrapId> = (1..8).map(TrapId).collect();
        assert_eq!(p.plan_eviction(&state, TrapId(0), &all, 6), None);
    }

    #[test]
    fn budget_exceeds_distance() {
        let topo = TrapTopology::linear(6);
        assert_eq!(route_budget(&topo, TrapId(0), TrapId(5)), Some(5 + 12 + 4));
        let disconnected = TrapTopology::try_custom(3, &[(0, 1)]).unwrap();
        assert_eq!(route_budget(&disconnected, TrapId(0), TrapId(2)), None);
    }

    #[test]
    fn unreachable_destination_returns_none() {
        let spec = MachineSpec::new(TrapTopology::try_custom(3, &[(0, 1)]).unwrap(), 3, 1).unwrap();
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(0)]).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let mut p = planner(&state);
        for policy in [RouterPolicy::Serial, RouterPolicy::congestion()] {
            assert_eq!(route(&mut p, policy, &state, 0, 2), None);
        }
        // Trivial route: already there.
        let r = route(&mut p, RouterPolicy::Serial, &state, 0, 0).unwrap();
        assert_eq!(r.hops(), 0);
    }
}

/// The planner as it was before [`RoutePlanner`] kept one network and one
/// weight table per compile: every call builds its own priced network,
/// with only the super-edges that call needs, calling the weight hook for
/// every segment. The reused planner must agree with it on every call.
#[cfg(test)]
mod reference {
    use super::*;

    fn priced_network(
        state: &MachineState,
        load: &EdgeLoad,
        full_trap_penalty: u32,
        penalized: impl Fn(TrapId) -> bool,
        extra: usize,
        weight: Option<&EdgeWeightFn>,
    ) -> FlowNetwork {
        let topology = state.spec().topology();
        let n = topology.num_traps() as usize;
        let hop_scale = (n as i64 + 1) * i64::from(LOAD_CAP + 1);
        let mut net = FlowNetwork::new(2 * n + 1 + extra);
        for t in topology.traps() {
            let cost = if penalized(t) && state.is_full(t) {
                i64::from(full_trap_penalty) * hop_scale
            } else {
                0
            };
            net.add_edge(2 * t.index(), 2 * t.index() + 1, 1, cost);
            for nb in topology.neighbors(t) {
                let units = weight.map_or(1, |w| i64::from(w(t, nb).max(1)));
                let cost = units * hop_scale + i64::from(load.load(t, nb));
                net.add_edge(2 * t.index() + 1, 2 * nb.index(), 1, cost);
            }
        }
        net
    }

    pub(super) fn plan_route(
        policy: RouterPolicy,
        state: &MachineState,
        from: TrapId,
        dest: TrapId,
        load: &EdgeLoad,
        weight: Option<&EdgeWeightFn>,
    ) -> Option<PlannedRoute> {
        let topology = state.spec().topology();
        if from == dest {
            return Some(PlannedRoute {
                path: vec![from],
                full_interior_traps: 0,
            });
        }
        let filtered =
            topology.shortest_path_filtered(from, dest, |t| t == dest || !state.is_full(t));
        match policy {
            RouterPolicy::Serial => filtered
                .or_else(|| topology.shortest_path(from, dest))
                .map(|p| PlannedRoute::from_path(state, p)),
            RouterPolicy::Congestion { full_trap_penalty } => {
                let Some(filtered) = filtered else {
                    return topology
                        .shortest_path(from, dest)
                        .map(|p| PlannedRoute::from_path(state, p));
                };
                let n = topology.num_traps() as usize;
                let penalized = |t| t != from && t != dest;
                let mut net = priced_network(state, load, full_trap_penalty, penalized, 0, weight);
                net.add_edge(2 * n, 2 * from.index(), 1, 0);
                match min_cost_unit_path(&mut net, 2 * n, 2 * dest.index() + 1) {
                    Some(nodes) => Some(PlannedRoute::from_path(state, trap_path(&nodes, n))),
                    None => Some(PlannedRoute::from_path(state, filtered)),
                }
            }
        }
    }

    pub(super) fn plan_eviction(
        state: &MachineState,
        blocked: TrapId,
        avoid: &[TrapId],
        load: &EdgeLoad,
        full_trap_penalty: u32,
        weight: Option<&EdgeWeightFn>,
    ) -> Option<(TrapId, Vec<TrapId>)> {
        let topology = state.spec().topology();
        let n = topology.num_traps() as usize;
        let sink = 2 * n + 1;
        let mut net = priced_network(state, load, full_trap_penalty, |t| t != blocked, 1, weight);
        let mut candidates = 0usize;
        for t in topology.traps() {
            if t != blocked && !avoid.contains(&t) && !state.is_full(t) {
                net.add_edge(2 * t.index() + 1, sink, 1, 0);
                candidates += 1;
            }
        }
        if candidates == 0 {
            return None;
        }
        net.add_edge(2 * n, 2 * blocked.index(), 1, 0);
        let path = trap_path(&min_cost_unit_path(&mut net, 2 * n, sink)?, n);
        Some((*path.last()?, path))
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use qccd_machine::{InitialMapping, MachineSpec};

    /// One step of a random planner session.
    #[derive(Debug, Clone)]
    enum Step {
        /// Shuttle the `ion`-th ion (mod ion count) one hop toward the
        /// `nb`-th neighbour of its trap, if that trap has room.
        Shuttle {
            ion: usize,
            nb: usize,
        },
        /// Record traffic on the `nb`-th segment out of trap `trap`.
        Record {
            trap: usize,
            nb: usize,
        },
        Decay,
        /// Plan a route between two traps under `policy`.
        Route {
            from: usize,
            dest: usize,
            policy: u32,
        },
        /// Plan an eviction out of `blocked`, avoiding a bitmask of traps.
        Evict {
            blocked: usize,
            avoid: u64,
        },
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (0usize..64, 0usize..4).prop_map(|(ion, nb)| Step::Shuttle { ion, nb }),
            (0usize..64, 0usize..4).prop_map(|(trap, nb)| Step::Record { trap, nb }),
            Just(Step::Decay),
            (0usize..64, 0usize..64, 0u32..4).prop_map(|(from, dest, policy)| Step::Route {
                from,
                dest,
                policy
            }),
            (0usize..64, any::<u64>()).prop_map(|(blocked, avoid)| Step::Evict { blocked, avoid }),
        ]
    }

    fn topology(kind: u32, size: u32) -> TrapTopology {
        match kind {
            0 => TrapTopology::linear(size),
            1 => TrapTopology::ring(size.max(3)),
            2 => TrapTopology::grid(2, size.div_ceil(2).max(2)),
            // Disconnected: two separate lines, so routes can be `None`.
            _ => {
                let edges: Vec<(u32, u32)> = (0..size)
                    .filter(|&a| a + 1 < size && a + 1 != size / 2)
                    .map(|a| (a, a + 1))
                    .collect();
                TrapTopology::try_custom(size, &edges).unwrap()
            }
        }
    }

    /// The dense `traps × traps` table the per-segment counters replaced,
    /// kept as the oracle.
    struct DenseLoad {
        n: usize,
        counts: Vec<u32>,
    }

    impl DenseLoad {
        fn record(&mut self, from: TrapId, to: TrapId) {
            if from.index() < self.n && to.index() < self.n {
                let c = &mut self.counts[from.index() * self.n + to.index()];
                *c = (*c + 1).min(LOAD_CAP);
            }
        }

        fn load(&self, from: TrapId, to: TrapId) -> u32 {
            self.counts[from.index() * self.n + to.index()]
        }

        fn decay(&mut self) {
            for c in &mut self.counts {
                *c /= 2;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random record/decay sequences: every directed segment reads the
        /// dense table's load after every step, records of non-segment
        /// pairs (the planner prices only segments) change nothing, and
        /// the nonzero list names exactly the nonzero counters.
        #[test]
        fn edge_load_matches_dense_table(
            kind in 0u32..4,
            size in 3u32..9,
            ops in proptest::collection::vec((0u32..4, 0u32..10, 0u32..10), 1..200),
        ) {
            let topo = topology(kind, size);
            let n = topo.num_traps() as usize;
            let mut load = EdgeLoad::new(&topo);
            let mut dense = DenseLoad { n, counts: vec![0; n * n] };
            for (op, a, b) in ops {
                let (a, b) = (TrapId(a), TrapId(b));
                if op == 0 {
                    load.decay();
                    dense.decay();
                } else {
                    load.record(a, b);
                    dense.record(a, b);
                }
                for t in topo.traps() {
                    for nb in topo.neighbors(t) {
                        prop_assert_eq!(load.load(t, nb), dense.load(t, nb));
                    }
                    for u in topo.traps() {
                        if !topo.are_adjacent(t, u) {
                            prop_assert_eq!(load.load(t, u), 0);
                        }
                    }
                }
                let mut hot = load.hot.clone();
                hot.sort_unstable();
                let nonzero: Vec<usize> =
                    (0..load.counts.len()).filter(|&k| load.counts[k] > 0).collect();
                prop_assert_eq!(hot, nonzero);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The first hop the compile loop takes is the second trap of the
        /// planned route, under both routers, on every topology kind and
        /// random per-trap fullness, as ions move and loads change.
        #[test]
        fn next_hop_is_the_planned_route_s_second_trap(
            kind in 0u32..4,
            size in 3u32..9,
            cap in 1u32..4,
            fill in proptest::collection::vec(0u32..4, 8..9),
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let topo = topology(kind, size);
            let n = topo.num_traps();
            // Comm capacity 0: a trap holding `cap` ions is full.
            let spec = MachineSpec::new(topo, cap, 0).unwrap();
            let traps: Vec<TrapId> = (0..n)
                .flat_map(|t| std::iter::repeat_n(TrapId(t), (fill[t as usize] % (cap + 1)) as usize))
                .collect();
            let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
            let mut state = MachineState::with_mapping(&spec, &mapping).unwrap();
            let ions = mapping.num_ions() as usize;
            let mut planner = RoutePlanner::new(spec.topology());
            let trap = |i: usize| TrapId((i % n as usize) as u32);
            for s in steps {
                match s {
                    Step::Shuttle { ion, nb } if ions > 0 => {
                        let ion = qccd_machine::IonId((ion % ions) as u32);
                        let nbs = spec.topology().neighbors(state.trap_of(ion));
                        if let Some(&to) = nbs.get(nb % nbs.len().max(1)) {
                            if !state.is_full(to) {
                                state.shuttle(ion, to).unwrap();
                            }
                        }
                    }
                    Step::Record { trap: t, nb } => {
                        let nbs = spec.topology().neighbors(trap(t));
                        if let Some(&to) = nbs.get(nb % nbs.len().max(1)) {
                            planner.record(trap(t), to);
                        }
                    }
                    Step::Decay => planner.decay(),
                    Step::Route { from, dest, policy } => {
                        let policy = match policy {
                            0 | 1 => RouterPolicy::Serial,
                            p => RouterPolicy::Congestion { full_trap_penalty: 2 * p },
                        };
                        let (from, dest) = (trap(from), trap(dest));
                        let want = planner
                            .plan_route(policy, &state, from, dest)
                            .and_then(|r| r.path.get(1).copied());
                        prop_assert_eq!(planner.next_hop(policy, &state, from, dest), want);
                    }
                    Step::Shuttle { .. } | Step::Evict { .. } => {}
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn reused_planner_matches_per_call_rebuild(
            kind in 0u32..4,
            size in 3u32..9,
            cap in 2u32..4,
            weighted in any::<bool>(),
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let topo = topology(kind, size);
            let n = topo.num_traps();
            // Comm capacity 0: traps really fill, so full-trap penalties,
            // detours and evictions all get exercised.
            let spec = MachineSpec::new(topo, cap, 0).unwrap();
            // Half the traps start full.
            let traps: Vec<TrapId> = (0..n * (cap - 1) + n / 2).map(|i| TrapId(i % n)).collect();
            let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
            let mut state = MachineState::with_mapping(&spec, &mapping).unwrap();
            let ions = mapping.num_ions() as usize;
            let skew = |a: TrapId, b: TrapId| (a.0 * 3 + b.0) % 5;
            let weight: Option<&EdgeWeightFn> = if weighted { Some(&skew) } else { None };
            let mut planner = match weight {
                Some(w) => RoutePlanner::with_weights(spec.topology(), w),
                None => RoutePlanner::new(spec.topology()),
            };
            let mut load = EdgeLoad::new(spec.topology());
            let trap = |i: usize| TrapId((i % n as usize) as u32);
            let neighbour = |t: TrapId, k: usize| {
                let nbs = spec.topology().neighbors(t);
                (!nbs.is_empty()).then(|| nbs[k % nbs.len()])
            };
            for s in steps {
                match s {
                    Step::Shuttle { ion, nb } => {
                        let ion = qccd_machine::IonId((ion % ions) as u32);
                        if let Some(to) = neighbour(state.trap_of(ion), nb) {
                            if !state.is_full(to) {
                                state.shuttle(ion, to).unwrap();
                            }
                        }
                    }
                    Step::Record { trap: t, nb } => {
                        if let Some(to) = neighbour(trap(t), nb) {
                            planner.record(trap(t), to);
                            load.record(trap(t), to);
                        }
                    }
                    Step::Decay => {
                        planner.decay();
                        load.decay();
                    }
                    Step::Route { from, dest, policy } => {
                        let policy = match policy {
                            0 => RouterPolicy::Serial,
                            p => RouterPolicy::Congestion { full_trap_penalty: 2 * p },
                        };
                        let (from, dest) = (trap(from), trap(dest));
                        let got = planner.plan_route(policy, &state, from, dest);
                        let want = reference::plan_route(policy, &state, from, dest, &load, weight);
                        prop_assert_eq!(got, want);
                    }
                    Step::Evict { blocked, avoid } => {
                        let blocked = trap(blocked);
                        let avoid: Vec<TrapId> =
                            (0..n).filter(|t| avoid >> t & 1 == 1).map(TrapId).collect();
                        let got = planner.plan_eviction(&state, blocked, &avoid, 6);
                        let want = reference::plan_eviction(&state, blocked, &avoid, &load, 6, weight);
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }
}
