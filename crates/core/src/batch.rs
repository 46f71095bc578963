//! Feasibility and occupancy arithmetic for the clock objective's batched
//! layers: the component labels that tell which movers have a full-free
//! path, the exact final-occupancy test that rejects a batch before its
//! flow solve, and the sweep that serializes the routed walks into legal
//! single hops.

use qccd_flow::Adjacency;
use qccd_machine::{IonId, TrapId};

/// Label of a full trap in [`FreeComponents`].
const FULL: u32 = u32::MAX;
/// Label of a trap not yet reached by the labelling search.
const UNSEEN: u32 = u32::MAX - 1;

/// The connected components of the traps that are not full, labelled once
/// per batch in O(traps + segments), so each mover's full-free-path test
/// is a few label comparisons instead of a filtered path search.
#[derive(Debug, Clone, Default)]
pub(crate) struct FreeComponents {
    /// Each trap's component, or [`FULL`].
    label: Vec<u32>,
    /// Reused search stack.
    stack: Vec<usize>,
}

impl FreeComponents {
    /// Labels the components of `graph` restricted to the traps for which
    /// `full` is false.
    pub(crate) fn label(&mut self, graph: &Adjacency, full: impl Fn(usize) -> bool) {
        self.label.clear();
        self.label
            .extend((0..graph.len()).map(|t| if full(t) { FULL } else { UNSEEN }));
        for root in 0..graph.len() {
            if self.label[root] != UNSEEN {
                continue;
            }
            let id = root as u32;
            self.label[root] = id;
            self.stack.push(root);
            while let Some(u) = self.stack.pop() {
                for &v in graph.neighbors(u) {
                    if self.label[v] == UNSEEN {
                        self.label[v] = id;
                        self.stack.push(v);
                    }
                }
            }
        }
    }

    /// Whether `graph` has a path `from ..= to` whose interior traps are
    /// all not full, as last [`label`](Self::label)led: exactly when
    /// `shortest_path_filtered(from, to, |t| t == to || !full(t))` finds
    /// one. Either `to` neighbours `from`, or some non-full neighbour of
    /// `from` shares a component with some neighbour of `to` (a walk
    /// between them through non-full traps shortcuts to a simple path).
    pub(crate) fn connects(&self, graph: &Adjacency, from: usize, to: usize) -> bool {
        let near_to = graph.neighbors(to);
        from == to
            || graph.neighbors(from).iter().any(|&u| {
                u == to
                    || (self.label[u] != FULL
                        && near_to.iter().any(|&v| self.label[v] == self.label[u]))
            })
    }
}

/// Whether moving every walker `(from, to)` to its destination leaves some
/// trap above `capacity`: `occupancy(t) + arrivals(t) − departures(t)`
/// summed over the walkers, in i64 so capacity `u32::MAX` cannot wrap.
///
/// A legal replay of the walks ([`legalize`]) ends with every walker at
/// its destination and never overfills a trap, so `true` here means the
/// batch can never commit.
pub(crate) fn overfills(
    occupancy: impl Fn(TrapId) -> u32,
    capacity: u32,
    walkers: &[(TrapId, TrapId)],
) -> bool {
    // Net arrivals per touched trap; a batch touches at most a few dozen.
    let mut net: Vec<(TrapId, i64)> = Vec::with_capacity(2 * walkers.len());
    for &(from, to) in walkers {
        for (t, d) in [(from, -1), (to, 1)] {
            match net.iter_mut().find(|(u, _)| *u == t) {
                Some((_, n)) => *n += d,
                None => net.push((t, d)),
            }
        }
    }
    net.iter()
        .any(|&(t, n)| i64::from(occupancy(t)) + n > i64::from(capacity))
}

/// Serializes `walks` — paths of distinct ions along topology edges, each
/// starting at its ion's trap — into single hops, sweeping layer by layer:
/// each walk advances one hop per sweep where its next trap is below
/// `capacity` on the running `occupancy` array (indexed by trap). An
/// eviction-shaped interleave resolves itself this way.
///
/// Returns the hops in emission order, or `None` when a sweep makes no
/// progress (the walks cannot be serialized). On a valid walk of distinct
/// ions a full destination is the only way a hop can fail, so this emits
/// exactly what replaying the walks through `MachineState::shuttle` on a
/// scratch state would.
pub(crate) fn legalize(
    occupancy: &mut [u32],
    capacity: u32,
    walks: &[(IonId, Vec<TrapId>)],
) -> Option<Vec<(IonId, TrapId)>> {
    let mut cursor = vec![0usize; walks.len()];
    let mut emitted: Vec<(IonId, TrapId)> = Vec::new();
    loop {
        let mut progressed = false;
        let mut outstanding = false;
        for (c, (ion, path)) in walks.iter().enumerate() {
            if cursor[c] + 1 >= path.len() {
                continue;
            }
            outstanding = true;
            let (from, to) = (path[cursor[c]], path[cursor[c] + 1]);
            if occupancy[to.index()] < capacity {
                occupancy[from.index()] -= 1;
                occupancy[to.index()] += 1;
                emitted.push((*ion, to));
                cursor[c] += 1;
                progressed = true;
            }
        }
        if !outstanding {
            return Some(emitted);
        }
        if !progressed {
            return None;
        }
    }
}

/// Differential check of [`legalize`] against the clone-and-shuttle replay
/// it replaced, kept here as the oracle, plus the exactness of
/// [`overfills`].
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use qccd_machine::{InitialMapping, MachineSpec, MachineState, TrapTopology};

    /// The previous legalization: replay on a cloned `MachineState`.
    fn reference(
        state: &MachineState,
        walks: &[(IonId, Vec<TrapId>)],
    ) -> Option<Vec<(IonId, TrapId)>> {
        let mut replay = state.clone();
        let mut cursor = vec![0usize; walks.len()];
        let mut emitted: Vec<(IonId, TrapId)> = Vec::new();
        loop {
            let mut progressed = false;
            let mut outstanding = false;
            for (c, (ion, path)) in walks.iter().enumerate() {
                if cursor[c] + 1 >= path.len() {
                    continue;
                }
                outstanding = true;
                let to = path[cursor[c] + 1];
                if replay.shuttle(*ion, to).is_ok() {
                    emitted.push((*ion, to));
                    cursor[c] += 1;
                    progressed = true;
                }
            }
            if !outstanding {
                return Some(emitted);
            }
            if !progressed {
                return None;
            }
        }
    }

    /// Reads bounded draws off a pre-sampled stream.
    struct Draws<'a>(std::slice::Iter<'a, u32>);

    impl Draws<'_> {
        fn below(&mut self, n: u32) -> u32 {
            self.0.next().map_or(0, |&x| x % n.max(1))
        }
    }

    /// A small grid, ring or linear machine with random occupancies up to
    /// capacity (comm 0, so the initial mapping may fill a trap), and up
    /// to eight walks of distinct ions, each a random neighbour walk from
    /// its ion's trap.
    fn case(raw: &[u32]) -> (MachineState, Vec<(IonId, Vec<TrapId>)>) {
        let mut d = Draws(raw.iter());
        let topology = match d.below(3) {
            0 => TrapTopology::linear(2 + d.below(5)),
            1 => TrapTopology::ring(3 + d.below(4)),
            _ => TrapTopology::grid(2 + d.below(2), 2 + d.below(2)),
        };
        let capacity = 1 + d.below(4);
        let spec = MachineSpec::new(topology, capacity, 0).expect("valid spec");
        let mut trap_of = Vec::new();
        for t in 0..spec.num_traps() {
            for _ in 0..d.below(capacity + 1) {
                trap_of.push(TrapId(t));
            }
        }
        let mapping = InitialMapping::from_traps(&spec, trap_of).expect("fits");
        let state = MachineState::with_mapping(&spec, &mapping).expect("fits");
        let mut ions: Vec<u32> = (0..state.num_ions()).collect();
        let mut walks = Vec::new();
        for _ in 0..d.below(9) {
            if ions.is_empty() {
                break;
            }
            let ion = IonId(ions.swap_remove(d.below(ions.len() as u32) as usize));
            let mut path = vec![state.trap_of(ion)];
            for _ in 0..d.below(6) {
                let nbrs = spec.topology().neighbors(*path.last().expect("non-empty"));
                path.push(nbrs[d.below(nbrs.len() as u32) as usize]);
            }
            walks.push((ion, path));
        }
        (state, walks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Same hop sequence as the clone-and-shuttle replay, or both
        /// fail; and a reported overfill always means legalization fails.
        #[test]
        fn legalize_matches_replay_and_overfill_is_exact(
            raw in proptest::collection::vec(0u32..1 << 16, 96..97)
        ) {
            let (state, walks) = case(&raw);
            let spec = state.spec();
            let capacity = spec.total_capacity();
            let mut occupancy: Vec<u32> =
                spec.topology().traps().map(|t| state.occupancy(t)).collect();
            let got = legalize(&mut occupancy, capacity, &walks);
            prop_assert_eq!(&got, &reference(&state, &walks));
            let ends: Vec<(TrapId, TrapId)> = walks
                .iter()
                .map(|(_, p)| (p[0], *p.last().expect("non-empty")))
                .collect();
            if overfills(|t| state.occupancy(t), capacity, &ends) {
                prop_assert!(got.is_none(), "overfill reported but legalization succeeded");
            }
        }
    }

    /// The sampled cases cover successful interleaves, stalls the
    /// overfill test cannot see, and overfills, so the checks above are
    /// not vacuous.
    #[test]
    fn sampled_cases_hit_every_outcome() {
        let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4000 {
            let raw: Vec<u32> = (0..96)
                .map(|_| {
                    rng_state = rng_state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (rng_state >> 33) as u32
                })
                .collect();
            let (state, walks) = case(&raw);
            let capacity = state.spec().total_capacity();
            let mut occupancy: Vec<u32> = state
                .spec()
                .topology()
                .traps()
                .map(|t| state.occupancy(t))
                .collect();
            let ends: Vec<(TrapId, TrapId)> = walks
                .iter()
                .map(|(_, p)| (p[0], *p.last().expect("non-empty")))
                .collect();
            let overfill = overfills(|t| state.occupancy(t), capacity, &ends);
            let label = match legalize(&mut occupancy, capacity, &walks) {
                Some(hops) if walks.len() >= 2 && !hops.is_empty() => "legal",
                Some(_) => "trivial",
                None if overfill => "overfill",
                None => "stall",
            };
            seen.insert(label);
        }
        assert_eq!(seen.len(), 4, "outcomes hit: {seen:?}");
    }

    /// A line, ring, grid or disconnected graph (two lines) on 2–9 nodes.
    fn graph(kind: u32, size: usize) -> Adjacency {
        match kind {
            0 => Adjacency::line(size),
            1 => Adjacency::ring(size.max(3)),
            2 => Adjacency::grid(2, size.div_ceil(2).max(2)),
            _ => {
                let mut g = Adjacency::new(size);
                for a in (1..size).filter(|&a| a != size / 2) {
                    g.add_edge(a - 1, a);
                }
                g
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The component-label test agrees with the filtered path search
        /// it replaces on every ordered pair, under random trap fullness.
        #[test]
        fn component_labels_decide_full_free_paths_exactly(
            kind in 0u32..4,
            size in 2usize..10,
            full_mask in any::<u32>(),
        ) {
            let g = graph(kind, size);
            let full = |t: usize| full_mask >> t & 1 == 1;
            let mut free = FreeComponents::default();
            free.label(&g, full);
            for from in 0..g.len() {
                for to in 0..g.len() {
                    let want = g
                        .shortest_path_filtered(from, to, |t| t == to || !full(t))
                        .is_some();
                    prop_assert_eq!(free.connects(&g, from, to), want, "{} -> {}", from, to);
                }
            }
        }
    }

    /// At capacity `u32::MAX` the sum cannot wrap: nothing overfills.
    #[test]
    fn u32_max_capacity_never_overfills() {
        let walkers = [(TrapId(0), TrapId(1)), (TrapId(2), TrapId(1))];
        assert!(!overfills(|_| u32::MAX - 2, u32::MAX, &walkers));
        assert!(overfills(|_| u32::MAX - 1, u32::MAX, &walkers));
    }
}
