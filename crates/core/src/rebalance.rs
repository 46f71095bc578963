//! Trap re-balancing: destination choice, ion choice, and eviction routing.
//!
//! Baseline (§III-C1): destination search starts from trap 0; the eviction
//! route is one unit of min-cost flow over the trap topology (as in
//! QCCDSim), found by the BFS that unit-cost flow reduces to. Optimized
//! (§III-C2, Algorithm 2): nearest-neighbour-first destination, max-score
//! ion selection.

use crate::config::{IonSelection, RebalancePolicy};
use crate::remaining::{RemainingGates, SCAN_ENTRIES};
use qccd_machine::{IonId, MachineState, TrapId, TrapTopology};

/// Max-score weight on an ion's remaining gates in the destination trap
/// (§III-C2: 0.5).
const MAX_SCORE_WD: f64 = 0.5;

/// Max-score weight on an ion's remaining gates in the source trap
/// (§III-C2: 0.5).
const MAX_SCORE_WS: f64 = 0.5;

/// Picks the destination trap for an ion evicted from `blocked`.
///
/// Candidates are traps with excess capacity, excluding `blocked` itself and
/// everything in `avoid` (traps the caller is actively trying to keep space
/// in). Returns `None` when no candidate exists.
pub(crate) fn choose_destination(
    policy: RebalancePolicy,
    state: &MachineState,
    blocked: TrapId,
    avoid: &[TrapId],
) -> Option<TrapId> {
    let topology = state.spec().topology();
    let candidates = topology
        .traps()
        .filter(|&t| t != blocked && !avoid.contains(&t) && !state.is_full(t));
    match policy {
        // "the search for a destination trap always starts with T0" — the
        // first candidate in index order wins, however far away it is.
        RebalancePolicy::FromTrapZero => candidates.min_by_key(|t| t.0),
        // Algorithm 2: nearest candidate by topology distance; ties break
        // toward the lower trap index (the hash-table argmin of the paper
        // is order-dependent; index order is the deterministic choice).
        RebalancePolicy::NearestNeighbor => candidates
            .filter_map(|t| topology.distance(blocked, t).map(|d| (d, t)))
            .min_by_key(|&(d, t)| (d, t.0))
            .map(|(_, t)| t),
    }
}

/// The full *tie set* behind [`choose_destination`]: every candidate the
/// policy considers equally good, in the policy's own deterministic order
/// (the first entry is exactly what `choose_destination` returns).
///
/// Under [`RebalancePolicy::FromTrapZero`] the set is a singleton (the
/// paper's T0-first scan is total). Under
/// [`RebalancePolicy::NearestNeighbor`] it holds every non-full trap at
/// the minimal topology distance, ascending by trap index — the paper's
/// hash-table argmin is order-dependent there, i.e. the choice is *open*,
/// and the clock objective re-arbitrates it on projected makespan.
pub(crate) fn destination_candidates(
    policy: RebalancePolicy,
    state: &MachineState,
    blocked: TrapId,
    avoid: &[TrapId],
) -> Vec<TrapId> {
    let topology = state.spec().topology();
    let candidates = topology
        .traps()
        .filter(|&t| t != blocked && !avoid.contains(&t) && !state.is_full(t));
    match policy {
        RebalancePolicy::FromTrapZero => candidates.min_by_key(|t| t.0).into_iter().collect(),
        RebalancePolicy::NearestNeighbor => {
            let mut scored: Vec<(u32, TrapId)> = candidates
                .filter_map(|t| topology.distance(blocked, t).map(|d| (d, t)))
                .collect();
            scored.sort_by_key(|&(d, t)| (d, t.0));
            let Some(&(best, _)) = scored.first() else {
                return Vec::new();
            };
            scored
                .into_iter()
                .take_while(|&(d, _)| d == best)
                .map(|(_, t)| t)
                .collect()
        }
    }
}

/// Picks which ion leaves `blocked` toward `dest`.
///
/// The max-score heuristic counts each candidate ion's remaining gates
/// whose partner sits in the destination vs. the source trap (§III-C2),
/// read from the remaining-gate index's pair counts. Ions in `keep` are
/// never evicted (the scheduler protects gate operands this way).
/// Returns `None` if every ion in the trap is protected.
pub(crate) fn choose_ion(
    selection: IonSelection,
    state: &MachineState,
    remaining: &RemainingGates,
    blocked: TrapId,
    dest: TrapId,
    keep: &[IonId],
) -> Option<IonId> {
    let chain = state.chain(blocked);
    let candidates: Vec<IonId> = chain
        .iter()
        .copied()
        .filter(|i| !keep.contains(i))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    match selection {
        // Baseline: the chain-end ion is the cheapest split.
        IonSelection::ChainEnd => candidates.last().copied(),
        IonSelection::MaxScore => {
            // Remaining gates of `ion` whose partner sits in `trap`.
            let gates_with = |ion: IonId, trap: TrapId| -> u32 {
                let partners = state.chain(trap);
                SCAN_ENTRIES.add(partners.len() as u64);
                partners.iter().map(|&p| remaining.pair_count(ion, p)).sum()
            };
            let score = |ion: IonId| -> f64 {
                let (d, s) = (gates_with(ion, dest), gates_with(ion, blocked));
                let (df, sf) = (f64::from(d), f64::from(s));
                if d == s {
                    // §III-C2: equal counts shift weights to 0.49/0.51 so
                    // the score cannot be zero.
                    0.49 * df - 0.51 * sf
                } else {
                    MAX_SCORE_WD * df - MAX_SCORE_WS * sf
                }
            };
            // Highest score wins; ties break toward the chain end (cheaper
            // split), i.e. the *last* maximal candidate in chain order.
            let mut best = candidates[0];
            let mut best_score = score(best);
            for &ion in &candidates[1..] {
                let s = score(ion);
                if s >= best_score {
                    best = ion;
                    best_score = s;
                }
            }
            Some(best)
        }
    }
}

/// Computes the eviction route from `blocked` to `dest` (inclusive).
///
/// The baseline formulates the move as a unit of min-cost max-flow over the
/// trap graph (unit cost per shuttle segment), mirroring QCCDSim's MCMF
/// re-balancer. With unit costs that flow's FIFO shortest-path search is a
/// BFS visiting each trap's neighbours in topology order, which
/// [`Adjacency::shortest_path_in_insertion_order`] runs directly; its docs
/// give the argument, and its test module checks it against the flow
/// network it replaced. The optimized compiler takes the memoized BFS
/// shortest path, whose ties break toward lower trap indices. Both return
/// the same hop count — the *policy* difference the paper highlights is in
/// the destination choice.
///
/// [`Adjacency::shortest_path_in_insertion_order`]: qccd_flow::Adjacency::shortest_path_in_insertion_order
pub(crate) fn eviction_route(
    policy: RebalancePolicy,
    topology: &TrapTopology,
    blocked: TrapId,
    dest: TrapId,
) -> Option<Vec<TrapId>> {
    match policy {
        RebalancePolicy::NearestNeighbor => topology.shortest_path(blocked, dest),
        RebalancePolicy::FromTrapZero => {
            let path = topology
                .adjacency()
                .shortest_path_in_insertion_order(blocked.index(), dest.index())?;
            Some(path.into_iter().map(|t| TrapId(t as u32)).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{Circuit, Opcode, Qubit};
    use qccd_machine::{InitialMapping, MachineSpec, MachineState};

    /// Fig. 7 scenario: L6, T4 full, excess capacities
    /// T0=2, T1=1, T2=4, T3=2, T4=0, T5=5.
    fn fig7_state() -> MachineState {
        let spec = MachineSpec::linear(6, 6, 1).unwrap();
        // occupancies: 4, 5, 2, 4, 6, 1
        let occupancy = [4u32, 5, 2, 4, 6, 1];
        let mut traps = Vec::new();
        for (t, &occ) in occupancy.iter().enumerate() {
            for _ in 0..occ {
                traps.push(TrapId(t as u32));
            }
        }
        // Capacity 6, comm 1 → initial cap 5 < occupancy 6 of T4. Build with
        // a looser spec then shuttle one ion in to reach fullness.
        let mapping = {
            let mut t = traps.clone();
            // Move one of T4's ions to T5 for the initial load...
            let pos = t.iter().position(|&x| x == TrapId(4)).unwrap();
            t[pos] = TrapId(5);
            InitialMapping::from_traps(&spec, t).unwrap()
        };
        let mut state = MachineState::with_mapping(&spec, &mapping).unwrap();
        // ...then shuttle it back so T4 is genuinely full (occupancy 6).
        let ion = state.chain(TrapId(5))[0];
        state.shuttle(ion, TrapId(4)).unwrap();
        assert_eq!(state.excess_capacity(TrapId(4)), 0);
        assert_eq!(state.excess_capacity(TrapId(0)), 2);
        state
    }

    #[test]
    fn fig7_baseline_sends_to_t0() {
        let state = fig7_state();
        let dest = choose_destination(RebalancePolicy::FromTrapZero, &state, TrapId(4), &[]);
        assert_eq!(dest, Some(TrapId(0)), "baseline scans from T0");
        let route = eviction_route(
            RebalancePolicy::FromTrapZero,
            state.spec().topology(),
            TrapId(4),
            TrapId(0),
        )
        .unwrap();
        assert_eq!(route.len() - 1, 4, "4 shuttles, as Fig. 7 says");
    }

    #[test]
    fn fig7_nearest_neighbor_sends_to_t3_or_t5() {
        let state = fig7_state();
        let dest =
            choose_destination(RebalancePolicy::NearestNeighbor, &state, TrapId(4), &[]).unwrap();
        assert!(
            dest == TrapId(3) || dest == TrapId(5),
            "improved logic picks a 1-hop neighbour, got {dest}"
        );
        let route = eviction_route(
            RebalancePolicy::NearestNeighbor,
            state.spec().topology(),
            TrapId(4),
            dest,
        )
        .unwrap();
        assert_eq!(route.len() - 1, 1, "only 1 shuttle needed");
    }

    #[test]
    fn destination_candidates_expose_the_tie_set() {
        // Fig. 7: T3 and T5 are both 1 hop from blocked T4 — an open tie
        // under nearest-neighbour; the first candidate is the
        // choose_destination pick.
        let state = fig7_state();
        let ties = destination_candidates(RebalancePolicy::NearestNeighbor, &state, TrapId(4), &[]);
        assert_eq!(ties, vec![TrapId(3), TrapId(5)]);
        assert_eq!(
            choose_destination(RebalancePolicy::NearestNeighbor, &state, TrapId(4), &[]),
            Some(ties[0])
        );
        // The baseline's T0-first scan is total: a singleton.
        let t0 = destination_candidates(RebalancePolicy::FromTrapZero, &state, TrapId(4), &[]);
        assert_eq!(t0, vec![TrapId(0)]);
    }

    #[test]
    fn avoid_list_respected() {
        let state = fig7_state();
        let dest = choose_destination(
            RebalancePolicy::NearestNeighbor,
            &state,
            TrapId(4),
            &[TrapId(3), TrapId(5)],
        );
        assert_eq!(dest, Some(TrapId(2)), "next nearest after avoided traps");
    }

    #[test]
    fn no_destination_returns_none() {
        // 1-trap machine: nothing to evict to.
        let spec = MachineSpec::linear(1, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 2).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        assert_eq!(
            choose_destination(RebalancePolicy::NearestNeighbor, &state, TrapId(0), &[]),
            None
        );
    }

    #[test]
    fn chain_end_selection_skips_kept_ions() {
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 4).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let c = Circuit::new(4);
        let remaining = RemainingGates::new(&c, &c.dependency_dag(), Vec::new());
        // T0 chain = [0, 1, 2]; keep ion 2 → pick ion 1.
        let ion = choose_ion(
            IonSelection::ChainEnd,
            &state,
            &remaining,
            TrapId(0),
            TrapId(1),
            &[IonId(2)],
        );
        assert_eq!(ion, Some(IonId(1)));
    }

    #[test]
    fn max_score_prefers_ion_with_dest_gates() {
        // Ions 0,1,2 in T0; ion 3 in T1. Ion 1 has two pending gates with
        // ion 3 (partner in dest) — it should be evicted toward T1.
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(3)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(3), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(2)).unwrap(); // anchors 0 and 2 to T0
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(0), TrapId(1)])
                .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        let ion = choose_ion(
            IonSelection::MaxScore,
            &state,
            &remaining,
            TrapId(0),
            TrapId(1),
            &[],
        );
        assert_eq!(ion, Some(IonId(1)));
    }

    #[test]
    fn max_score_avoids_anchored_ions() {
        // Ion 0 has many local gates in T0 (negative score); ion 1 has none.
        let mut c = Circuit::new(4);
        for _ in 0..3 {
            c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(2)).unwrap();
        }
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(0), TrapId(1)])
                .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        let ion = choose_ion(
            IonSelection::MaxScore,
            &state,
            &remaining,
            TrapId(0),
            TrapId(1),
            &[],
        )
        .unwrap();
        assert_ne!(ion, IonId(0), "heavily anchored ion must not be evicted");
        assert_ne!(ion, IonId(2), "ion 2 is equally anchored");
        assert_eq!(ion, IonId(1));
    }

    #[test]
    fn all_kept_returns_none() {
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1)]).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let c = Circuit::new(2);
        let remaining = RemainingGates::new(&c, &c.dependency_dag(), Vec::new());
        assert_eq!(
            choose_ion(
                IonSelection::ChainEnd,
                &state,
                &remaining,
                TrapId(0),
                TrapId(1),
                &[IonId(0)],
            ),
            None
        );
    }

    fn mcmf_route(topo: &TrapTopology, from: u32, to: u32) -> Option<Vec<TrapId>> {
        eviction_route(
            RebalancePolicy::FromTrapZero,
            topo,
            TrapId(from),
            TrapId(to),
        )
    }

    #[test]
    fn mcmf_route_is_shortest_on_line() {
        let topo = TrapTopology::linear(6);
        let route = mcmf_route(&topo, 4, 0).unwrap();
        assert_eq!(
            route,
            vec![TrapId(4), TrapId(3), TrapId(2), TrapId(1), TrapId(0)]
        );
        assert_eq!(mcmf_route(&topo, 2, 2).unwrap(), vec![TrapId(2)]);
    }

    #[test]
    fn mcmf_route_on_ring_takes_short_side() {
        let topo = TrapTopology::ring(6);
        let route = mcmf_route(&topo, 0, 5).unwrap();
        assert_eq!(route, vec![TrapId(0), TrapId(5)]);
    }

    #[test]
    fn mcmf_route_breaks_ring_ties_in_neighbour_order() {
        // Trap 5 lists trap 4 before trap 0, so the flow's route runs down
        // the ring, where the optimized compiler's memoized BFS runs
        // through trap 0.
        let topo = TrapTopology::ring(6);
        let route = mcmf_route(&topo, 5, 2).unwrap();
        assert_eq!(route, [5, 4, 3, 2].map(TrapId).to_vec());
        let nearest = eviction_route(
            RebalancePolicy::NearestNeighbor,
            &topo,
            TrapId(5),
            TrapId(2),
        );
        assert_eq!(nearest.unwrap(), [5, 0, 1, 2].map(TrapId).to_vec());
    }
}
