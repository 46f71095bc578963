//! Live machine state: a placement plus the ordered ion chain per trap.

use crate::error::MachineError;
use crate::ids::{IonId, TrapId};
use crate::mapping::InitialMapping;
use crate::ops::ShuttleMove;
use crate::placement::Placement;
use crate::spec::MachineSpec;
use crate::zones::ZoneOccupancy;

/// Live placement of ions in a QCCD machine, with chain order.
///
/// Wraps a [`Placement`] (ion → trap, per-trap occupancy, and the machine's
/// legality rules) and tracks the ordered ion chain inside each trap (§II,
/// Fig. 1: "Inside a trap, ions form a chain"). Every
/// [`shuttle`](MachineState::shuttle) and
/// [`apply_round`](MachineState::apply_round) is checked by the placement,
/// so the invariants hold:
///
/// 1. every ion is in exactly one trap;
/// 2. trap occupancy never exceeds total capacity;
/// 3. shuttles only traverse topology edges into traps with excess capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineState {
    placement: Placement,
    chains: Vec<Vec<IonId>>,
}

impl MachineState {
    /// Creates a state from a validated initial mapping.
    ///
    /// Chains are ordered by ion id within each trap, matching the paper's
    /// figures where freshly loaded traps hold consecutive ions.
    ///
    /// # Errors
    ///
    /// As [`Placement::with_mapping`]: [`MachineError::MappingOverfill`] if
    /// the mapping does not fit this spec (possible when the mapping was
    /// built for a different spec).
    pub fn with_mapping(
        spec: &MachineSpec,
        mapping: &InitialMapping,
    ) -> Result<Self, MachineError> {
        let placement = Placement::with_mapping(spec, mapping)?;
        let mut chains: Vec<Vec<IonId>> = vec![Vec::new(); spec.num_traps() as usize];
        for (i, &t) in mapping.as_slice().iter().enumerate() {
            chains[t.index()].push(IonId(i as u32));
        }
        Ok(MachineState { placement, chains })
    }

    /// The chain-free placement under the chains.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The machine specification this state lives on.
    pub fn spec(&self) -> &MachineSpec {
        self.placement.spec()
    }

    /// Number of ions in the machine.
    pub fn num_ions(&self) -> u32 {
        self.placement.num_ions()
    }

    /// The trap currently holding `ion`.
    ///
    /// # Panics
    ///
    /// Panics if `ion` is not part of this machine.
    pub fn trap_of(&self, ion: IonId) -> TrapId {
        self.placement.trap_of(ion)
    }

    /// The ordered ion chain inside `trap`.
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn chain(&self, trap: TrapId) -> &[IonId] {
        &self.chains[trap.index()]
    }

    /// Number of ions currently in `trap`.
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn occupancy(&self, trap: TrapId) -> u32 {
        self.placement.occupancy(trap)
    }

    /// Excess capacity of `trap`: `total capacity − occupancy` (§II-B1).
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn excess_capacity(&self, trap: TrapId) -> u32 {
        self.placement.excess_capacity(trap)
    }

    /// Returns `true` if `trap` cannot accept another ion.
    pub fn is_full(&self, trap: TrapId) -> bool {
        self.placement.is_full(trap)
    }

    /// The occupancy of `trap` broken down by the spec's zone layout: chain
    /// positions fill the gate, storage and loading zones front-to-back
    /// (merges append to the chain end, so arrivals land in the loading
    /// zone).
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn zone_occupancy(&self, trap: TrapId) -> ZoneOccupancy {
        ZoneOccupancy::from_occupancy(self.occupancy(trap), self.spec().zone_layout())
    }

    /// Returns `true` if `ion`'s chain position lies inside its trap's gate
    /// zone — i.e. a gate on it needs no intra-trap zone move first. Always
    /// `true` under the default single-zone layout.
    ///
    /// # Panics
    ///
    /// Panics if `ion` is not part of this machine.
    pub fn in_gate_zone(&self, ion: IonId) -> bool {
        let trap = self.trap_of(ion);
        let pos = self.chains[trap.index()]
            .iter()
            .position(|&i| i == ion)
            .expect("trap_of and chains are kept consistent");
        (pos as u32) < self.spec().zone_layout().gate
    }

    /// Moves `ion` to the front of its chain — the explicit intra-trap zone
    /// reorder that brings a storage/loading-zone ion into the gate zone.
    /// Returns `true` if the ion actually moved (`false` when it was
    /// already gate-ready, in which case no physical operation occurs).
    ///
    /// # Panics
    ///
    /// Panics if `ion` is not part of this machine.
    pub fn promote_to_gate_zone(&mut self, ion: IonId) -> bool {
        if self.in_gate_zone(ion) {
            return false;
        }
        let chain = &mut self.chains[self.placement.trap_of(ion).index()];
        let pos = chain
            .iter()
            .position(|&i| i == ion)
            .expect("trap_of and chains are kept consistent");
        chain.remove(pos);
        chain.insert(0, ion);
        true
    }

    /// Moves `ion` one hop into the adjacent trap `to` (split from its
    /// current chain, traverse the shuttle path, merge at the end of the
    /// destination chain — the SPLIT/MOVE/MERGE sequence of Fig. 3).
    ///
    /// # Errors
    ///
    /// As [`Placement::shuttle`]; on error the state is unchanged.
    pub fn shuttle(&mut self, ion: IonId, to: TrapId) -> Result<(), MachineError> {
        let from = self.placement.shuttle(ion, to)?;
        self.split(ion, from);
        self.chains[to.index()].push(ion);
        Ok(())
    }

    /// Applies one concurrent transport round under the placement's round
    /// rules ([`Placement::apply_round`]): every mover splits out of its
    /// chain, then every mover merges at the end of its destination chain.
    ///
    /// # Errors
    ///
    /// As [`Placement::apply_round`]; on error the state is unchanged.
    pub fn apply_round(&mut self, moves: &[ShuttleMove]) -> Result<(), MachineError> {
        self.placement.apply_round(moves)?;
        for m in moves {
            self.split(m.ion, m.from);
        }
        for m in moves {
            self.chains[m.to.index()].push(m.ion);
        }
        Ok(())
    }

    /// Removes `ion` from the chain of `trap`.
    fn split(&mut self, ion: IonId, trap: TrapId) {
        let chain = &mut self.chains[trap.index()];
        let pos = chain
            .iter()
            .position(|&i| i == ion)
            .expect("trap_of and chains are kept consistent");
        chain.remove(pos);
    }

    /// Verifies the internal invariants (ion conservation, capacity,
    /// chain/placement consistency). Cheap enough for tests and debug
    /// asserts.
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.num_ions() as usize];
        for (ti, chain) in self.chains.iter().enumerate() {
            if chain.len() as u32 != self.placement.occupancy(TrapId(ti as u32)) {
                return false;
            }
            for &ion in chain {
                if ion.index() >= seen.len()
                    || seen[ion.index()]
                    || self.trap_of(ion) != TrapId(ti as u32)
                {
                    return false;
                }
                seen[ion.index()] = true;
            }
        }
        self.placement.check_invariants() && seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_state() -> MachineState {
        // Fig. 1: 2 traps, capacity 4, comm 1, ions 0-2 in T0, 3-5 in T1.
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
        MachineState::with_mapping(&spec, &mapping).unwrap()
    }

    #[test]
    fn fig1_excess_capacities() {
        let s = fig1_state();
        assert_eq!(s.excess_capacity(TrapId(0)), 1);
        assert_eq!(s.excess_capacity(TrapId(1)), 1);
        assert_eq!(s.chain(TrapId(0)), &[IonId(0), IonId(1), IonId(2)]);
        assert!(s.check_invariants());
    }

    #[test]
    fn shuttle_moves_ion_and_updates_chains() {
        let mut s = fig1_state();
        s.shuttle(IonId(2), TrapId(1)).unwrap();
        assert_eq!(s.trap_of(IonId(2)), TrapId(1));
        assert_eq!(s.chain(TrapId(0)), &[IonId(0), IonId(1)]);
        assert_eq!(
            s.chain(TrapId(1)),
            &[IonId(3), IonId(4), IonId(5), IonId(2)]
        );
        assert_eq!(s.excess_capacity(TrapId(1)), 0);
        assert!(s.check_invariants());
    }

    #[test]
    fn shuttle_into_full_trap_fails() {
        let mut s = fig1_state();
        s.shuttle(IonId(2), TrapId(1)).unwrap(); // T1 now full
        let err = s.shuttle(IonId(1), TrapId(1)).unwrap_err();
        assert_eq!(err, MachineError::TrapFull { trap: TrapId(1) });
        assert!(s.check_invariants());
    }

    #[test]
    fn shuttle_requires_adjacency() {
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 4).unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        // Ion 0 is in T0; T2 is two hops away.
        let err = s.shuttle(IonId(0), TrapId(2)).unwrap_err();
        assert_eq!(
            err,
            MachineError::NotAdjacent {
                from: TrapId(0),
                to: TrapId(2)
            }
        );
    }

    #[test]
    fn shuttle_rejects_self_and_bad_ids() {
        let mut s = fig1_state();
        assert_eq!(
            s.shuttle(IonId(0), TrapId(0)).unwrap_err(),
            MachineError::SelfShuttle { trap: TrapId(0) }
        );
        assert!(matches!(
            s.shuttle(IonId(99), TrapId(1)),
            Err(MachineError::IonOutOfRange { .. })
        ));
        assert!(matches!(
            s.shuttle(IonId(0), TrapId(9)),
            Err(MachineError::TrapOutOfRange { .. })
        ));
    }

    #[test]
    fn round_trip_shuttle_restores_occupancy() {
        let mut s = fig1_state();
        s.shuttle(IonId(2), TrapId(1)).unwrap();
        s.shuttle(IonId(2), TrapId(0)).unwrap();
        assert_eq!(s.occupancy(TrapId(0)), 3);
        assert_eq!(s.occupancy(TrapId(1)), 3);
        // Merge appends: ion 2 is now at the END of T0's chain.
        assert_eq!(s.chain(TrapId(0)), &[IonId(0), IonId(1), IonId(2)]);
        assert!(s.check_invariants());
    }

    #[test]
    fn zone_tracking_and_promotion() {
        use crate::zones::ZoneLayout;
        // 2 traps, capacity 6 split 2 gate + 2 storage + 2 loading.
        let spec = MachineSpec::linear(2, 6, 2)
            .unwrap()
            .with_zone_layout(ZoneLayout::new(2, 2, 2).unwrap())
            .unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(0), TrapId(0), TrapId(1)],
        )
        .unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        let z = s.zone_occupancy(TrapId(0));
        assert_eq!((z.gate, z.storage, z.loading), (2, 2, 0));
        assert!(s.in_gate_zone(IonId(0)));
        assert!(!s.in_gate_zone(IonId(3)), "position 3 is the storage zone");

        // An arriving ion lands in the chain tail (loading zone).
        s.shuttle(IonId(4), TrapId(0)).unwrap();
        let z = s.zone_occupancy(TrapId(0));
        assert_eq!((z.gate, z.storage, z.loading), (2, 2, 1));
        assert!(!s.in_gate_zone(IonId(4)));

        // Promotion is an explicit reorder; gate-ready ions are no-ops.
        assert!(s.promote_to_gate_zone(IonId(4)));
        assert!(s.in_gate_zone(IonId(4)));
        assert_eq!(s.chain(TrapId(0))[0], IonId(4));
        assert!(!s.promote_to_gate_zone(IonId(4)), "already gate-ready");
        assert!(s.check_invariants());
    }

    #[test]
    fn single_zone_layout_is_always_gate_ready() {
        let s = fig1_state();
        for ion in 0..6 {
            assert!(s.in_gate_zone(IonId(ion)));
        }
    }

    fn mv(ion: u32, from: u32, to: u32) -> ShuttleMove {
        ShuttleMove {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    #[test]
    fn round_applies_pipelined_moves() {
        // L3: ions 0-2 in T0, 3-5 in T1. Pipeline: ion 3 leaves T1 for T2
        // while ion 2 enters T1 from T0 — disjoint segments, one split and
        // one merge at the junction trap T1.
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        s.apply_round(&[mv(3, 1, 2), mv(2, 0, 1)]).unwrap();
        assert_eq!(s.trap_of(IonId(3)), TrapId(2));
        assert_eq!(s.trap_of(IonId(2)), TrapId(1));
        assert!(s.check_invariants());
    }

    #[test]
    fn round_allows_departure_before_arrival() {
        // T1 is full; its departure makes room for the arrival within the
        // same round (departures-first semantics), where a serial shuttle
        // into T1 would be rejected.
        let spec = MachineSpec::linear(3, 2, 0).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(2)])
                .unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        assert!(s.is_full(TrapId(1)));
        assert_eq!(
            s.shuttle(IonId(0), TrapId(1)).unwrap_err(),
            MachineError::TrapFull { trap: TrapId(1) }
        );
        s.apply_round(&[mv(0, 0, 1), mv(2, 1, 2)]).unwrap();
        assert_eq!(s.trap_of(IonId(0)), TrapId(1));
        assert_eq!(s.trap_of(IonId(2)), TrapId(2));
        assert!(s.is_full(TrapId(1)));
        assert!(s.check_invariants());
    }

    #[test]
    fn round_rejects_edge_reuse_and_double_move() {
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 6).unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        assert_eq!(
            s.apply_round(&[mv(1, 0, 1), mv(3, 1, 0)]).unwrap_err(),
            MachineError::EdgeInUse {
                a: TrapId(0),
                b: TrapId(1)
            }
        );
        assert_eq!(
            s.apply_round(&[mv(1, 0, 1), mv(1, 0, 1)]).unwrap_err(),
            MachineError::IonMovedTwice { ion: IonId(1) }
        );
        // Failed rounds leave the state untouched.
        assert_eq!(s.trap_of(IonId(1)), TrapId(0));
        assert!(s.check_invariants());
    }

    #[test]
    fn round_rejects_junction_oversubscription() {
        // Two merges into T1 from different edges: junction busy.
        let spec = MachineSpec::linear(3, 6, 1).unwrap();
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(2)]).unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        assert_eq!(
            s.apply_round(&[mv(0, 0, 1), mv(1, 2, 1)]).unwrap_err(),
            MachineError::JunctionBusy { trap: TrapId(1) }
        );
    }

    #[test]
    fn round_rejects_overfill_and_wrong_source() {
        let spec = MachineSpec::linear(2, 3, 0).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
        )
        .unwrap();
        let mut s = MachineState::with_mapping(&spec, &mapping).unwrap();
        assert!(matches!(
            s.apply_round(&[mv(0, 0, 1)]).unwrap_err(),
            MachineError::RoundOverfill {
                trap: TrapId(1),
                ..
            }
        ));
        assert_eq!(
            s.apply_round(&[mv(0, 1, 0)]).unwrap_err(),
            MachineError::WrongSourceTrap {
                ion: IonId(0),
                claimed: TrapId(1),
                actual: TrapId(0)
            }
        );
    }

    #[test]
    fn with_mapping_rejects_overfull() {
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let loose = MachineSpec::linear(2, 8, 1).unwrap();
        let mapping = InitialMapping::round_robin(&loose, 8).unwrap();
        assert!(matches!(
            MachineState::with_mapping(&spec, &mapping),
            Err(MachineError::MappingOverfill { .. })
        ));
    }
}

/// Differential check of [`MachineState::apply_round`] against the
/// allocating implementation it replaced, kept here as the oracle.
#[cfg(test)]
mod apply_round_oracle {
    use super::*;
    use crate::topology::TrapTopology;
    use proptest::prelude::*;

    /// The previous `apply_round`: per-trap arrival/departure counters and
    /// per-round segment and ion lists, then a capacity scan over every
    /// trap.
    fn reference(state: &mut MachineState, moves: &[ShuttleMove]) -> Result<(), MachineError> {
        let num_traps = state.spec().num_traps() as usize;
        let mut arrivals = vec![0u32; num_traps];
        let mut departures = vec![0u32; num_traps];
        let mut segments: Vec<(TrapId, TrapId)> = Vec::new();
        let mut moved: Vec<IonId> = Vec::new();
        for m in moves {
            if m.ion.index() >= state.placement.trap_of.len() {
                return Err(MachineError::IonOutOfRange {
                    ion: m.ion,
                    num_ions: state.num_ions(),
                });
            }
            state.spec().check_trap(m.to)?;
            if state.placement.trap_of[m.ion.index()] != m.from {
                return Err(MachineError::WrongSourceTrap {
                    ion: m.ion,
                    claimed: m.from,
                    actual: state.placement.trap_of[m.ion.index()],
                });
            }
            if m.from == m.to {
                return Err(MachineError::SelfShuttle { trap: m.from });
            }
            if !state.spec().topology().are_adjacent(m.from, m.to) {
                return Err(MachineError::NotAdjacent {
                    from: m.from,
                    to: m.to,
                });
            }
            if moved.contains(&m.ion) {
                return Err(MachineError::IonMovedTwice { ion: m.ion });
            }
            let seg = m.segment();
            if segments.contains(&seg) {
                return Err(MachineError::EdgeInUse { a: seg.0, b: seg.1 });
            }
            if departures[m.from.index()] > 0 || arrivals[m.to.index()] > 0 {
                let trap = if departures[m.from.index()] > 0 {
                    m.from
                } else {
                    m.to
                };
                return Err(MachineError::JunctionBusy { trap });
            }
            moved.push(m.ion);
            segments.push(seg);
            departures[m.from.index()] += 1;
            arrivals[m.to.index()] += 1;
        }
        for t in 0..num_traps {
            let occ = state.chains[t].len() as u32;
            if u64::from(occ) + u64::from(arrivals[t])
                > u64::from(state.spec().total_capacity()) + u64::from(departures[t])
            {
                return Err(MachineError::RoundOverfill {
                    trap: TrapId(t as u32),
                    occupancy: occ,
                    arrivals: arrivals[t],
                    departures: departures[t],
                    capacity: state.spec().total_capacity(),
                });
            }
        }
        for m in moves {
            let chain = &mut state.chains[m.from.index()];
            let pos = chain.iter().position(|&i| i == m.ion).expect("consistent");
            chain.remove(pos);
            state.placement.occupancy[m.from.index()] -= 1;
        }
        for m in moves {
            state.chains[m.to.index()].push(m.ion);
            state.placement.occupancy[m.to.index()] += 1;
            state.placement.trap_of[m.ion.index()] = m.to;
        }
        Ok(())
    }

    /// Reads bounded draws off a pre-sampled stream.
    struct Draws<'a>(std::slice::Iter<'a, u32>);

    impl Draws<'_> {
        fn below(&mut self, n: u32) -> u32 {
            self.0.next().map_or(0, |&x| x % n.max(1))
        }
    }

    /// A small machine whose traps are filled up to total capacity by
    /// serial hops, so rounds hit full traps, and a round mixing legal
    /// hops, repeats, reversals and arbitrary (often illegal) moves.
    fn case(raw: &[u32]) -> (MachineState, Vec<ShuttleMove>) {
        let mut d = Draws(raw.iter());
        let topology = match d.below(4) {
            0 => TrapTopology::linear(2 + d.below(4)),
            1 => TrapTopology::ring(3 + d.below(3)),
            2 => TrapTopology::grid(2, 2 + d.below(2)),
            _ => TrapTopology::custom(4, &[(2, 0), (3, 1), (1, 0)]),
        };
        let huge = d.below(6) == 0;
        let capacity = if huge { u32::MAX } else { 2 + d.below(3) };
        let comm = if huge { 1 } else { d.below(capacity) };
        let spec = MachineSpec::new(topology, capacity, comm).expect("valid spec");
        let traps = spec.num_traps();
        let per_trap = spec.initial_capacity_per_trap().min(4);
        let mut trap_of = Vec::new();
        for t in 0..traps {
            for _ in 0..d.below(per_trap + 1) {
                trap_of.push(TrapId(t));
            }
        }
        let mapping = InitialMapping::from_traps(&spec, trap_of).expect("fits");
        let mut state = MachineState::with_mapping(&spec, &mapping).expect("fits");
        let ions = state.num_ions();
        for _ in 0..d.below(8) {
            if ions == 0 {
                break;
            }
            let ion = IonId(d.below(ions));
            let nbrs = state.spec().topology().neighbors(state.trap_of(ion));
            if !nbrs.is_empty() {
                let to = nbrs[d.below(nbrs.len() as u32) as usize];
                let _ = state.shuttle(ion, to);
            }
        }
        let mut moves: Vec<ShuttleMove> = Vec::new();
        for _ in 0..d.below(7) {
            let m = match d.below(8) {
                0..=3 if ions > 0 => {
                    let ion = IonId(d.below(ions));
                    let from = state.trap_of(ion);
                    let nbrs = state.spec().topology().neighbors(from);
                    let to = nbrs
                        .get(d.below(nbrs.len() as u32) as usize)
                        .copied()
                        .unwrap_or(from);
                    ShuttleMove { ion, from, to }
                }
                4 if !moves.is_empty() => moves[d.below(moves.len() as u32) as usize],
                5 if !moves.is_empty() => {
                    let m = moves[d.below(moves.len() as u32) as usize];
                    ShuttleMove {
                        ion: IonId(d.below(ions + 1)),
                        from: m.to,
                        to: m.from,
                    }
                }
                _ => ShuttleMove {
                    ion: IonId(d.below(ions + 2)),
                    from: TrapId(d.below(traps + 1)),
                    to: TrapId(d.below(traps + 1)),
                },
            };
            moves.push(m);
        }
        (state, moves)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Same first error (variant and fields) and same post-state.
        #[test]
        fn apply_round_matches_the_allocating_reference(
            raw in proptest::collection::vec(any::<u32>(), 80..81)
        ) {
            let (state, moves) = case(&raw);
            let mut fast = state.clone();
            let mut slow = state;
            let got = fast.apply_round(&moves);
            let want = reference(&mut slow, &moves);
            prop_assert_eq!(&got, &want, "moves {:?}", moves);
            prop_assert_eq!(&fast, &slow);
            prop_assert!(fast.check_invariants());
        }
    }

    /// Every rule fires somewhere in the sampled rounds, so the agreement
    /// above is not vacuous.
    #[test]
    fn sampled_rounds_hit_every_rule() {
        let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4000 {
            let raw: Vec<u32> = (0..80)
                .map(|_| {
                    rng_state = rng_state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (rng_state >> 33) as u32
                })
                .collect();
            let (mut state, moves) = case(&raw);
            let label = match state.apply_round(&moves) {
                Ok(()) if moves.len() >= 2 => "ok-concurrent",
                Ok(()) => "ok",
                Err(MachineError::IonOutOfRange { .. }) => "ion-range",
                Err(MachineError::TrapOutOfRange { .. }) => "trap-range",
                Err(MachineError::WrongSourceTrap { .. }) => "wrong-source",
                Err(MachineError::SelfShuttle { .. }) => "self",
                Err(MachineError::NotAdjacent { .. }) => "not-adjacent",
                Err(MachineError::IonMovedTwice { .. }) => "moved-twice",
                Err(MachineError::EdgeInUse { .. }) => "edge",
                Err(MachineError::JunctionBusy { .. }) => "junction",
                Err(MachineError::RoundOverfill { departures: 0, .. }) => "overfill",
                Err(e) => panic!("unexpected error {e:?}"),
            };
            seen.insert(label);
        }
        assert_eq!(seen.len(), 11, "rules hit: {seen:?}");
    }

    /// At capacity `u32::MAX` no trap can fill, and the capacity sum must
    /// not wrap into a spurious overfill.
    #[test]
    fn u32_max_capacity_round_never_overfills() {
        let spec = MachineSpec::linear(3, u32::MAX, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1)]).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let round = [
            ShuttleMove {
                ion: IonId(0),
                from: TrapId(0),
                to: TrapId(1),
            },
            ShuttleMove {
                ion: IonId(2),
                from: TrapId(1),
                to: TrapId(2),
            },
        ];
        let mut fast = state.clone();
        let mut slow = state;
        assert_eq!(fast.apply_round(&round), Ok(()));
        assert_eq!(reference(&mut slow, &round), Ok(()));
        assert_eq!(fast, slow);
    }

    /// The reported overfill is the lowest overfilled trap, with the
    /// reference's fields, whatever order the arrivals are listed in.
    #[test]
    fn overfill_names_the_lowest_trap() {
        // L4, capacity 2: T1 and T3 full, T0 and T2 hold one ion each.
        let spec = MachineSpec::linear(4, 2, 0).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0),
                TrapId(1),
                TrapId(1),
                TrapId(2),
                TrapId(3),
                TrapId(3),
            ],
        )
        .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let round = [
            ShuttleMove {
                ion: IonId(3),
                from: TrapId(2),
                to: TrapId(3),
            },
            ShuttleMove {
                ion: IonId(0),
                from: TrapId(0),
                to: TrapId(1),
            },
        ];
        let want = Err(MachineError::RoundOverfill {
            trap: TrapId(1),
            occupancy: 2,
            arrivals: 1,
            departures: 0,
            capacity: 2,
        });
        assert_eq!(state.clone().apply_round(&round), want);
        assert_eq!(reference(&mut state.clone(), &round), want);
    }
}
