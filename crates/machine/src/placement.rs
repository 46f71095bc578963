//! Chain-free live placement: which trap holds each ion, and how full
//! each trap is. The machine's shuttle and round legality rules live here.

use crate::error::MachineError;
use crate::ids::{IonId, TrapId};
use crate::mapping::InitialMapping;
use crate::ops::ShuttleMove;
use crate::spec::MachineSpec;

/// Live placement of ions in a QCCD machine, without chain order: ion →
/// trap plus per-trap occupancy.
///
/// This is everything the machine's legality rules read, so it owns them:
/// the one-hop [`shuttle`](Placement::shuttle) and the concurrent
/// [`apply_round`](Placement::apply_round). [`MachineState`] wraps a
/// placement and adds the ordered ion chain inside each trap, which only
/// the compile loop and multi-zone gate-zone promotion read. Replays that
/// never read chain order (validators, transport packers, single-zone
/// lowering) run on a `Placement` and skip the chain upkeep.
///
/// [`MachineState`]: crate::MachineState
#[derive(Debug, PartialEq, Eq)]
pub struct Placement {
    pub(crate) spec: MachineSpec,
    pub(crate) trap_of: Vec<TrapId>,
    pub(crate) occupancy: Vec<u32>,
}

impl Clone for Placement {
    fn clone(&self) -> Self {
        Placement {
            spec: self.spec.clone(),
            trap_of: self.trap_of.clone(),
            occupancy: self.occupancy.clone(),
        }
    }

    /// Copies `source` into this placement's buffers: no allocation when
    /// both live on the same spec.
    fn clone_from(&mut self, source: &Self) {
        if self.spec != source.spec {
            self.spec = source.spec.clone();
        }
        self.trap_of.clone_from(&source.trap_of);
        self.occupancy.clone_from(&source.occupancy);
    }
}

impl Placement {
    /// Creates a placement from an initial mapping.
    ///
    /// # Errors
    ///
    /// * [`MachineError::TrapOutOfRange`] — the mapping names a trap the
    ///   spec does not have (checked ion by ion).
    /// * [`MachineError::MappingOverfill`] — a trap holds more than the
    ///   spec's initial capacity (the lowest such trap).
    pub fn with_mapping(
        spec: &MachineSpec,
        mapping: &InitialMapping,
    ) -> Result<Self, MachineError> {
        let mut occupancy = vec![0u32; spec.num_traps() as usize];
        let mut trap_of = Vec::with_capacity(mapping.num_ions() as usize);
        for &t in mapping.as_slice() {
            spec.check_trap(t)?;
            occupancy[t.index()] += 1;
            trap_of.push(t);
        }
        let cap = spec.initial_capacity_per_trap();
        if let Some(i) = occupancy.iter().position(|&n| n > cap) {
            return Err(MachineError::MappingOverfill {
                trap: TrapId(i as u32),
                assigned: occupancy[i],
                initial_capacity: cap,
            });
        }
        Ok(Placement {
            spec: spec.clone(),
            trap_of,
            occupancy,
        })
    }

    /// The machine specification this placement lives on.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Number of ions in the machine.
    pub fn num_ions(&self) -> u32 {
        self.trap_of.len() as u32
    }

    /// The trap currently holding `ion`.
    ///
    /// # Panics
    ///
    /// Panics if `ion` is not part of this machine.
    pub fn trap_of(&self, ion: IonId) -> TrapId {
        self.trap_of[ion.index()]
    }

    /// Every ion's trap, indexed by ion.
    pub fn traps(&self) -> &[TrapId] {
        &self.trap_of
    }

    /// Number of ions currently in `trap`.
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn occupancy(&self, trap: TrapId) -> u32 {
        self.occupancy[trap.index()]
    }

    /// Excess capacity of `trap`: `total capacity − occupancy` (§II-B1).
    ///
    /// # Panics
    ///
    /// Panics if `trap` is out of range.
    pub fn excess_capacity(&self, trap: TrapId) -> u32 {
        self.spec.total_capacity() - self.occupancy(trap)
    }

    /// Returns `true` if `trap` cannot accept another ion.
    pub fn is_full(&self, trap: TrapId) -> bool {
        self.excess_capacity(trap) == 0
    }

    /// Moves `ion` one hop into the adjacent trap `to` and returns the
    /// trap it left.
    ///
    /// # Errors
    ///
    /// * [`MachineError::IonOutOfRange`] — unknown ion.
    /// * [`MachineError::TrapOutOfRange`] — unknown destination.
    /// * [`MachineError::SelfShuttle`] — `to` equals the current trap.
    /// * [`MachineError::NotAdjacent`] — no shuttle path between the traps.
    /// * [`MachineError::TrapFull`] — destination has no excess capacity.
    pub fn shuttle(&mut self, ion: IonId, to: TrapId) -> Result<TrapId, MachineError> {
        if ion.index() >= self.trap_of.len() {
            return Err(MachineError::IonOutOfRange {
                ion,
                num_ions: self.num_ions(),
            });
        }
        self.spec.check_trap(to)?;
        let from = self.trap_of[ion.index()];
        if from == to {
            return Err(MachineError::SelfShuttle { trap: from });
        }
        if !self.spec.topology().are_adjacent(from, to) {
            return Err(MachineError::NotAdjacent { from, to });
        }
        if self.is_full(to) {
            return Err(MachineError::TrapFull { trap: to });
        }
        self.occupancy[from.index()] -= 1;
        self.occupancy[to.index()] += 1;
        self.trap_of[ion.index()] = to;
        Ok(from)
    }

    /// Checks one concurrent transport round against this placement
    /// without applying it; see [`apply_round`](Placement::apply_round)
    /// for the rules and the order they are checked in.
    ///
    /// # Errors
    ///
    /// As [`apply_round`](Placement::apply_round).
    pub fn check_round(&self, moves: &[ShuttleMove]) -> Result<(), MachineError> {
        for (i, m) in moves.iter().enumerate() {
            if m.ion.index() >= self.trap_of.len() {
                return Err(MachineError::IonOutOfRange {
                    ion: m.ion,
                    num_ions: self.num_ions(),
                });
            }
            self.spec.check_trap(m.to)?;
            if self.trap_of[m.ion.index()] != m.from {
                return Err(MachineError::WrongSourceTrap {
                    ion: m.ion,
                    claimed: m.from,
                    actual: self.trap_of[m.ion.index()],
                });
            }
            if m.from == m.to {
                return Err(MachineError::SelfShuttle { trap: m.from });
            }
            if !self.spec.topology().are_adjacent(m.from, m.to) {
                return Err(MachineError::NotAdjacent {
                    from: m.from,
                    to: m.to,
                });
            }
            let earlier = &moves[..i];
            if earlier.iter().any(|e| e.ion == m.ion) {
                return Err(MachineError::IonMovedTwice { ion: m.ion });
            }
            let seg = m.segment();
            if earlier.iter().any(|e| e.segment() == seg) {
                return Err(MachineError::EdgeInUse { a: seg.0, b: seg.1 });
            }
            let split_busy = earlier.iter().any(|e| e.from == m.from);
            if split_busy || earlier.iter().any(|e| e.to == m.to) {
                let trap = if split_busy { m.from } else { m.to };
                return Err(MachineError::JunctionBusy { trap });
            }
        }
        // The junction rule passed, so each trap has at most one arrival
        // and one departure. A trap without an arrival cannot overfill,
        // and one with an arrival overfills exactly when it is full and no
        // move departs it. Summed in u64: `capacity + departures` wraps
        // u32 near `u32::MAX`.
        let capacity = self.spec.total_capacity();
        let departures = |t: TrapId| u32::from(moves.iter().any(|d| d.from == t));
        let overfilled = moves
            .iter()
            .map(|m| m.to)
            .filter(|&t| {
                u64::from(self.occupancy(t)) + 1 > u64::from(capacity) + u64::from(departures(t))
            })
            .min();
        if let Some(trap) = overfilled {
            return Err(MachineError::RoundOverfill {
                trap,
                occupancy: self.occupancy(trap),
                arrivals: 1,
                departures: departures(trap),
                capacity,
            });
        }
        Ok(())
    }

    /// Applies one concurrent transport round: a set of single-hop shuttle
    /// moves executed simultaneously on pairwise-disjoint shuttle-path
    /// segments.
    ///
    /// Round semantics are *departures-first*: every SPLIT fires before any
    /// MERGE lands, so an ion may enter a trap another ion vacates in the
    /// same round (pipelined corridors, swaps). The per-round legality
    /// rules — the machine's per-edge occupancy and junction bookkeeping —
    /// are:
    ///
    /// 1. every move is a legal hop in isolation (known ion at `from`,
    ///    adjacent in-range destination);
    /// 2. no shuttle-path segment carries two moves (per-edge occupancy);
    /// 3. no ion moves twice;
    /// 4. each trap runs at most one SPLIT and one MERGE (junction
    ///    hardware);
    /// 5. no trap exceeds total capacity after its departures leave.
    ///
    /// On error the placement is unchanged.
    ///
    /// Cost: O(m²) in the round's `m` moves, with no allocation. Each move
    /// is checked against the round's earlier moves (rules 2–4), and once
    /// the junction rule passes `m` is at most the number of traps.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a [`MachineError`] (`EdgeInUse`,
    /// `IonMovedTwice`, `JunctionBusy`, `RoundOverfill`, or the
    /// single-hop errors of [`shuttle`](Placement::shuttle)). Moves are
    /// checked in order, rules 1–4 per move; capacity (rule 5) is checked
    /// last, and an overfill names the lowest overfilled trap.
    pub fn apply_round(&mut self, moves: &[ShuttleMove]) -> Result<(), MachineError> {
        self.check_round(moves)?;
        for m in moves {
            self.occupancy[m.from.index()] -= 1;
            self.occupancy[m.to.index()] += 1;
            self.trap_of[m.ion.index()] = m.to;
        }
        Ok(())
    }

    /// Verifies the internal invariants: occupancy matches the ion → trap
    /// map and no trap exceeds total capacity.
    pub fn check_invariants(&self) -> bool {
        let mut counted = vec![0u32; self.occupancy.len()];
        for t in &self.trap_of {
            match counted.get_mut(t.index()) {
                Some(n) => *n += 1,
                None => return false,
            }
        }
        counted == self.occupancy
            && self
                .occupancy
                .iter()
                .all(|&n| n <= self.spec.total_capacity())
    }
}

/// [`Placement`] against [`MachineState`](crate::MachineState), which
/// adds chains on top: on random hop and round sequences both must
/// accept and reject the same steps and keep the same ion → trap map and
/// occupancy.
#[cfg(test)]
mod chain_parity {
    use super::*;
    use crate::state::MachineState;
    use crate::topology::TrapTopology;
    use proptest::prelude::*;

    /// Reads bounded draws off a pre-sampled stream.
    struct Draws<'a>(std::slice::Iter<'a, u32>);

    impl Draws<'_> {
        fn below(&mut self, n: u32) -> u32 {
            self.0.next().map_or(0, |&x| x % n.max(1))
        }
    }

    /// A small machine, a fitting mapping, and a random walk of hops and
    /// rounds on it: mostly legal moves, plus repeats, reversals and
    /// arbitrary (often illegal) ones.
    fn walk(raw: &[u32]) -> (MachineSpec, InitialMapping, Vec<Vec<ShuttleMove>>) {
        let mut d = Draws(raw.iter());
        let topology = match d.below(4) {
            0 => TrapTopology::linear(2 + d.below(4)),
            1 => TrapTopology::ring(3 + d.below(3)),
            2 => TrapTopology::grid(2, 2 + d.below(2)),
            _ => TrapTopology::custom(4, &[(2, 0), (3, 1), (1, 0)]),
        };
        let capacity = 2 + d.below(3);
        let comm = d.below(capacity);
        let spec = MachineSpec::new(topology, capacity, comm).expect("valid spec");
        let traps = spec.num_traps();
        let per_trap = spec.initial_capacity_per_trap().min(4);
        let mut trap_of = Vec::new();
        for t in 0..traps {
            for _ in 0..d.below(per_trap + 1) {
                trap_of.push(TrapId(t));
            }
        }
        let ions = trap_of.len() as u32;
        let mapping = InitialMapping::from_traps(&spec, trap_of).expect("fits");
        // Steps are planned against a shadow placement so most are legal.
        let mut shadow = Placement::with_mapping(&spec, &mapping).expect("fits");
        let mut steps = Vec::new();
        for _ in 0..d.below(24) {
            let width = 1 + d.below(3);
            let mut round: Vec<ShuttleMove> = Vec::new();
            for _ in 0..width {
                let m = match d.below(8) {
                    0..=4 if ions > 0 => {
                        let ion = IonId(d.below(ions));
                        let from = shadow.trap_of(ion);
                        let nbrs = spec.topology().neighbors(from);
                        let to = nbrs
                            .get(d.below(nbrs.len() as u32) as usize)
                            .copied()
                            .unwrap_or(from);
                        ShuttleMove { ion, from, to }
                    }
                    5 if !round.is_empty() => {
                        let m = round[d.below(round.len() as u32) as usize];
                        ShuttleMove {
                            ion: m.ion,
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
                round.push(m);
            }
            if round.len() == 1 {
                let _ = shadow.shuttle(round[0].ion, round[0].to);
            } else {
                let _ = shadow.apply_round(&round);
            }
            steps.push(round);
        }
        (spec, mapping, steps)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// One-move steps replay as `shuttle`, wider ones as
        /// `apply_round`: same verdicts, same placement after every step.
        #[test]
        fn placement_and_machine_state_agree(
            raw in proptest::collection::vec(any::<u32>(), 200..201)
        ) {
            let (spec, mapping, steps) = walk(&raw);
            let mut flat = Placement::with_mapping(&spec, &mapping).unwrap();
            let mut chains = MachineState::with_mapping(&spec, &mapping).unwrap();
            for round in &steps {
                let (a, b) = if let [m] = round[..] {
                    (flat.shuttle(m.ion, m.to).map(|_| ()), chains.shuttle(m.ion, m.to))
                } else {
                    (flat.apply_round(round), chains.apply_round(round))
                };
                prop_assert_eq!(&a, &b, "step {:?}", round);
                prop_assert_eq!(flat.traps(), chains.placement().traps());
                for t in spec.topology().traps() {
                    prop_assert_eq!(flat.occupancy(t), chains.occupancy(t));
                    prop_assert_eq!(chains.chain(t).len() as u32, flat.occupancy(t));
                }
                prop_assert!(flat.check_invariants());
                prop_assert!(chains.check_invariants());
            }
        }
    }

    /// A mapping that does not fit is rejected with the same error.
    #[test]
    fn both_reject_the_same_mappings() {
        let tight = MachineSpec::linear(2, 4, 1).unwrap();
        let loose = MachineSpec::linear(2, 8, 1).unwrap();
        let mapping = InitialMapping::round_robin(&loose, 8).unwrap();
        assert_eq!(
            Placement::with_mapping(&tight, &mapping).unwrap_err(),
            MachineState::with_mapping(&tight, &mapping).unwrap_err()
        );
        let small = MachineSpec::linear(1, 8, 1).unwrap();
        assert_eq!(
            Placement::with_mapping(&small, &mapping).unwrap_err(),
            MachineState::with_mapping(&small, &mapping).unwrap_err()
        );
    }
}
