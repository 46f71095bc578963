//! Concurrent transport scheduling: packing a flat schedule's shuttle hops
//! into rounds of edge-disjoint simultaneous moves.

use qccd_machine::{
    IonId, MachineError, MachineSpec, Operation, Placement, Schedule, ShuttleMove, TrapId,
};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Width (member moves) of every sealed concurrent round — the
/// parallelism *distribution* behind the mean the depth figure implies
/// (surfaced as p50/p99 in `--profile` reports).
static ROUND_WIDTH: qccd_obs::Histogram = qccd_obs::Histogram::new("route.round_width");

/// One round of concurrent shuttles: every move runs simultaneously, on
/// pairwise-disjoint shuttle-path segments, under the machine's junction
/// rules (see `Placement::apply_round`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportRound {
    /// The member moves, in the order they appear in the flat schedule.
    pub moves: Vec<ShuttleMove>,
}

/// A compiled schedule's shuttle traffic re-expressed as concurrent
/// transport rounds.
///
/// The rounds partition the flat schedule's shuttle operations *in order*:
/// each round covers a consecutive run of shuttle ops (never spanning a
/// gate), so replaying rounds between the schedule's gates reproduces the
/// serial schedule's final ion placement exactly. The round count
/// ([`depth`](TransportSchedule::depth)) is the schedule's transport depth —
/// the timing-relevant shuttle metric once transport runs concurrently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportSchedule {
    /// The rounds, in execution order.
    pub rounds: Vec<TransportRound>,
}

/// Transport rounds held flat: every member move in round order, plus the
/// end of each round in that list. The packers build and score their
/// candidates in this form, one allocation for all the moves instead of
/// one per round; only the result a packer returns becomes a
/// [`TransportSchedule`] ([`into_schedule`](Self::into_schedule)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatRounds {
    /// The member moves, round after round.
    pub(crate) moves: Vec<ShuttleMove>,
    /// One past each round's last move in `moves`.
    pub(crate) ends: Vec<usize>,
}

impl FlatRounds {
    /// Number of rounds — the transport depth.
    pub fn depth(&self) -> usize {
        self.ends.len()
    }

    /// Each round's moves, in order.
    pub fn iter(&self) -> impl Iterator<Item = &[ShuttleMove]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(s, &e)| &self.moves[s..e])
    }

    /// The nested form, each round's moves in a vector of exactly its
    /// width.
    pub fn into_schedule(self) -> TransportSchedule {
        TransportSchedule {
            rounds: self
                .iter()
                .map(|moves| TransportRound {
                    moves: moves.to_vec(),
                })
                .collect(),
        }
    }
}

impl From<TransportSchedule> for FlatRounds {
    /// Flattens `schedule`, freeing each round's vector as it is copied.
    fn from(schedule: TransportSchedule) -> Self {
        let mut flat = FlatRounds {
            moves: Vec::with_capacity(schedule.num_moves()),
            ends: Vec::with_capacity(schedule.depth()),
        };
        for round in schedule.rounds {
            flat.moves.extend_from_slice(&round.moves);
            flat.ends.push(flat.moves.len());
        }
        flat
    }
}

/// Transport rounds read one round at a time as a slice of moves, from
/// either form: the nested [`TransportSchedule::rounds`] or
/// [`FlatRounds`].
pub trait RoundList {
    /// Number of rounds.
    fn num_rounds(&self) -> usize;

    /// Round `i`'s moves, or `None` past the last round.
    fn round(&self, i: usize) -> Option<&[ShuttleMove]>;
}

impl RoundList for [TransportRound] {
    fn num_rounds(&self) -> usize {
        self.len()
    }

    fn round(&self, i: usize) -> Option<&[ShuttleMove]> {
        self.get(i).map(|r| r.moves.as_slice())
    }
}

impl RoundList for FlatRounds {
    fn num_rounds(&self) -> usize {
        self.ends.len()
    }

    fn round(&self, i: usize) -> Option<&[ShuttleMove]> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.moves[start..end])
    }
}

impl TransportSchedule {
    /// Number of rounds — the schedule's concurrent transport depth.
    pub fn depth(&self) -> usize {
        self.rounds.len()
    }

    /// Total moves across all rounds (equals the flat shuttle count).
    pub fn num_moves(&self) -> usize {
        self.rounds.iter().map(|r| r.moves.len()).sum()
    }

    /// Widest round — the peak transport parallelism achieved.
    pub fn max_round_width(&self) -> usize {
        self.rounds.iter().map(|r| r.moves.len()).max().unwrap_or(0)
    }

    /// The serial transport schedule: one hop per round (the paper's
    /// one-ion-at-a-time executor). Depth equals shuttle count.
    pub fn pack_serial(schedule: &Schedule) -> Self {
        let rounds = schedule
            .operations
            .iter()
            .filter_map(|op| match *op {
                Operation::Shuttle { ion, from, to } => Some(TransportRound {
                    moves: vec![ShuttleMove { ion, from, to }],
                }),
                Operation::Gate { .. } => None,
            })
            .collect();
        TransportSchedule { rounds }
    }

    /// Greedily packs consecutive shuttle hops into concurrent rounds.
    ///
    /// Walks the flat operation stream replaying the machine state; each
    /// shuttle joins the current round when it is compatible (fresh
    /// segment, fresh ion, free junction, capacity after departures) and
    /// opens a new round otherwise. Gates close the current round — a
    /// round never spans a gate, so gate-time ion placement is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if `schedule` does not replay legally on
    /// `spec` (compile-validated schedules always do).
    pub fn pack_concurrent(
        schedule: &Schedule,
        spec: &MachineSpec,
    ) -> Result<Self, TransportError> {
        let placement = Placement::with_mapping(spec, &schedule.initial_mapping)
            .map_err(TransportError::Machine)?;
        Self::pack_concurrent_from(placement, &schedule.operations)
    }

    /// [`pack_concurrent`](Self::pack_concurrent) starting from an
    /// arbitrary live [`Placement`] instead of an initial mapping —
    /// the form a mid-schedule optimizer needs, where trap occupancies can
    /// exceed what an `InitialMapping` may load. `ops` is the operation
    /// stream to pack from that point on; the round-legality rules are
    /// identical.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if `ops` does not replay legally from
    /// `state`.
    pub fn pack_concurrent_from(
        mut state: Placement,
        ops: &[Operation],
    ) -> Result<Self, TransportError> {
        let spec = state.spec().clone();
        let num_traps = spec.num_traps() as usize;
        let mut rounds: Vec<TransportRound> = Vec::new();
        let mut cur: Vec<ShuttleMove> = Vec::new();
        let mut segments: Vec<(TrapId, TrapId)> = Vec::new();
        let mut arrivals = vec![0u32; num_traps];
        let mut departures = vec![0u32; num_traps];

        let close = |state: &mut Placement,
                     rounds: &mut Vec<TransportRound>,
                     cur: &mut Vec<ShuttleMove>,
                     segments: &mut Vec<(TrapId, TrapId)>,
                     arrivals: &mut Vec<u32>,
                     departures: &mut Vec<u32>|
         -> Result<(), TransportError> {
            if cur.is_empty() {
                return Ok(());
            }
            state.apply_round(cur).map_err(TransportError::Machine)?;
            ROUND_WIDTH.record(cur.len() as u64);
            rounds.push(TransportRound {
                moves: std::mem::take(cur),
            });
            segments.clear();
            arrivals.iter_mut().for_each(|a| *a = 0);
            departures.iter_mut().for_each(|d| *d = 0);
            Ok(())
        };

        for op in ops {
            match *op {
                Operation::Gate { .. } => close(
                    &mut state,
                    &mut rounds,
                    &mut cur,
                    &mut segments,
                    &mut arrivals,
                    &mut departures,
                )?,
                Operation::Shuttle { ion, from, to } => {
                    let m = ShuttleMove { ion, from, to };
                    let seg = m.segment();
                    // Junction rule: at most one merge per trap per round,
                    // so `to` has no other arrivals and the capacity check
                    // only needs this round's departures out of it.
                    let fits = !segments.contains(&seg)
                        && !cur.iter().any(|c| c.ion == ion)
                        && departures[from.index()] == 0
                        && arrivals[to.index()] == 0
                        && u64::from(state.occupancy(to))
                            < u64::from(spec.total_capacity()) + u64::from(departures[to.index()]);
                    if !fits {
                        close(
                            &mut state,
                            &mut rounds,
                            &mut cur,
                            &mut segments,
                            &mut arrivals,
                            &mut departures,
                        )?;
                    }
                    segments.push(seg);
                    arrivals[to.index()] += 1;
                    departures[from.index()] += 1;
                    cur.push(m);
                }
            }
        }
        close(
            &mut state,
            &mut rounds,
            &mut cur,
            &mut segments,
            &mut arrivals,
            &mut departures,
        )?;
        Ok(TransportSchedule { rounds })
    }

    /// Packs shuttle hops into rounds with *lookahead backfill*: each hop
    /// is first-fit placed into the earliest compatible round of its
    /// gate-free run, not just the latest one.
    ///
    /// The greedy packer ([`pack_concurrent`](Self::pack_concurrent))
    /// closes a round forever once any hop fails to join it, so a hop
    /// conflicting with round *k* can never ride with round *k − 1* even
    /// when it would fit there. Backfilling re-opens those rounds: a hop
    /// joins round `r` when
    ///
    /// 1. its ion's previous hop sits in an earlier round (per-ion order);
    /// 2. round `r` accepts it under the machine's round rules (fresh
    ///    segment, one split and one merge per trap, capacity after
    ///    departures at round `r`'s occupancy);
    /// 3. every later round of the run stays legal with the ion arriving
    ///    early (destination-trap capacity re-checked downstream).
    ///
    /// Hops are only moved *within* their gate-free run, so gate-time ion
    /// placement is untouched; the result validates under
    /// [`validate_relaxed`](Self::validate_relaxed) (rounds may reorder
    /// hops inside a run) rather than the strict in-order
    /// [`validate`](Self::validate). Falls back to the greedy packing
    /// whenever backfill does not strictly reduce depth.
    ///
    /// Validation happens **once per gate-free run**: closing a run
    /// replays its rounds through [`Placement::apply_round`], which
    /// enforces every per-round rule and leaves the replayed state equal to
    /// the serial replay's (the rounds are built *from* the schedule's own
    /// hops, so multiset coverage and the final mapping hold by
    /// construction). Callers therefore do not need a second
    /// [`validate_relaxed`](Self::validate_relaxed) pass per compile;
    /// debug builds assert the strict-gain invariant (the chosen packing is
    /// never deeper than greedy) on top.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if `schedule` does not replay legally on
    /// `spec` (compile-validated schedules always do).
    pub fn pack_lookahead(schedule: &Schedule, spec: &MachineSpec) -> Result<Self, TransportError> {
        let greedy = Self::pack_concurrent(schedule, spec)?;
        let backfilled = Self::pack_lookahead_inner(schedule, spec)?;
        let backfill_wins = backfilled.depth() < greedy.depth();
        let chosen = if backfill_wins { backfilled } else { greedy };
        debug_assert!(
            !backfill_wins || {
                chosen
                    .validate_relaxed(schedule, spec)
                    .map(|()| true)
                    .unwrap_or(false)
            },
            "strict-gain invariant: a winning backfill must replay-validate"
        );
        Ok(chosen)
    }

    fn pack_lookahead_inner(
        schedule: &Schedule,
        spec: &MachineSpec,
    ) -> Result<Self, TransportError> {
        use crate::backfill::{BackfillRules, CreditRule, RoundBackfill};

        let _phase = qccd_obs::span("backfill");
        let mut state = Placement::with_mapping(spec, &schedule.initial_mapping)
            .map_err(TransportError::Machine)?;
        let num_traps = spec.num_traps() as usize;
        let cap = spec.total_capacity();
        let mut rounds: Vec<TransportRound> = Vec::new();

        // Current gate-free run, as one shared-core backfill seeded with
        // the live occupancies: departure-credit capacity (rounds replay
        // atomically via `apply_round`), no gate fences (the run resets at
        // every gate), unbounded window. One backfill serves every run:
        // closing a run drains its rounds and resets it in place.
        fn occupancies(state: &Placement) -> impl Iterator<Item = u32> + '_ {
            (0..state.spec().num_traps()).map(|t| state.occupancy(TrapId(t)))
        }
        let mut run = RoundBackfill::new(
            num_traps,
            cap,
            occupancies(&state).collect(),
            BackfillRules {
                credit: CreditRule::DepartureCredit,
                share_only: false,
                window: usize::MAX,
            },
        );
        let close_run = |state: &mut Placement,
                         rounds: &mut Vec<TransportRound>,
                         run: &mut RoundBackfill|
         -> Result<(), TransportError> {
            if run.is_empty() {
                return Ok(());
            }
            for moves in run.drain_rounds() {
                state.apply_round(moves).map_err(TransportError::Machine)?;
                ROUND_WIDTH.record(moves.len() as u64);
                rounds.push(TransportRound {
                    moves: moves.to_vec(),
                });
            }
            run.reset(occupancies(state));
            Ok(())
        };

        for op in &schedule.operations {
            match *op {
                Operation::Gate { .. } => close_run(&mut state, &mut rounds, &mut run)?,
                Operation::Shuttle { ion, from, to } => {
                    run.place(ShuttleMove { ion, from, to });
                }
            }
        }
        close_run(&mut state, &mut rounds, &mut run)?;
        Ok(TransportSchedule { rounds })
    }

    /// Replay-validates rounds that may *reorder* hops within a gate-free
    /// run (the contract of [`pack_lookahead`](Self::pack_lookahead)):
    ///
    /// 1. the rounds cover exactly the schedule's shuttle ops, run by run
    ///    — each round draws all its moves from one gate-free run;
    /// 2. every round is legal under the machine's concurrent-round rules,
    ///    replayed via `Placement::apply_round`;
    /// 3. the final ion→trap mapping equals the serial replay's.
    ///
    /// Strictly weaker than [`validate`](Self::validate): any in-order
    /// transport schedule that passes `validate` passes this too.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a [`TransportError`].
    pub fn validate_relaxed(
        &self,
        schedule: &Schedule,
        spec: &MachineSpec,
    ) -> Result<(), TransportError> {
        let mut state = Placement::with_mapping(spec, &schedule.initial_mapping)
            .map_err(TransportError::Machine)?;
        let mut serial = state.clone();
        let count_mismatch = || TransportError::MoveCountMismatch {
            rounds: self.num_moves(),
            schedule: schedule.stats().shuttles,
        };
        let ops = &schedule.operations;
        let mut round_idx = 0usize;
        // The current gate-free run as a multiset, reused across runs.
        let mut remaining: Vec<Option<ShuttleMove>> = Vec::new();
        let mut i = 0usize;
        while i < ops.len() {
            match ops[i] {
                Operation::Gate { .. } => i += 1,
                Operation::Shuttle { .. } => {
                    let run_start = i;
                    remaining.clear();
                    while let Some(&Operation::Shuttle { ion, from, to }) = ops.get(i) {
                        remaining.push(Some(ShuttleMove { ion, from, to }));
                        serial.shuttle(ion, to).map_err(TransportError::Machine)?;
                        i += 1;
                    }
                    // Every slot before `live` is taken, so the search
                    // skips the run's consumed prefix.
                    let mut live = 0usize;
                    let mut outstanding = remaining.len();
                    while outstanding > 0 {
                        let round = self.rounds.get(round_idx).ok_or_else(count_mismatch)?;
                        if round.moves.is_empty() {
                            return Err(count_mismatch());
                        }
                        if round.moves.len() > outstanding {
                            return Err(TransportError::RoundSpansGate { round: round_idx });
                        }
                        let run_len = remaining.len();
                        for m in &round.moves {
                            let consumed = run_len - outstanding;
                            let slot = remaining[live..]
                                .iter_mut()
                                .find(|slot| slot.as_ref() == Some(m))
                                .ok_or(TransportError::MoveMismatch {
                                    op_index: run_start + consumed,
                                })?;
                            *slot = None;
                            outstanding -= 1;
                            while remaining.get(live) == Some(&None) {
                                live += 1;
                            }
                        }
                        state
                            .apply_round(&round.moves)
                            .map_err(TransportError::Machine)?;
                        round_idx += 1;
                    }
                }
            }
        }
        if round_idx != self.rounds.len() {
            return Err(count_mismatch());
        }
        for ion in 0..state.num_ions() {
            let ion = IonId(ion);
            if state.trap_of(ion) != serial.trap_of(ion) {
                return Err(TransportError::FinalMappingDiverged { ion });
            }
        }
        Ok(())
    }

    /// Replay-validates the rounds against the flat `schedule` on `spec`:
    ///
    /// 1. the rounds partition the schedule's shuttle ops in order, never
    ///    spanning a gate;
    /// 2. every round is legal under the machine's concurrent-round rules
    ///    (edge-disjoint segments, junction limits, capacity after
    ///    departures), replayed via `Placement::apply_round`;
    /// 3. the final ion→trap mapping equals the serial replay's.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a [`TransportError`].
    pub fn validate(&self, schedule: &Schedule, spec: &MachineSpec) -> Result<(), TransportError> {
        let mut state = Placement::with_mapping(spec, &schedule.initial_mapping)
            .map_err(TransportError::Machine)?;
        let mut serial = state.clone();
        // Counting every move and shuttle op is O(n): build the error only
        // on failure, or validation turns quadratic.
        let count_mismatch = || TransportError::MoveCountMismatch {
            rounds: self.num_moves(),
            schedule: schedule.stats().shuttles,
        };
        let mut round_idx = 0usize;
        let mut pos = 0usize;
        for (op_index, op) in schedule.operations.iter().enumerate() {
            match *op {
                Operation::Gate { .. } => {
                    if pos != 0 {
                        return Err(TransportError::RoundSpansGate { round: round_idx });
                    }
                }
                Operation::Shuttle { ion, from, to } => {
                    let expected = ShuttleMove { ion, from, to };
                    let round = self.rounds.get(round_idx).ok_or_else(count_mismatch)?;
                    if round.moves.get(pos) != Some(&expected) {
                        return Err(TransportError::MoveMismatch { op_index });
                    }
                    serial.shuttle(ion, to).map_err(TransportError::Machine)?;
                    pos += 1;
                    if pos == round.moves.len() {
                        state
                            .apply_round(&round.moves)
                            .map_err(TransportError::Machine)?;
                        round_idx += 1;
                        pos = 0;
                    }
                }
            }
        }
        if pos != 0 || round_idx != self.rounds.len() {
            return Err(count_mismatch());
        }
        for ion in 0..state.num_ions() {
            let ion = qccd_machine::IonId(ion);
            if state.trap_of(ion) != serial.trap_of(ion) {
                return Err(TransportError::FinalMappingDiverged { ion });
            }
        }
        Ok(())
    }
}

/// A violated transport-schedule invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A machine-level rule was violated while replaying.
    Machine(MachineError),
    /// A round's move disagrees with the flat schedule's shuttle op.
    MoveMismatch {
        /// Index of the offending operation in the flat schedule.
        op_index: usize,
    },
    /// The rounds do not cover exactly the schedule's shuttle ops.
    MoveCountMismatch {
        /// Moves in the transport schedule.
        rounds: usize,
        /// Shuttle ops in the flat schedule.
        schedule: usize,
    },
    /// A gate executes in the middle of a round.
    RoundSpansGate {
        /// The interrupted round.
        round: usize,
    },
    /// Concurrent replay ended with an ion in a different trap than the
    /// serial replay.
    FinalMappingDiverged {
        /// The diverged ion.
        ion: qccd_machine::IonId,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Machine(e) => write!(f, "illegal round: {e}"),
            TransportError::MoveMismatch { op_index } => {
                write!(f, "round move disagrees with schedule op {op_index}")
            }
            TransportError::MoveCountMismatch { rounds, schedule } => write!(
                f,
                "transport schedule has {rounds} moves but the schedule has {schedule} shuttles"
            ),
            TransportError::RoundSpansGate { round } => {
                write!(f, "round {round} spans a gate execution")
            }
            TransportError::FinalMappingDiverged { ion } => {
                write!(f, "concurrent replay leaves {ion} in a different trap")
            }
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::{InitialMapping, IonId};

    fn sh(ion: u32, from: u32, to: u32) -> Operation {
        Operation::Shuttle {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    /// L4, capacity 4/comm 1, ions 0-2 in T0, 3-5 in T1, 6-8 in T2.
    fn fixture() -> (MachineSpec, InitialMapping) {
        let spec = MachineSpec::linear(4, 4, 1).unwrap();
        let mapping = InitialMapping::round_robin(&spec, 9).unwrap();
        (spec, mapping)
    }

    #[test]
    fn serial_packing_is_one_hop_per_round() {
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(5, 1, 2)]);
        let t = TransportSchedule::pack_serial(&schedule);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.max_round_width(), 1);
        t.validate(&schedule, &spec).unwrap();
    }

    #[test]
    fn concurrent_packing_merges_disjoint_hops() {
        // Segments (0,1), (2,3) and (1,2) are pairwise disjoint with
        // distinct ions and compatible junctions: all three hops share one
        // round. The fourth reuses segment (0,1) and opens a second.
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(
            mapping,
            vec![sh(2, 0, 1), sh(8, 2, 3), sh(5, 1, 2), sh(1, 0, 1)],
        );
        let t = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        assert_eq!(t.num_moves(), 4);
        assert_eq!(t.depth(), 2, "three concurrent hops, then one");
        assert_eq!(t.max_round_width(), 3);
        t.validate(&schedule, &spec).unwrap();
    }

    #[test]
    fn conflicting_hops_stay_serial() {
        // Same segment back-to-back: must split into two rounds.
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(2, 1, 0)]);
        let t = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        assert_eq!(t.depth(), 2);
        t.validate(&schedule, &spec).unwrap();
    }

    #[test]
    fn gates_close_rounds() {
        use qccd_machine::Operation::Gate;
        use qccd_machine::TrapId;
        let (spec, mapping) = fixture();
        // A gate between two otherwise-compatible hops forces two rounds.
        let ops = vec![
            sh(2, 0, 1),
            Gate {
                gate: qccd_circuit::GateId(0),
                trap: TrapId(1),
            },
            sh(8, 2, 3),
        ];
        let schedule = Schedule::new(mapping, ops);
        let t = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        assert_eq!(t.depth(), 2);
        t.validate(&schedule, &spec).unwrap();
    }

    #[test]
    fn lookahead_backfills_into_earlier_rounds() {
        // Greedy: h1=(ion2, 0→1) opens round 0; h2=(ion2, 1→0) conflicts
        // (same segment, same ion) and opens round 1; h3=(ion5, 1→2)
        // conflicts with round 1 (ion2 departs T1... no — h2 departs from
        // T1? h2 = 1→0, so departures[1] > 0, blocking h3's departure
        // from T1) and opens round 2. Lookahead backfills h3 into round 0,
        // where T1 only receives.
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(2, 1, 0), sh(5, 1, 2)]);
        let greedy = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        assert_eq!(greedy.depth(), 3);
        let packed = TransportSchedule::pack_lookahead(&schedule, &spec).unwrap();
        assert_eq!(packed.depth(), 2, "h3 rides with h1");
        assert_eq!(packed.num_moves(), 3);
        assert_eq!(packed.rounds[0].moves.len(), 2);
        packed.validate_relaxed(&schedule, &spec).unwrap();
    }

    #[test]
    fn lookahead_respects_per_ion_hop_order() {
        // ion 2's two hops must stay in distinct, ordered rounds even
        // though their segments are disjoint.
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(2, 1, 2)]);
        let packed = TransportSchedule::pack_lookahead(&schedule, &spec).unwrap();
        assert_eq!(packed.depth(), 2);
        packed.validate_relaxed(&schedule, &spec).unwrap();
    }

    #[test]
    fn lookahead_never_moves_hops_across_gates() {
        use qccd_machine::Operation::Gate;
        let (spec, mapping) = fixture();
        // The second run's hop would fit round 0, but a gate separates
        // the runs.
        let ops = vec![
            sh(2, 0, 1),
            Gate {
                gate: qccd_circuit::GateId(0),
                trap: TrapId(1),
            },
            sh(8, 2, 3),
        ];
        let schedule = Schedule::new(mapping, ops);
        let packed = TransportSchedule::pack_lookahead(&schedule, &spec).unwrap();
        assert_eq!(packed.depth(), 2);
        packed.validate_relaxed(&schedule, &spec).unwrap();
        packed.validate(&schedule, &spec).unwrap();
    }

    #[test]
    fn lookahead_is_never_deeper_than_greedy() {
        // A mixed workload: every prefix property the packer relies on is
        // replay-checked by apply_round inside close_run.
        let (spec, mapping) = fixture();
        let ops = vec![
            sh(2, 0, 1),
            sh(5, 1, 2),
            sh(2, 1, 0),
            sh(8, 2, 3),
            sh(5, 2, 1),
            sh(1, 0, 1),
        ];
        let schedule = Schedule::new(mapping, ops);
        let greedy = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        let packed = TransportSchedule::pack_lookahead(&schedule, &spec).unwrap();
        assert!(packed.depth() <= greedy.depth());
        assert_eq!(packed.num_moves(), greedy.num_moves());
        packed.validate_relaxed(&schedule, &spec).unwrap();
    }

    #[test]
    fn relaxed_validation_accepts_strictly_ordered_schedules() {
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(
            mapping,
            vec![sh(2, 0, 1), sh(8, 2, 3), sh(5, 1, 2), sh(1, 0, 1)],
        );
        let t = TransportSchedule::pack_concurrent(&schedule, &spec).unwrap();
        t.validate(&schedule, &spec).unwrap();
        t.validate_relaxed(&schedule, &spec).unwrap();
    }

    #[test]
    fn relaxed_validation_rejects_foreign_and_missing_moves() {
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(8, 2, 3)]);
        // A round with a move the schedule never performs.
        let foreign = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![
                    ShuttleMove {
                        ion: IonId(2),
                        from: TrapId(0),
                        to: TrapId(1),
                    },
                    ShuttleMove {
                        ion: IonId(5),
                        from: TrapId(1),
                        to: TrapId(2),
                    },
                ],
            }],
        };
        assert!(matches!(
            foreign.validate_relaxed(&schedule, &spec).unwrap_err(),
            TransportError::MoveMismatch { .. }
        ));
        // Rounds that do not cover every hop.
        let short = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![ShuttleMove {
                    ion: IonId(2),
                    from: TrapId(0),
                    to: TrapId(1),
                }],
            }],
        };
        assert!(matches!(
            short.validate_relaxed(&schedule, &spec).unwrap_err(),
            TransportError::MoveCountMismatch { .. }
        ));
    }

    #[test]
    fn validate_rejects_reordered_moves() {
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1), sh(8, 2, 3)]);
        let t = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![
                    ShuttleMove {
                        ion: IonId(8),
                        from: TrapId(2),
                        to: TrapId(3),
                    },
                    ShuttleMove {
                        ion: IonId(2),
                        from: TrapId(0),
                        to: TrapId(1),
                    },
                ],
            }],
        };
        assert_eq!(
            t.validate(&schedule, &spec).unwrap_err(),
            TransportError::MoveMismatch { op_index: 0 }
        );
    }

    #[test]
    fn validate_rejects_missing_rounds() {
        let (spec, mapping) = fixture();
        let schedule = Schedule::new(mapping, vec![sh(2, 0, 1)]);
        let t = TransportSchedule { rounds: vec![] };
        assert_eq!(
            t.validate(&schedule, &spec).unwrap_err(),
            TransportError::MoveCountMismatch {
                rounds: 0,
                schedule: 1
            }
        );
        // A leftover round is reported with the same counts.
        let extra = TransportSchedule::pack_serial(&Schedule::new(
            schedule.initial_mapping.clone(),
            vec![sh(2, 0, 1), sh(2, 1, 2)],
        ));
        assert_eq!(
            extra.validate(&schedule, &spec).unwrap_err(),
            TransportError::MoveCountMismatch {
                rounds: 2,
                schedule: 1
            }
        );
    }
}
