//! Delta scoring over the lowering fold: O(candidate-resources) candidate
//! pricing instead of O(suffix) checkpoint-and-re-lower.
//!
//! [`LowerState::score_ops`] prices a speculative suffix by cloning the
//! whole fold — the replayed [`MachineState`] (including the spec's
//! topology adjacency), every per-trap clock and every per-ion
//! availability — and advancing the clone. That clone is the entire cost:
//! a candidate shuttle walk only ever *touches* the clocks of the traps it
//! visits and the availability of the one ion it moves. [`DeltaScorer`]
//! exploits this: it applies each candidate op directly to the live fold's
//! clock frontiers, recording a small undo log (index, old value) per
//! touched resource plus shadow position/occupancy overlays for the
//! machine state, and rolls everything back after reading the projected
//! makespan. No allocation-per-candidate, no `MachineState` clone, no
//! event buffer: commits advance the fold with a no-op event sink.
//!
//! The arithmetic is a transcription of [`LowerState::advance`]'s
//! transport-less synthetic-round path, kept **bit-for-bit** equal to the
//! clone-based oracle (the invariant the `delta_properties` differential
//! harness and the `delta_regression` pins enforce):
//!
//! * **Legality** mirrors `MachineState::shuttle`'s check order exactly —
//!   ion range, destination range, self-shuttle, adjacency, destination
//!   fullness — against the *shadowed* position/occupancy (an earlier op
//!   in the same candidate may have moved the ion or filled the trap).
//!   Any failure prices the candidate as `None`, exactly as the oracle's
//!   single-member synthetic round turns `TrapFull` into a stalled round
//!   and every other machine error into a lowering error.
//! * **Timing** mirrors the synthetic round: legality reads the ion's
//!   *actual* (shadowed) trap, while junction counting and the involved
//!   trap set use the op's *claimed* endpoints — the same claimed/actual
//!   split `advance` has.
//! * **Makespan** is maintained as a scalar bound: ASAP rounds only ever
//!   raise the clocks they touch (`end ≥ start ≥` every involved clock),
//!   so `max(committed makespan, each round end)` equals the full fold's
//!   final `max` over all per-trap clocks — `f64::max` is exact, so the
//!   bound is not an approximation.
//!
//! Candidates containing gate operations (zone-promotion fixpoints change
//! chain *order*, which the occupancy overlay does not shadow) fall back
//! to the clone-based oracle; the compile loop's speculative candidates
//! are pure shuttle walks, so the fallback never fires on the hot path.
//!
//! The overlay reads the fold immutably and keeps every speculative write
//! in a private arena the scorer reuses across candidates, so rolling a
//! candidate back is clearing four short vectors.
//!
//! [`DeltaScorer::score_ops_full`] is the other end of the spectrum: the
//! **full re-lower oracle** behind `ScoreMode::Full`, which prices every
//! candidate by replaying the entire committed schedule plus the candidate
//! from the initial mapping — O(n) per candidate and quadratic over a
//! compile loop, but the strongest differential reference because it also
//! re-derives the committed fold itself from scratch.

use crate::model::TimingModel;
use crate::scheduler::{LowerError, LowerState};
use qccd_circuit::Circuit;
use qccd_machine::{InitialMapping, IonId, MachineSpec, Operation, Schedule, TrapId};

/// Shuttle-only candidates priced on the O(delta) overlay.
static DELTA_HITS: qccd_obs::Counter = qccd_obs::Counter::new("timing.delta_hits");
/// Gate-bearing candidates priced on the clone-based oracle instead —
/// never the compile loop's hot path (its candidates are pure walks).
static CLONE_FALLBACKS: qccd_obs::Counter = qccd_obs::Counter::new("timing.clone_fallbacks");
/// Full re-lower oracle invocations (`ScoreMode::Full`).
static FULL_SCORES: qccd_obs::Counter = qccd_obs::Counter::new("timing.full_scores");
/// Speculative shuttle applications to an overlay arena.
static DELTA_APPLIES: qccd_obs::Counter = qccd_obs::Counter::new("timing.delta_applies");
/// Speculation unwinds — arena resets, one per delta-scored candidate.
static DELTA_UNDOS: qccd_obs::Counter = qccd_obs::Counter::new("timing.delta_undos");

/// Per-candidate speculative write-set, reused across candidates to keep
/// the hot path allocation-free.
#[derive(Debug, Clone, Default)]
struct ScoreArena {
    /// Shadow position overrides: latest entry for an ion wins.
    moved: Vec<(IonId, TrapId)>,
    /// Shadow per-trap occupancy deltas.
    occ_delta: Vec<(usize, i64)>,
    /// Speculative per-trap clock writes (index, value): latest wins.
    clock_w: Vec<(usize, f64)>,
    /// Speculative per-ion availability writes (index, value): latest wins.
    avail_w: Vec<(usize, f64)>,
}

impl ScoreArena {
    fn reset(&mut self) {
        self.moved.clear();
        self.occ_delta.clear();
        self.clock_w.clear();
        self.avail_w.clear();
    }

    /// The trap holding `ion` under the current overlay (latest move
    /// wins, else the fold's machine state).
    fn trap_of(&self, state: &LowerState, ion: IonId) -> TrapId {
        self.moved
            .iter()
            .rev()
            .find(|&&(i, _)| i == ion)
            .map(|&(_, t)| t)
            .unwrap_or_else(|| state.state.trap_of(ion))
    }

    /// Occupancy of `trap` under the current overlay.
    fn occupancy(&self, state: &LowerState, trap: TrapId) -> i64 {
        let base = i64::from(state.state.occupancy(trap));
        let delta: i64 = self
            .occ_delta
            .iter()
            .filter(|&&(t, _)| t == trap.index())
            .map(|&(_, d)| d)
            .sum();
        base + delta
    }

    fn bump_occupancy(&mut self, trap: usize, by: i64) {
        match self.occ_delta.iter_mut().find(|(t, _)| *t == trap) {
            Some((_, d)) => *d += by,
            None => self.occ_delta.push((trap, by)),
        }
    }

    /// Trap clock under the overlay (latest speculative write wins).
    fn clock(&self, state: &LowerState, trap: usize) -> f64 {
        self.clock_w
            .iter()
            .rev()
            .find(|&&(t, _)| t == trap)
            .map(|&(_, v)| v)
            .unwrap_or(state.clock[trap])
    }

    /// Ion availability under the overlay (latest speculative write wins).
    fn avail(&self, state: &LowerState, ion: usize) -> f64 {
        self.avail_w
            .iter()
            .rev()
            .find(|&&(q, _)| q == ion)
            .map(|&(_, v)| v)
            .unwrap_or(state.avail[ion])
    }
}

/// Prices a shuttle-only candidate against `state` without touching it:
/// the projected makespan after `ops` from the committed `base_makespan`,
/// or `None` on the first illegal op. All speculative writes live in
/// `arena` (reset on entry) and the arithmetic is the same float-op
/// sequence as [`LowerState::advance`]'s transport-less
/// synthetic-round path, bit-for-bit (see the module docs for the
/// legality/claimed-endpoint contract).
fn score_shuttles_overlay(
    state: &LowerState,
    base_makespan: f64,
    ops: &[Operation],
    spec: &MachineSpec,
    arena: &mut ScoreArena,
) -> Option<f64> {
    arena.reset();
    DELTA_APPLIES.add(ops.len() as u64);
    DELTA_UNDOS.incr();
    // `advance` takes junction counts from the *passed* spec's topology
    // but shuttle legality from the machine's own spec — mirror the
    // split even though callers pass the same spec.
    let topology = spec.topology();
    let model = state.model;
    let mut score = base_makespan;
    for op in ops {
        let &Operation::Shuttle { ion, from, to } = op else {
            unreachable!("gate candidates take the oracle path");
        };
        // Legality, in `MachineState::shuttle`'s exact check order,
        // against the overlaid state. Every failure mode — TrapFull via
        // the stalled single-member round, the rest via machine errors —
        // makes the oracle score `None`; collapse them.
        let machine_spec = state.state.spec();
        if ion.index() >= state.avail.len() {
            return None;
        }
        if machine_spec.check_trap(to).is_err() {
            return None;
        }
        let actual_from = arena.trap_of(state, ion);
        if actual_from == to {
            return None;
        }
        if !machine_spec.topology().are_adjacent(actual_from, to) {
            return None;
        }
        let capacity = i64::from(machine_spec.total_capacity());
        if arena.occupancy(state, to) >= capacity {
            return None;
        }
        // Overlay the move: the ion departs its actual trap and lands in
        // `to`.
        arena.moved.push((ion, to));
        arena.bump_occupancy(actual_from.index(), -1);
        arena.bump_occupancy(to.index(), 1);
        // Synthetic single-hop round timing, claimed endpoints.
        let junctions = TimingModel::junctions_crossed(topology, from, to);
        let tau = 0.0f64.max(model.hop_us(junctions));
        let mut start = 0.0f64.max(arena.avail(state, ion.index()));
        start = start.max(arena.clock(state, from.index()));
        if to.index() != from.index() {
            start = start.max(arena.clock(state, to.index()));
        }
        let end = start + tau;
        arena.avail_w.push((ion.index(), end));
        arena.clock_w.push((from.index(), end));
        if to.index() != from.index() {
            arena.clock_w.push((to.index(), end));
        }
        score = score.max(end);
    }
    Some(score)
}

/// The lowering fold plus the overlay machinery for O(delta) speculative
/// scoring with cheap undo.
#[derive(Debug, Clone)]
pub struct DeltaScorer {
    /// The committed fold. Only [`commit`](DeltaScorer::commit) advances
    /// it; speculation touches `clock`/`avail` but always restores them.
    state: LowerState,
    /// Cached `state.makespan_us()`, refreshed on every commit so each
    /// speculation starts from a scalar instead of re-folding the clocks.
    makespan: f64,
    /// Reused overlay arena for this scorer's speculations.
    arena: ScoreArena,
    /// Candidates scored since construction (delta and fallback paths).
    speculations: usize,
    /// The initial mapping the fold started from — the replay origin for
    /// the full re-lower oracle ([`score_ops_full`](Self::score_ops_full)).
    mapping: InitialMapping,
    /// Every operation committed so far, in order. Only the full oracle
    /// reads this; the delta path never walks it.
    committed: Vec<Operation>,
}

impl DeltaScorer {
    /// Starts the fold at time zero over `mapping`.
    ///
    /// # Errors
    ///
    /// As [`LowerState::new`].
    pub fn new(
        mapping: &InitialMapping,
        spec: &MachineSpec,
        model: &TimingModel,
    ) -> Result<Self, LowerError> {
        let state = LowerState::new(mapping, spec, model)?;
        let makespan = state.makespan_us();
        Ok(DeltaScorer {
            state,
            makespan,
            arena: ScoreArena::default(),
            speculations: 0,
            mapping: mapping.clone(),
            committed: Vec::new(),
        })
    }

    /// The committed fold (the differential oracle scores from here via
    /// [`LowerState::score_ops`]).
    pub fn state(&self) -> &LowerState {
        &self.state
    }

    /// The committed fold's makespan, µs.
    pub fn makespan_us(&self) -> f64 {
        self.makespan
    }

    /// Candidates scored so far (both delta and oracle-fallback paths).
    pub fn speculations(&self) -> usize {
        self.speculations
    }

    /// Advances the committed fold through one operation and refreshes the
    /// cached makespan.
    ///
    /// # Errors
    ///
    /// As [`LowerState::advance`]; on error the fold must be discarded.
    pub fn commit(
        &mut self,
        op: &Operation,
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Result<(), LowerError> {
        self.state
            .advance(std::slice::from_ref(op), None, circuit, spec, &mut |_| {})?;
        self.committed.push(*op);
        self.makespan = self.state.makespan_us();
        Ok(())
    }

    /// Scores a candidate suffix without committing it: the projected
    /// makespan after `ops`, or `None` when the suffix does not replay
    /// legally from here. Bit-for-bit equal to
    /// [`LowerState::score_ops`] on the committed fold — the delta path
    /// just pays O(resources touched) instead of cloning the fold.
    pub fn score_ops(
        &mut self,
        ops: &[Operation],
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Option<f64> {
        self.speculations += 1;
        if ops.iter().any(|op| matches!(op, Operation::Gate { .. })) {
            // Gate candidates need the zone-promotion fixpoint over chain
            // *order*, which the occupancy overlay does not shadow: price
            // them on the clone-based oracle.
            CLONE_FALLBACKS.incr();
            return self.state.score_ops(ops, circuit, spec);
        }
        DELTA_HITS.incr();
        score_shuttles_overlay(&self.state, self.makespan, ops, spec, &mut self.arena)
    }

    /// Scores a candidate suffix on the **full re-lower oracle**
    /// (`ScoreMode::Full`): replays the entire committed schedule plus
    /// the candidate from the initial mapping through [`lower`] — O(n)
    /// per candidate, quadratic over a compile loop. This is the
    /// strongest differential reference: it validates not just the
    /// speculative overlay but the incremental maintenance of the
    /// committed fold itself, since any drift between the live frontiers
    /// and a from-scratch replay shows up as a score divergence. Bumps
    /// the same speculation counter as [`score_ops`](Self::score_ops) so
    /// the two modes stay stat-for-stat identical.
    ///
    /// [`lower`]: crate::scheduler::lower
    pub fn score_ops_full(
        &mut self,
        ops: &[Operation],
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Option<f64> {
        self.speculations += 1;
        FULL_SCORES.incr();
        let mut all = Vec::with_capacity(self.committed.len() + ops.len());
        all.extend_from_slice(&self.committed);
        all.extend_from_slice(ops);
        let schedule = Schedule::new(self.mapping.clone(), all);
        crate::scheduler::lower(&schedule, None, circuit, spec, &self.state.model)
            .ok()
            .map(|timeline| timeline.makespan_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_machine::TrapTopology;

    fn sh(ion: u32, from: u32, to: u32) -> Operation {
        Operation::Shuttle {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    fn scorer(spec: &MachineSpec, ions: u32, model: &TimingModel) -> DeltaScorer {
        let mapping = InitialMapping::round_robin(spec, ions).unwrap();
        DeltaScorer::new(&mapping, spec, model).unwrap()
    }

    /// Every candidate must price identically on both paths, including
    /// after commits have advanced the fold.
    #[test]
    fn delta_score_equals_oracle_on_linear_machine() {
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let circuit = Circuit::new(6);
        let mut s = scorer(&spec, 6, &TimingModel::realistic());
        // round_robin fills sequentially: ions 0-2 in T0, 3-5 in T1.
        let candidates: Vec<Vec<Operation>> = vec![
            vec![],
            vec![sh(0, 0, 1)],
            vec![sh(0, 0, 1), sh(0, 1, 2)],
            vec![sh(5, 1, 2), sh(0, 0, 1)],
        ];
        for ops in &candidates {
            let oracle = s.state().score_ops(ops, &circuit, &spec);
            let delta = s.score_ops(ops, &circuit, &spec);
            assert_eq!(delta, oracle, "candidate {ops:?}");
        }
        // Advance the fold, then re-check: deltas must track commits.
        s.commit(&sh(2, 0, 1), &circuit, &spec).unwrap();
        s.commit(&sh(2, 1, 2), &circuit, &spec).unwrap();
        for ops in &candidates {
            let oracle = s.state().score_ops(ops, &circuit, &spec);
            let delta = s.score_ops(ops, &circuit, &spec);
            assert_eq!(delta, oracle, "post-commit candidate {ops:?}");
        }
        assert_eq!(s.makespan_us(), s.state().makespan_us());
        assert_eq!(s.speculations(), 2 * candidates.len());
    }

    /// Junction-heavy grid hops exercise the claimed-endpoint junction
    /// arithmetic.
    #[test]
    fn delta_score_equals_oracle_on_grid_junctions() {
        let spec = MachineSpec::new(TrapTopology::grid(3, 3), 4, 1).unwrap();
        let circuit = Circuit::new(4);
        let mut s = scorer(&spec, 4, &TimingModel::realistic());
        // round_robin fills sequentially: ions 0-2 in T0, ion 3 in T1.
        // T4 is the grid centre; T1/T4/T7 hops cross junction endpoints.
        for ops in [
            vec![sh(3, 1, 4)],
            vec![sh(3, 1, 4), sh(3, 4, 7)],
            vec![sh(0, 0, 1), sh(3, 1, 4)],
        ] {
            let oracle = s.state().score_ops(&ops, &circuit, &spec);
            let delta = s.score_ops(&ops, &circuit, &spec);
            assert!(oracle.is_some());
            assert_eq!(delta, oracle, "candidate {ops:?}");
        }
    }

    /// Illegal candidates — full destination, non-adjacent hop, self
    /// shuttle via shadowed position, unknown ion/trap — price `None` on
    /// both paths and leave the scorer untouched.
    #[test]
    fn infeasible_candidates_are_none_on_both_paths() {
        let spec = MachineSpec::linear(3, 2, 0).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(2)])
                .unwrap();
        let circuit = Circuit::new(4);
        let mut s = DeltaScorer::new(&mapping, &spec, &TimingModel::realistic()).unwrap();
        let before_clock = s.state().trap_clocks().to_vec();
        let before_avail = s.state().ion_avail().to_vec();
        let cases: Vec<Vec<Operation>> = vec![
            vec![sh(0, 0, 1)],              // T1 full
            vec![sh(0, 0, 2)],              // not adjacent
            vec![sh(1, 1, 0), sh(1, 0, 0)], // self shuttle after a shadow move
            vec![sh(9, 0, 1)],              // unknown ion
            vec![sh(0, 0, 9)],              // unknown trap
            vec![sh(1, 1, 0), sh(2, 1, 0)], // shadow moves fill T0 up
        ];
        for ops in &cases {
            assert_eq!(s.state().score_ops(ops, &circuit, &spec), None, "{ops:?}");
            assert_eq!(s.score_ops(ops, &circuit, &spec), None, "{ops:?}");
            assert_eq!(s.state().trap_clocks(), &before_clock[..]);
            assert_eq!(s.state().ion_avail(), &before_avail[..]);
        }
        // A departure-then-arrival sequence IS legal serially (the
        // departure frees the slot before the arrival prices).
        let pipelined = vec![sh(1, 1, 0), sh(0, 0, 1)];
        let oracle = s.state().score_ops(&pipelined, &circuit, &spec);
        assert!(oracle.is_some());
        assert_eq!(s.score_ops(&pipelined, &circuit, &spec), oracle);
    }

    /// A candidate whose claimed source disagrees with the ion's actual
    /// trap replays via the actual trap but prices via the claimed one —
    /// both paths must agree on that quirk.
    #[test]
    fn claimed_vs_actual_source_split_matches_oracle() {
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let circuit = Circuit::new(6);
        let mut s = scorer(&spec, 6, &TimingModel::realistic());
        // Ion 0 actually sits in T0; claim T2 as its source. The hop
        // T0→T1 is adjacent so the replay succeeds, while the claimed
        // T2→T1 drives the junction/involved arithmetic.
        let ops = vec![sh(0, 2, 1)];
        let oracle = s.state().score_ops(&ops, &circuit, &spec);
        assert!(oracle.is_some());
        assert_eq!(s.score_ops(&ops, &circuit, &spec), oracle);
    }

    /// Speculation must never perturb later scores or commits: score,
    /// commit the candidate, and land exactly on the projection.
    #[test]
    fn undo_restores_scoring_and_commit_lands_on_projection() {
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let circuit = Circuit::new(6);
        let mut s = scorer(&spec, 6, &TimingModel::realistic());
        let walk = vec![sh(0, 0, 1), sh(0, 1, 2)];
        let first = s.score_ops(&walk, &circuit, &spec).unwrap();
        let second = s.score_ops(&walk, &circuit, &spec).unwrap();
        assert_eq!(first, second, "undo must be exact");
        for op in &walk {
            s.commit(op, &circuit, &spec).unwrap();
        }
        assert_eq!(s.makespan_us(), first, "commit lands on the projection");
    }

    /// Gate-containing candidates take the oracle fallback and still
    /// agree with it.
    #[test]
    fn gate_candidates_fall_back_to_oracle() {
        use qccd_circuit::{Opcode, Qubit};
        use qccd_machine::Schedule;

        let mut circuit = Circuit::new(4);
        circuit
            .push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1))
            .unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let mut s = DeltaScorer::new(&mapping, &spec, &TimingModel::realistic()).unwrap();
        let ops = vec![
            Operation::Gate {
                gate: qccd_circuit::GateId(0),
                trap: TrapId(0),
            },
            sh(1, 0, 1),
        ];
        let oracle = s.state().score_ops(&ops, &circuit, &spec);
        assert!(oracle.is_some());
        assert_eq!(s.score_ops(&ops, &circuit, &spec), oracle);
        // And the projection matches a real lowering of the same ops.
        let schedule = Schedule::new(mapping, ops.clone());
        let full =
            crate::scheduler::lower(&schedule, None, &circuit, &spec, &TimingModel::realistic())
                .unwrap();
        assert_eq!(oracle, Some(full.makespan_us));
    }
}
