//! ASAP lowering of a compiled schedule onto the device clock.
//!
//! [`lower`] runs the whole schedule in one pass. The fold it runs is also
//! exposed as the resumable [`LowerState`], so callers that repeatedly
//! re-lower *perturbed* schedules — the `qccd-pack` transport optimizer
//! scores every candidate rewrite on the device clock — can checkpoint the
//! fold at a chunk boundary (clone the state) and re-lower only the suffix
//! instead of paying a full O(n) `lower` per candidate.

use crate::model::TimingModel;
use crate::timeline::{EventRef, TimedMove, Timeline};
use qccd_circuit::{Circuit, GateId, GateQubits};
use qccd_machine::{
    InitialMapping, IonId, MachineError, MachineSpec, MachineState, Operation, Placement, Schedule,
    TrapId, TrapTopology,
};
use qccd_route::{RoundList, TransportRound, TransportSchedule};
use std::error::Error;
use std::fmt;

/// One shuttle hop: ion, source trap, destination trap.
pub(crate) type Move = (IonId, TrapId, TrapId);

/// Lowers a compiled `schedule` into a validated ASAP [`Timeline`] under
/// `model`.
///
/// The scheduler replays the ion placement and assigns every operation the
/// earliest start compatible with its resources:
///
/// * a **gate** starts when its trap is free and every operand qubit's
///   prior operations have finished; it occupies the trap for the model's
///   (chain-length-dependent) gate duration;
/// * a **transport round** — taken from `transport`, or one synthetic
///   single-hop round per shuttle op when `transport` is `None` — starts
///   when all its member traps are free and all member ions are available,
///   and lasts its *critical path*: the slowest member hop (split +
///   segment transit + junction corners + merge). All member segments and
///   endpoint traps are occupied for the full round;
/// * a **zone move** is synthesized before a gate whenever an operand ion
///   sits outside its trap's gate zone (multi-zone layouts only): the ion
///   is reordered to the chain front at the model's zone-move cost.
///
/// Under [`TimingModel::ideal`] this reproduces the historical uniform-hop
/// simulator's clock arithmetic bit-for-bit.
///
/// `schedule` must already be replay-valid against `circuit`/`spec` (as
/// every [`compile`](../qccd_core/fn.compile.html) result is); lowering
/// only re-checks what it must replay (shuttle legality, transport-round
/// coverage). [`replay`](crate::replay) is the same fold with every
/// schedule and transport check folded in.
///
/// # Errors
///
/// * [`LowerError::InvalidModel`] — `model` has non-finite or negative
///   constants.
/// * [`LowerError::TransportMismatch`] — `transport`'s rounds do not cover
///   the schedule's shuttle operations (wrong moves, empty rounds, rounds
///   spanning a gate, or leftover rounds).
/// * [`LowerError::Machine`] — a shuttle replay violated machine rules.
/// * [`LowerError::StalledRound`] — a round's moves could not be applied
///   in any order (an illegal hand-built round).
pub fn lower(
    schedule: &Schedule,
    transport: Option<&TransportSchedule>,
    circuit: &Circuit,
    spec: &MachineSpec,
    model: &TimingModel,
) -> Result<Timeline, LowerError> {
    let _phase = qccd_obs::span("lowering");
    let mut state = LowerState::new(&schedule.initial_mapping, spec, model)?;
    let mut timeline = Timeline::for_schedule(schedule);
    state.advance(
        &schedule.operations,
        transport.map(|t| t.rounds.as_slice()),
        circuit,
        spec,
        &mut |event| timeline.push(event),
    )?;
    Ok(state.finish(timeline))
}

/// The ion placement a lowering fold replays: chain-free on single-zone
/// layouts, with the ordered chains where multi-zone gate-zone promotion
/// reads their order.
#[derive(Debug, Clone)]
pub(crate) enum Ions {
    Flat(Placement),
    Chains(MachineState),
}

impl Ions {
    pub(crate) fn new(spec: &MachineSpec, mapping: &InitialMapping) -> Result<Self, MachineError> {
        Ok(if spec.zone_layout().is_single() {
            Ions::Flat(Placement::with_mapping(spec, mapping)?)
        } else {
            Ions::Chains(MachineState::with_mapping(spec, mapping)?)
        })
    }

    pub(crate) fn placement(&self) -> &Placement {
        match self {
            Ions::Flat(p) => p,
            Ions::Chains(m) => m.placement(),
        }
    }

    pub(crate) fn shuttle(&mut self, ion: IonId, to: TrapId) -> Result<(), MachineError> {
        match self {
            Ions::Flat(p) => p.shuttle(ion, to).map(drop),
            Ions::Chains(m) => m.shuttle(ion, to),
        }
    }

    fn promote_to_gate_zone(&mut self, ion: IonId) -> bool {
        match self {
            Ions::Flat(_) => false,
            Ions::Chains(m) => m.promote_to_gate_zone(ion),
        }
    }
}

/// The resumable ASAP-lowering fold behind [`lower`].
///
/// `LowerState` carries everything the lowering loop threads between
/// operations — the replayed ion [`Placement`] (with chain order only on
/// multi-zone layouts), the per-trap device clocks, the per-qubit
/// availability times, and the event counters — but **not** the events:
/// [`advance`](LowerState::advance) hands each one to a caller-supplied
/// sink as it is emitted. [`lower`] collects them into a [`Timeline`];
/// scoring callers pass a no-op sink and store nothing. This makes a
/// checkpoint a cheap `clone()` (O(ions + traps), independent of how many
/// events the prefix produced; the per-round working buffers are not
/// copied), so a transport optimizer can:
///
/// 1. [`advance`](LowerState::advance) through the accepted prefix once,
/// 2. clone the state at a candidate's chunk boundary,
/// 3. advance the clone through the candidate suffix and compare
///    [`makespan_us`](LowerState::makespan_us) — an O(suffix) score instead
///    of an O(n) full re-lower.
///
/// Chunk boundaries must not split a transport round, and each `advance`
/// call's `transport` slice must cover exactly its chunk's shuttle
/// operations. Chunking a schedule at such boundaries is *bit-for-bit*
/// equivalent to one whole-schedule [`lower`] call: the fold is a left
/// fold, and the chunk boundary carries its entire state.
#[derive(Debug, Clone)]
pub struct LowerState {
    pub(crate) model: TimingModel,
    pub(crate) state: Ions,
    pub(crate) clocks: Clocks,
    pub(crate) buffers: RoundBuffers,
}

/// The fold's device clocks and event counters.
#[derive(Debug, Clone)]
pub(crate) struct Clocks {
    /// Per-trap device clock, µs.
    pub(crate) clock: Vec<f64>,
    /// Per-qubit availability time, µs.
    pub(crate) avail: Vec<f64>,
    gates: usize,
    shuttles: usize,
    shuttle_depth: usize,
    zone_moves: usize,
    junction_crossings: usize,
}

/// The per-round working buffers of [`LowerState::advance`], cleared and
/// reused by every round. A clone starts empty: the buffers carry nothing
/// between rounds, so a checkpoint need not copy them.
#[derive(Debug, Default)]
pub(crate) struct RoundBuffers {
    /// The current gate-free run, as the multiset of moves still awaiting
    /// a round (`None` once taken).
    run: Vec<Option<Move>>,
    /// The round's member moves, in transport order.
    pub(crate) members: Vec<Move>,
    /// Members not yet applied by the departures-first retry.
    pending: Vec<Move>,
    /// Members a retry pass found blocked.
    still: Vec<Move>,
    /// The applied members, in application order.
    pub(crate) timed: Vec<TimedMove>,
    /// The round's involved traps, deduplicated.
    pub(crate) involved: Vec<TrapId>,
}

impl Clone for RoundBuffers {
    fn clone(&self) -> Self {
        RoundBuffers::default()
    }
}

impl Clocks {
    /// Folds one gate on `trap`: the multi-zone operand promotions first,
    /// then the gate event.
    fn gate(
        &mut self,
        model: &TimingModel,
        ions: &mut Ions,
        gate: GateId,
        trap: TrapId,
        circuit: &Circuit,
        sink: &mut impl FnMut(EventRef<'_>),
    ) {
        let g = circuit.gate(gate);
        let t = trap.index();
        // Multi-zone traps: operands outside the gate zone need an
        // explicit timed reorder first. Promoting one operand to the chain
        // front shifts the others back, so it can push an already-checked
        // operand out again — iterate until every operand is
        // *simultaneously* gate-ready (the gate zone holds ≥ 2 ions by
        // validation, so this settles in at most a few passes). Never fires
        // under the default single-zone layout, which keeps no chains.
        if let Ions::Chains(_) = ions {
            loop {
                let mut promoted = false;
                for q in g.qubits.iter() {
                    let ion = IonId::from(q);
                    if ions.promote_to_gate_zone(ion) {
                        let start = self.clock[t].max(self.avail[ion.index()]);
                        let end = start + model.zone_move_us();
                        self.clock[t] = end;
                        self.avail[ion.index()] = end;
                        self.zone_moves += 1;
                        sink(EventRef::ZoneMove {
                            ion,
                            trap,
                            start_us: start,
                            end_us: end,
                        });
                        promoted = true;
                    }
                }
                if !promoted {
                    break;
                }
            }
        }
        let chain_len = ions.placement().occupancy(trap);
        let tau = match g.qubits {
            GateQubits::One(_) => model.one_qubit_gate_us(),
            GateQubits::Two(_, _) => model.two_qubit_gate_us(chain_len),
        };
        let start = g
            .qubits
            .iter()
            .map(|q| self.avail[q.index()])
            .fold(self.clock[t], f64::max);
        let end = start + tau;
        self.clock[t] = end;
        for q in g.qubits.iter() {
            self.avail[q.index()] = end;
        }
        self.gates += 1;
        sink(EventRef::Gate {
            gate,
            trap,
            chain_len,
            start_us: start,
            end_us: end,
        });
    }

    /// Applies one hop, recording it as a timed round member. On error
    /// nothing changed.
    pub(crate) fn hop(
        &mut self,
        ions: &mut Ions,
        (ion, from, to): Move,
        topology: &TrapTopology,
    ) -> Result<TimedMove, MachineError> {
        let src_occupancy = ions.placement().occupancy(from);
        ions.shuttle(ion, to)?;
        let junctions = TimingModel::junctions_crossed(topology, from, to);
        self.junction_crossings += junctions as usize;
        Ok(TimedMove {
            ion,
            from,
            to,
            src_occupancy,
            junctions,
        })
    }

    /// Folds a round of one move: the straight-line path every serial
    /// round takes, with no buffers. On error nothing changed.
    pub(crate) fn one_move_round(
        &mut self,
        model: &TimingModel,
        ions: &mut Ions,
        hop: Move,
        topology: &TrapTopology,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), MachineError> {
        let timed = self.hop(ions, hop, topology)?;
        let (ion, from, to) = hop;
        let both = [from, to];
        let involved = if to == from { &both[..1] } else { &both[..] };
        let tau = 0.0f64.max(model.hop_us(timed.junctions));
        let start = involved
            .iter()
            .map(|t| self.clock[t.index()])
            .fold(0.0f64.max(self.avail[ion.index()]), f64::max);
        let end = start + tau;
        self.avail[ion.index()] = end;
        for t in involved {
            self.clock[t.index()] = end;
        }
        self.shuttles += 1;
        self.shuttle_depth += 1;
        sink(EventRef::TransportRound {
            moves: std::slice::from_ref(&timed),
            involved,
            start_us: start,
            end_us: end,
        });
        Ok(())
    }

    /// The lowering error of a one-move round whose hop failed: a full
    /// destination can never be freed within the round, so it stalls.
    fn stalled(&self, e: MachineError) -> LowerError {
        match e {
            MachineError::TrapFull { .. } => LowerError::StalledRound {
                round: self.shuttle_depth,
            },
            e => LowerError::Machine(e),
        }
    }

    /// Folds the timing of a round whose `members` (in transport order)
    /// were applied as `timed`: it starts when every member trap is free
    /// and every member ion's dependencies resolved, and lasts its
    /// critical-path hop.
    pub(crate) fn round(
        &mut self,
        model: &TimingModel,
        members: &[Move],
        timed: &[TimedMove],
        involved: &mut Vec<TrapId>,
        sink: &mut impl FnMut(EventRef<'_>),
    ) {
        involved.clear();
        for &(_, from, to) in members {
            for t in [from, to] {
                if !involved.contains(&t) {
                    involved.push(t);
                }
            }
        }
        let tau = timed
            .iter()
            .map(|m| model.hop_us(m.junctions))
            .fold(0.0f64, f64::max);
        let start = members
            .iter()
            .map(|&(ion, _, _)| self.avail[ion.index()])
            .chain(involved.iter().map(|t| self.clock[t.index()]))
            .fold(0.0f64, f64::max);
        let end = start + tau;
        for &(ion, _, _) in members {
            self.avail[ion.index()] = end;
        }
        for t in involved.iter() {
            self.clock[t.index()] = end;
        }
        self.shuttles += members.len();
        self.shuttle_depth += 1;
        sink(EventRef::TransportRound {
            moves: timed,
            involved,
            start_us: start,
            end_us: end,
        });
    }
}

/// The end of the gate-free run of shuttle operations starting at `start`.
pub(crate) fn run_end(ops: &[Operation], start: usize) -> usize {
    ops[start..]
        .iter()
        .position(|op| matches!(op, Operation::Gate { .. }))
        .map_or(ops.len(), |n| start + n)
}

/// The hop of the shuttle operation at `i`.
pub(crate) fn hop_at(ops: &[Operation], i: usize) -> Move {
    match ops[i] {
        Operation::Shuttle { ion, from, to } => (ion, from, to),
        Operation::Gate { .. } => unreachable!("gate-free runs hold only shuttles"),
    }
}

impl LowerState {
    /// Starts the fold at time zero with every ion at its initial trap.
    ///
    /// # Errors
    ///
    /// * [`LowerError::InvalidModel`] — `model` has non-finite or negative
    ///   constants.
    /// * [`LowerError::Machine`] — `mapping` does not fit `spec`.
    pub fn new(
        mapping: &InitialMapping,
        spec: &MachineSpec,
        model: &TimingModel,
    ) -> Result<Self, LowerError> {
        if !model.is_valid() {
            return Err(LowerError::InvalidModel);
        }
        let state = Ions::new(spec, mapping).map_err(LowerError::Machine)?;
        Ok(LowerState::starting(state, spec, model))
    }

    /// Starts the fold over a placement built from `spec`; `model` must be
    /// valid.
    pub(crate) fn starting(state: Ions, spec: &MachineSpec, model: &TimingModel) -> Self {
        let num_ions = state.placement().num_ions() as usize;
        LowerState {
            model: *model,
            state,
            clocks: Clocks {
                clock: vec![0.0; spec.num_traps() as usize],
                avail: vec![0.0; num_ions],
                gates: 0,
                shuttles: 0,
                shuttle_depth: 0,
                zone_moves: 0,
                junction_crossings: 0,
            },
            buffers: RoundBuffers::default(),
        }
    }

    /// The fold's makespan so far: the latest per-trap clock, µs.
    pub fn makespan_us(&self) -> f64 {
        self.clocks.clock.iter().copied().fold(0.0f64, f64::max)
    }

    /// Per-trap device clocks so far, µs.
    ///
    /// ASAP lowering is monotone in these (every event start is a max over
    /// a subset of clocks and availabilities), so a state whose clocks and
    /// availabilities are all ≤ another's can only produce an equal or
    /// earlier makespan for any shared suffix — the comparison a local
    /// rewrite optimizer needs to accept a candidate without re-lowering
    /// the whole tail.
    pub fn trap_clocks(&self) -> &[f64] {
        &self.clocks.clock
    }

    /// Per-qubit availability times so far, µs.
    pub fn ion_avail(&self) -> &[f64] {
        &self.clocks.avail
    }

    /// The replayed ion placement after every operation advanced so far.
    pub fn placement(&self) -> &Placement {
        self.state.placement()
    }

    /// Checkpoints the fold: an independent copy that can advance through
    /// a *speculative* suffix without disturbing this state. Rolling back
    /// is dropping the checkpointed copy — the original fold never moved.
    ///
    /// This is the accessor pair a compile-loop objective needs: advance
    /// the real state through committed operations, [`checkpoint`] before
    /// every open decision, [`score_ops`](LowerState::score_ops) each
    /// candidate on the copy, commit the winner, drop the rest.
    ///
    /// [`checkpoint`]: LowerState::checkpoint
    pub fn checkpoint(&self) -> LowerState {
        self.clone()
    }

    /// Scores a candidate suffix without committing it: advances a
    /// checkpointed copy through `ops` (each shuttle as a synthetic
    /// single-hop round, as in transport-less [`lower`]) and returns the
    /// copy's projected makespan, µs.
    ///
    /// Returns `None` when the suffix does not replay legally from here
    /// (e.g. a speculative hop into a trap that is full at this point of
    /// the fold) — the candidate is infeasible as priced and the caller
    /// should score it as unboundedly late or fall back.
    pub fn score_ops(
        &self,
        ops: &[Operation],
        circuit: &Circuit,
        spec: &MachineSpec,
    ) -> Option<f64> {
        let mut copy = self.checkpoint();
        copy.advance(ops, None, circuit, spec, &mut |_| {}).ok()?;
        Some(copy.makespan_us())
    }

    /// Transport rounds lowered so far (the fold's shuttle depth).
    pub fn shuttle_depth(&self) -> usize {
        self.clocks.shuttle_depth
    }

    /// Zone reorders synthesized so far.
    pub fn zone_moves(&self) -> usize {
        self.clocks.zone_moves
    }

    /// Junction endpoints crossed by every move lowered so far.
    pub fn junction_crossings(&self) -> usize {
        self.clocks.junction_crossings
    }

    /// Advances the fold through one chunk of operations, handing every
    /// timed event to `sink` as it is emitted, in schedule order. A
    /// round's member slices borrow the fold's reused buffers and are
    /// valid only for the call.
    ///
    /// With `Some(rounds)`, the chunk's shuttle operations are grouped into
    /// exactly those rounds (in order, none spanning a gate, none left
    /// over); with `None`, each shuttle op becomes one synthetic single-hop
    /// round. A gate-free run must not be split across `advance` calls
    /// mid-round; splitting at round boundaries is fine.
    ///
    /// On error the state is left partially advanced and must be discarded;
    /// the events emitted before the error have already reached `sink`.
    ///
    /// # Errors
    ///
    /// As [`lower`]; `op_index` in [`LowerError::TransportMismatch`] is
    /// relative to this chunk's `ops`.
    pub fn advance(
        &mut self,
        ops: &[Operation],
        transport: Option<&[TransportRound]>,
        circuit: &Circuit,
        spec: &MachineSpec,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), LowerError> {
        self.advance_with(ops, transport, circuit, spec, sink)
    }

    /// [`advance`](Self::advance) with `rounds` in either form — nested
    /// or [`FlatRounds`](qccd_route::FlatRounds) — read one round at a
    /// time by the same fold.
    ///
    /// # Errors
    ///
    /// As [`advance`](Self::advance).
    pub fn advance_rounds<R: RoundList + ?Sized>(
        &mut self,
        ops: &[Operation],
        rounds: &R,
        circuit: &Circuit,
        spec: &MachineSpec,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), LowerError> {
        self.advance_with(ops, Some(rounds), circuit, spec, sink)
    }

    fn advance_with<R: RoundList + ?Sized>(
        &mut self,
        ops: &[Operation],
        transport: Option<&R>,
        circuit: &Circuit,
        spec: &MachineSpec,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), LowerError> {
        let topology = spec.topology();
        let mut round_idx = 0usize;
        let mut i = 0usize;
        while i < ops.len() {
            match (ops[i], transport) {
                (Operation::Gate { gate, trap }, _) => {
                    self.fold_gate(gate, trap, circuit, sink);
                    i += 1;
                }
                (Operation::Shuttle { ion, from, to }, None) => {
                    self.clocks
                        .one_move_round(
                            &self.model,
                            &mut self.state,
                            (ion, from, to),
                            topology,
                            sink,
                        )
                        .map_err(|e| self.clocks.stalled(e))?;
                    i += 1;
                }
                (Operation::Shuttle { .. }, Some(rounds)) => {
                    let end = run_end(ops, i);
                    self.fold_run(ops, i, end, rounds, &mut round_idx, topology, sink)?;
                    i = end;
                }
            }
        }
        if let Some(rounds) = transport {
            if round_idx != rounds.num_rounds() {
                return Err(LowerError::TransportMismatch {
                    op_index: ops.len(),
                });
            }
        }
        Ok(())
    }

    /// Folds one gate operation.
    pub(crate) fn fold_gate(
        &mut self,
        gate: GateId,
        trap: TrapId,
        circuit: &Circuit,
        sink: &mut impl FnMut(EventRef<'_>),
    ) {
        self.clocks
            .gate(&self.model, &mut self.state, gate, trap, circuit, sink);
    }

    /// Lowers the gate-free run `ops[start..end]` onto the `rounds` from
    /// `round_idx` on, drawing each round's moves from the run's multiset
    /// of hops (rounds may reorder hops within the run). One-move rounds
    /// take the straight-line path; wider rounds apply their members with
    /// departures-first retry: a move blocked by a full trap waits for a
    /// same-round departure to free it. In-order rounds (the strict
    /// packers) always apply on the first pass, preserving the historical
    /// per-move occupancy reads.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fold_run<R: RoundList + ?Sized>(
        &mut self,
        ops: &[Operation],
        start: usize,
        end: usize,
        rounds: &R,
        round_idx: &mut usize,
        topology: &TrapTopology,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), LowerError> {
        let buf = &mut self.buffers;
        buf.run.clear();
        buf.run.extend((start..end).map(|q| Some(hop_at(ops, q))));
        let run_len = end - start;
        // Every slot before `live` is taken: rounds mostly draw moves in
        // run order, so the search starts here instead of rescanning the
        // run's consumed prefix.
        let mut live = 0usize;
        let mut consumed = 0usize;
        while consumed < run_len {
            let mismatch = || LowerError::TransportMismatch {
                op_index: start + consumed,
            };
            let round = rounds.round(*round_idx).ok_or_else(mismatch)?;
            if round.is_empty() {
                return Err(mismatch());
            }
            *round_idx += 1;
            buf.members.clear();
            for m in round {
                let want = (m.ion, m.from, m.to);
                let slot = buf.run[live..]
                    .iter_mut()
                    .find(|slot| **slot == Some(want))
                    .ok_or_else(mismatch)?;
                *slot = None;
                buf.members.push(want);
                while buf.run.get(live) == Some(&None) {
                    live += 1;
                }
            }
            consumed += buf.members.len();

            if let [hop] = buf.members[..] {
                self.clocks
                    .one_move_round(&self.model, &mut self.state, hop, topology, sink)
                    .map_err(|e| self.clocks.stalled(e))?;
                continue;
            }

            buf.timed.clear();
            buf.pending.clear();
            buf.pending.extend_from_slice(&buf.members);
            while !buf.pending.is_empty() {
                let mut progressed = false;
                buf.still.clear();
                for &hop in &buf.pending {
                    match self.clocks.hop(&mut self.state, hop, topology) {
                        Ok(timed) => {
                            buf.timed.push(timed);
                            progressed = true;
                        }
                        Err(MachineError::TrapFull { .. }) => buf.still.push(hop),
                        Err(e) => return Err(LowerError::Machine(e)),
                    }
                }
                if !progressed {
                    return Err(LowerError::StalledRound {
                        round: self.clocks.shuttle_depth,
                    });
                }
                std::mem::swap(&mut buf.pending, &mut buf.still);
            }
            self.clocks.round(
                &self.model,
                &buf.members,
                &buf.timed,
                &mut buf.involved,
                sink,
            );
        }
        Ok(())
    }

    /// Finishes the fold: stamps its makespan and counters onto
    /// `timeline`, the events collected from its sink.
    pub fn finish(self, timeline: Timeline) -> Timeline {
        Timeline {
            makespan_us: self.makespan_us(),
            gates: self.clocks.gates,
            shuttles: self.clocks.shuttles,
            shuttle_depth: self.clocks.shuttle_depth,
            zone_moves: self.clocks.zone_moves,
            junction_crossings: self.clocks.junction_crossings,
            ..timeline
        }
    }
}

/// Errors raised by [`lower`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// The timing model has non-finite or negative constants.
    InvalidModel,
    /// A machine-level rule was violated while replaying the schedule.
    Machine(MachineError),
    /// The transport rounds do not cover the schedule's shuttle operations.
    TransportMismatch {
        /// Index of the first schedule operation the rounds disagree with.
        op_index: usize,
    },
    /// A round's moves could not be applied in any order.
    StalledRound {
        /// Index of the stalled round.
        round: usize,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::InvalidModel => {
                write!(f, "timing model constants must be finite and non-negative")
            }
            LowerError::Machine(e) => write!(f, "illegal schedule replay: {e}"),
            LowerError::TransportMismatch { op_index } => write!(
                f,
                "transport rounds disagree with the schedule at operation {op_index}"
            ),
            LowerError::StalledRound { round } => {
                write!(f, "transport round {round} cannot be applied in any order")
            }
        }
    }
}

impl Error for LowerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LowerError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{GateId, Opcode, Qubit};
    use qccd_machine::{InitialMapping, TrapTopology, ZoneLayout};
    use qccd_route::{TransportRound, TransportSchedule};

    fn sh(ion: u32, from: u32, to: u32) -> Operation {
        Operation::Shuttle {
            ion: IonId(ion),
            from: TrapId(from),
            to: TrapId(to),
        }
    }

    fn two_trap_fixture() -> (Circuit, MachineSpec, Schedule) {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![
                Operation::Gate {
                    gate: GateId(0),
                    trap: TrapId(0),
                },
                Operation::Gate {
                    gate: GateId(1),
                    trap: TrapId(1),
                },
                sh(1, 0, 1),
                Operation::Gate {
                    gate: GateId(2),
                    trap: TrapId(1),
                },
            ],
        );
        (c, spec, schedule)
    }

    #[test]
    fn ideal_lowering_matches_uniform_clock_arithmetic() {
        let (c, spec, schedule) = two_trap_fixture();
        let model = TimingModel::ideal();
        let timeline = lower(&schedule, None, &c, &spec, &model).unwrap();
        timeline.validate().unwrap();
        assert_eq!(timeline.gates, 3);
        assert_eq!(timeline.shuttles, 1);
        assert_eq!(timeline.shuttle_depth, 1);
        assert_eq!(timeline.zone_moves, 0);
        assert_eq!(timeline.junction_crossings, 0);
        // Critical path: gate0 (100) + hop (165) + gate2 (3-ion chain, 105).
        let expect = model.two_qubit_gate_us(2) + model.hop_us(0) + model.two_qubit_gate_us(3);
        assert!((timeline.makespan_us - expect).abs() < 1e-9);
    }

    #[test]
    fn chunked_advance_is_bit_for_bit_identical_to_lower() {
        let (c, spec, schedule) = two_trap_fixture();
        let model = TimingModel::realistic();
        let full = lower(&schedule, None, &c, &spec, &model).unwrap();
        // Advance one operation at a time — the finest legal chunking for
        // synthetic single-hop rounds.
        let mut state = LowerState::new(&schedule.initial_mapping, &spec, &model).unwrap();
        let mut events = Timeline::default();
        for op in &schedule.operations {
            state
                .advance(std::slice::from_ref(op), None, &c, &spec, &mut |e| {
                    events.push(e)
                })
                .unwrap();
        }
        let chunked = state.finish(events);
        assert_eq!(chunked, full, "chunked fold must equal the one-shot fold");
    }

    #[test]
    fn checkpoint_clone_resumes_independently() {
        let (c, spec, schedule) = two_trap_fixture();
        let model = TimingModel::ideal();
        let mut state = LowerState::new(&schedule.initial_mapping, &spec, &model).unwrap();
        let mut events = Timeline::default();
        // Advance through the first two gates, checkpoint, then lower the
        // suffix twice from the same checkpoint.
        state
            .advance(&schedule.operations[..2], None, &c, &spec, &mut |e| {
                events.push(e)
            })
            .unwrap();
        let checkpoint = state.clone();
        let prefix_events = events.clone();

        let mut a = checkpoint.clone();
        let mut ev_a = prefix_events.clone();
        a.advance(&schedule.operations[2..], None, &c, &spec, &mut |e| {
            ev_a.push(e)
        })
        .unwrap();
        let mut b = checkpoint;
        let mut ev_b = prefix_events;
        b.advance(&schedule.operations[2..], None, &c, &spec, &mut |e| {
            ev_b.push(e)
        })
        .unwrap();
        let full = lower(&schedule, None, &c, &spec, &model).unwrap();
        assert_eq!(a.finish(ev_a), full);
        assert_eq!(b.finish(ev_b), full);
    }

    #[test]
    fn score_ops_is_speculative_and_side_effect_free() {
        let (c, spec, schedule) = two_trap_fixture();
        let model = TimingModel::realistic();
        let mut state = LowerState::new(&schedule.initial_mapping, &spec, &model).unwrap();
        state
            .advance(&schedule.operations[..2], None, &c, &spec, &mut |_| {})
            .unwrap();
        let before = state.checkpoint();
        // Scoring the real suffix matches committing it on a copy...
        let scored = state
            .score_ops(&schedule.operations[2..], &c, &spec)
            .expect("legal suffix scores");
        let full = lower(&schedule, None, &c, &spec, &model).unwrap();
        assert_eq!(scored, full.makespan_us);
        // ...and leaves the original fold untouched, bit-for-bit.
        assert_eq!(state.trap_clocks(), before.trap_clocks());
        assert_eq!(state.ion_avail(), before.ion_avail());
        assert_eq!(state.makespan_us(), before.makespan_us());
        // An illegal speculative hop (ion 0 into its own trap's twin with
        // a bogus source) scores as None instead of corrupting the fold.
        let bogus = [sh(0, 1, 0)];
        assert_eq!(state.score_ops(&bogus, &c, &spec), None);
        assert_eq!(state.trap_clocks(), before.trap_clocks());
    }

    #[test]
    fn concurrent_round_costs_its_critical_path() {
        // L3 corridor: two pipelined hops share one round.
        let c = Circuit::new(4);
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let schedule = Schedule::new(mapping, vec![sh(2, 1, 2), sh(1, 0, 1)]);
        let transport = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![
                    qccd_machine::ShuttleMove {
                        ion: IonId(2),
                        from: TrapId(1),
                        to: TrapId(2),
                    },
                    qccd_machine::ShuttleMove {
                        ion: IonId(1),
                        from: TrapId(0),
                        to: TrapId(1),
                    },
                ],
            }],
        };
        let model = TimingModel::ideal();
        let timeline = lower(&schedule, Some(&transport), &c, &spec, &model).unwrap();
        timeline.validate().unwrap();
        assert_eq!(timeline.shuttle_depth, 1);
        assert!((timeline.makespan_us - model.hop_us(0)).abs() < 1e-9);
    }

    #[test]
    fn junction_hops_stretch_realistic_rounds() {
        // 3x3 grid: hop into the centre crosses two junction endpoints.
        let spec = MachineSpec::new(qccd_machine::TrapTopology::grid(3, 3), 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(1)]).unwrap();
        let c = Circuit::new(1);
        let schedule = Schedule::new(mapping, vec![sh(0, 1, 4)]);
        let ideal = lower(&schedule, None, &c, &spec, &TimingModel::ideal()).unwrap();
        let realistic = lower(&schedule, None, &c, &spec, &TimingModel::realistic()).unwrap();
        assert_eq!(realistic.junction_crossings, 2);
        let m = TimingModel::realistic();
        assert!((realistic.makespan_us - m.hop_us(2)).abs() < 1e-9);
        assert!(realistic.makespan_us > ideal.makespan_us);
    }

    #[test]
    fn zone_moves_are_synthesized_for_multi_zone_traps() {
        // One trap, 2-slot gate zone: ions 2 and 3 start outside it, so the
        // gate on (2, 3) needs two timed reorders first.
        let spec = MachineSpec::linear(1, 6, 1)
            .unwrap()
            .with_zone_layout(ZoneLayout::new(2, 3, 1).unwrap())
            .unwrap();
        let mapping = InitialMapping::round_robin(&spec, 4).unwrap();
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            }],
        );
        let model = TimingModel::realistic();
        let timeline = lower(&schedule, None, &c, &spec, &model).unwrap();
        timeline.validate().unwrap();
        assert_eq!(timeline.zone_moves, 2);
        let expect = 2.0 * model.zone_move_us() + model.two_qubit_gate_us(4);
        assert!((timeline.makespan_us - expect).abs() < 1e-9);

        // The ideal model charges zone moves nothing.
        let ideal = lower(&schedule, None, &c, &spec, &TimingModel::ideal()).unwrap();
        assert_eq!(ideal.zone_moves, 2);
        let ideal_expect = TimingModel::ideal().two_qubit_gate_us(4);
        assert!((ideal.makespan_us - ideal_expect).abs() < 1e-9);
    }

    #[test]
    fn zone_promotion_displacement_is_recharged() {
        // Gate zone of 2, chain [x, A, B] with a gate on (A, B): A starts
        // inside the zone, but promoting B to the chain front pushes A
        // out, so the scheduler must charge a second reorder and end with
        // both operands gate-ready.
        let spec = MachineSpec::linear(1, 4, 1)
            .unwrap()
            .with_zone_layout(ZoneLayout::new(2, 1, 1).unwrap())
            .unwrap();
        let mapping = InitialMapping::round_robin(&spec, 3).unwrap();
        let mut c = Circuit::new(3);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let schedule = Schedule::new(
            mapping,
            vec![Operation::Gate {
                gate: GateId(0),
                trap: TrapId(0),
            }],
        );
        let model = TimingModel::realistic();
        let timeline = lower(&schedule, None, &c, &spec, &model).unwrap();
        timeline.validate().unwrap();
        assert_eq!(timeline.zone_moves, 2, "B's promotion displaces A");
        let expect = 2.0 * model.zone_move_us() + model.two_qubit_gate_us(3);
        assert!((timeline.makespan_us - expect).abs() < 1e-9);
    }

    #[test]
    fn reordered_rounds_lower_with_departures_first_retry() {
        // T1 (capacity 2) is full; the round moves ion 0 into T1 while
        // ion 2 leaves — listed arrival-first to force the retry pass.
        let spec = MachineSpec::linear(3, 2, 0).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(1), TrapId(2)])
                .unwrap();
        let c = Circuit::new(4);
        let schedule = Schedule::new(mapping, vec![sh(2, 1, 2), sh(0, 0, 1)]);
        let transport = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![
                    qccd_machine::ShuttleMove {
                        ion: IonId(0),
                        from: TrapId(0),
                        to: TrapId(1),
                    },
                    qccd_machine::ShuttleMove {
                        ion: IonId(2),
                        from: TrapId(1),
                        to: TrapId(2),
                    },
                ],
            }],
        };
        let timeline = lower(
            &schedule,
            Some(&transport),
            &c,
            &spec,
            &TimingModel::ideal(),
        )
        .unwrap();
        timeline.validate().unwrap();
        assert_eq!(timeline.shuttle_depth, 1);
        // Application order is departures-first: ion 2 out, then ion 0 in.
        let moves = timeline.round_moves(&timeline.events[0]);
        assert_eq!(moves.len(), 2);
        assert_eq!(moves[0].ion, IonId(2));
        assert_eq!(moves[1].ion, IonId(0));
    }

    #[test]
    fn transport_mismatches_are_rejected() {
        let (c, spec, schedule) = two_trap_fixture();
        let model = TimingModel::ideal();
        // Wrong move.
        let wrong = TransportSchedule {
            rounds: vec![TransportRound {
                moves: vec![qccd_machine::ShuttleMove {
                    ion: IonId(3),
                    from: TrapId(1),
                    to: TrapId(0),
                }],
            }],
        };
        assert!(matches!(
            lower(&schedule, Some(&wrong), &c, &spec, &model),
            Err(LowerError::TransportMismatch { .. })
        ));
        // Empty round.
        let empty = TransportSchedule {
            rounds: vec![
                TransportRound { moves: vec![] },
                TransportRound {
                    moves: vec![qccd_machine::ShuttleMove {
                        ion: IonId(1),
                        from: TrapId(0),
                        to: TrapId(1),
                    }],
                },
            ],
        };
        assert!(matches!(
            lower(&schedule, Some(&empty), &c, &spec, &model),
            Err(LowerError::TransportMismatch { .. })
        ));
        // Leftover rounds.
        let extra = TransportSchedule {
            rounds: vec![
                TransportRound {
                    moves: vec![qccd_machine::ShuttleMove {
                        ion: IonId(1),
                        from: TrapId(0),
                        to: TrapId(1),
                    }],
                },
                TransportRound {
                    moves: vec![qccd_machine::ShuttleMove {
                        ion: IonId(1),
                        from: TrapId(1),
                        to: TrapId(0),
                    }],
                },
            ],
        };
        assert!(matches!(
            lower(&schedule, Some(&extra), &c, &spec, &model),
            Err(LowerError::TransportMismatch { .. })
        ));
    }

    #[test]
    fn invalid_model_rejected() {
        let (c, spec, schedule) = two_trap_fixture();
        let mut model = TimingModel::ideal();
        model.split_us = f64::INFINITY;
        assert_eq!(
            lower(&schedule, None, &c, &spec, &model),
            Err(LowerError::InvalidModel)
        );
    }

    #[test]
    fn score_ops_empty_and_single_op_suffixes() {
        // Empty suffix: the projection is the fold's own makespan, and
        // scoring never disturbs the state.
        let (c, spec, schedule) = two_trap_fixture();
        let model = TimingModel::realistic();
        let mut state = LowerState::new(&schedule.initial_mapping, &spec, &model).unwrap();
        assert_eq!(state.score_ops(&[], &c, &spec), Some(0.0));
        state
            .advance(&schedule.operations, None, &c, &spec, &mut |_| {})
            .unwrap();
        let committed = state.makespan_us();
        assert_eq!(state.score_ops(&[], &c, &spec), Some(committed));
        // Single-op suffixes: one hop projects exactly one round past the
        // fold (ion 1 sits in T1 after the replay); one repeated gate
        // projects one more gate on T1's clock.
        let hop = state.score_ops(&[sh(1, 1, 0)], &c, &spec).unwrap();
        assert!((hop - (committed + model.hop_us(0))).abs() < 1e-9);
        let gate = state
            .score_ops(
                &[Operation::Gate {
                    gate: GateId(2),
                    trap: TrapId(1),
                }],
                &c,
                &spec,
            )
            .unwrap();
        assert!(gate > committed);
        // Speculation left the committed fold untouched.
        assert_eq!(state.makespan_us(), committed);
        assert_eq!(state.score_ops(&[], &c, &spec), Some(committed));
    }

    #[test]
    fn score_ops_prices_zone_reorder_only_suffixes() {
        // A gate whose operands are already co-located but outside the
        // 2-slot gate zone: the suffix emits no shuttles, only timed zone
        // reorders ahead of the gate — the checkpoint copy must charge
        // them exactly as `lower` does.
        let spec = MachineSpec::linear(1, 6, 1)
            .unwrap()
            .with_zone_layout(ZoneLayout::new(2, 3, 1).unwrap())
            .unwrap();
        let mapping = InitialMapping::round_robin(&spec, 4).unwrap();
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap();
        let ops = [Operation::Gate {
            gate: GateId(0),
            trap: TrapId(0),
        }];
        let model = TimingModel::realistic();
        let state = LowerState::new(&mapping, &spec, &model).unwrap();
        let scored = state.score_ops(&ops, &c, &spec).unwrap();
        let expect = 2.0 * model.zone_move_us() + model.two_qubit_gate_us(4);
        assert!((scored - expect).abs() < 1e-9);
        // The fold itself never moved: re-scoring reproduces the figure.
        assert_eq!(state.score_ops(&ops, &c, &spec), Some(scored));
        assert_eq!(state.makespan_us(), 0.0);
    }

    #[test]
    fn score_ops_candidates_through_a_junction_trap() {
        // 3×3 grid, centre trap T4 has degree 4: a candidate crossing it
        // pays junction corner/swap time under the realistic model and
        // nothing under the ideal model — checkpoint scoring must price
        // both exactly.
        let spec = MachineSpec::new(TrapTopology::grid(3, 3), 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(1)]).unwrap();
        let c = Circuit::new(1);
        let walk = [sh(0, 1, 4), sh(0, 4, 7)];
        for model in [TimingModel::ideal(), TimingModel::realistic()] {
            let state = LowerState::new(&mapping, &spec, &model).unwrap();
            let scored = state.score_ops(&walk, &c, &spec).unwrap();
            // T1, T4 and T7 all have degree ≥ 3: each hop crosses two
            // junction endpoints — exactly what the full lower charges.
            let schedule = Schedule::new(mapping.clone(), walk.to_vec());
            let full = lower(&schedule, None, &c, &spec, &model).unwrap();
            assert_eq!(scored.to_bits(), full.makespan_us.to_bits());
            assert_eq!(full.junction_crossings, 4);
        }
        // Realistic junction crossings are strictly costlier than the
        // junction-free two-hop walk from the same state.
        let model = TimingModel::realistic();
        let state = LowerState::new(&mapping, &spec, &model).unwrap();
        let through_junction = state.score_ops(&walk, &c, &spec).unwrap();
        let along_edge = state
            .score_ops(&[sh(0, 1, 0), sh(0, 0, 3)], &c, &spec)
            .unwrap();
        assert!(through_junction > along_edge);
    }
}
