//! One checked replay: the lowering fold with every schedule and transport
//! check folded in.
//!
//! A finished program used to be replayed once per check: the schedule
//! validator, the strict transport validator (with two placements of its
//! own) and the lowering fold each walked the operation stream on a fresh
//! machine state. [`replay`] walks it once, on one chain-free placement.
//! Before it folds an operation it applies every rule those passes apply
//! to it, so the first violation in operation order comes back, under the
//! variant the standalone validator gives it.

use crate::model::TimingModel;
use crate::scheduler::{hop_at, run_end, Ions, LowerError, LowerState, Move};
use crate::timeline::EventRef;
use qccd_circuit::{Circuit, DependencyDag, GateId, ReadySet};
use qccd_machine::{
    MachineError, MachineSpec, Operation, Placement, Schedule, ShuttleMove, TrapId,
    ValidateScheduleError,
};
use qccd_route::{TransportError, TransportSchedule};
use std::error::Error;
use std::fmt;

/// The shuttle traffic a checked [`replay`] lowers, and the rules its
/// rounds answer to.
#[derive(Debug, Clone, Copy)]
pub enum Rounds<'a> {
    /// One synthetic single-hop round per shuttle op.
    Serial,
    /// Rounds that keep the schedule's hop order, under the rules of the
    /// strict validator [`TransportSchedule::validate`]: the rounds
    /// partition the shuttle ops in order, no round spans a gate, and
    /// every round passes [`Placement::apply_round`] against the
    /// placement before it.
    Strict(&'a TransportSchedule),
    /// Rounds that may reorder hops within a gate-free run, under the
    /// lowering fold's own rules ([`lower`](crate::lower)): every round
    /// draws its moves from its run and applies departures-first.
    Lowered(&'a TransportSchedule),
}

/// The first rule a checked [`replay`] found broken, under the name the
/// standalone pass that owns the rule gives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A rule of [`Schedule::validate`].
    Schedule(ValidateScheduleError),
    /// A rule of the strict [`TransportSchedule::validate`].
    Transport(TransportError),
    /// A rule of the lowering fold ([`lower`](crate::lower)).
    Lower(LowerError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            ReplayError::Transport(e) => write!(f, "invalid transport: {e}"),
            ReplayError::Lower(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl Error for ReplayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReplayError::Schedule(e) => Some(e),
            ReplayError::Transport(e) => Some(e),
            ReplayError::Lower(e) => Some(e),
        }
    }
}

/// Lowers `schedule` under `model` while checking it, in one walk over
/// its operations on one chain-free placement (chains only on multi-zone
/// layouts), handing every timed event to `sink`. Returns the finished
/// fold: [`LowerState::finish`] turns the collected events into the
/// [`Timeline`](crate::Timeline) [`lower`](crate::lower) builds, bit for
/// bit.
///
/// Before it folds an operation, the walk applies every rule that
/// [`Schedule::validate`], the transport rules of `rounds` and the fold
/// itself apply to it: the mapping first, then the model, then operation
/// by operation. At one operation the schedule's rules come first, then
/// the transport's, then the fold's; the schedule's missing-gate check and
/// the leftover-round checks run after the last operation.
///
/// `dag` must be `circuit`'s dependency DAG; callers that built it already
/// pass it in instead of paying for a second one.
///
/// Cost: one pass, O(1) per operation outside a round's O(m²) checks and
/// the multiset draw of rounds that reorder hops. Once warm it allocates
/// nothing per operation; the setup is O(ions + traps + gates).
///
/// # Errors
///
/// The first violated rule in operation order, as a [`ReplayError`].
/// Where a schedule breaks a rule at operation k while its rounds already
/// disagree with it at an earlier operation, the transport error wins.
pub fn replay(
    schedule: &Schedule,
    rounds: Rounds<'_>,
    circuit: &Circuit,
    dag: &DependencyDag,
    spec: &MachineSpec,
    model: &TimingModel,
    sink: &mut impl FnMut(EventRef<'_>),
) -> Result<LowerState, ReplayError> {
    let _phase = qccd_obs::span("replay");
    debug_assert_eq!(dag.len(), circuit.len(), "dag must be the circuit's");
    let ions = Ions::new(spec, &schedule.initial_mapping)
        .map_err(|e| ReplayError::Schedule(ValidateScheduleError::BadMapping(e)))?;
    if !model.is_valid() {
        return Err(ReplayError::Lower(LowerError::InvalidModel));
    }
    let mut fold = LowerState::starting(ions, spec, model);
    let mut walk = Walk {
        ops: &schedule.operations,
        spec,
        gates: Gates {
            circuit,
            dag,
            ready: dag.ready_set(),
        },
        serial: None,
        diverged: false,
    };
    walk.run(&mut fold, rounds, sink)?;
    Ok(fold)
}

/// The checker's own state: the gates run so far, and the schedule's own
/// placement for runs whose rounds reorder hops.
struct Walk<'a> {
    ops: &'a [Operation],
    spec: &'a MachineSpec,
    gates: Gates<'a>,
    /// The placement the schedule's hops leave, in op order, when rounds
    /// replay them in another order (reused across such runs).
    serial: Option<Placement>,
    /// Whether `serial` differs from the fold's placement: lowering rules
    /// accept rounds that leave an ion elsewhere than the schedule's own
    /// order does. The schedule's rules then keep reading `serial`, as
    /// the standalone validator would.
    diverged: bool,
}

/// The schedule's gate rules, and the gates run so far.
struct Gates<'a> {
    circuit: &'a Circuit,
    dag: &'a DependencyDag,
    ready: ReadySet,
}

/// The schedule's source rule for the hop at `step`: the ion must be in
/// the trap the op names. An unknown ion is left to the hop's legality
/// check.
fn source(step: usize, placement: &Placement, (ion, from, _): Move) -> Result<(), ReplayError> {
    match placement.traps().get(ion.index()) {
        Some(&actual) if actual != from => Err(ReplayError::Schedule(
            ValidateScheduleError::WrongSourceTrap { step, ion },
        )),
        _ => Ok(()),
    }
}

/// The schedule's legality rule for the hop at `step`.
fn illegal(step: usize) -> impl Fn(MachineError) -> ReplayError {
    move |source| ReplayError::Schedule(ValidateScheduleError::IllegalShuttle { step, source })
}

/// How many leading moves of `round` equal `run`'s leading hops.
fn in_order_prefix(round: &[ShuttleMove], run: &[Operation]) -> usize {
    round
        .iter()
        .zip(run)
        .take_while(|&(m, op)| {
            *op == Operation::Shuttle {
                ion: m.ion,
                from: m.from,
                to: m.to,
            }
        })
        .count()
}

impl Gates<'_> {
    /// The gate rules of [`Schedule::validate`] for the gate op at `step`;
    /// a passing gate is marked executed.
    fn check(
        &mut self,
        step: usize,
        gate: GateId,
        trap: TrapId,
        placement: &Placement,
    ) -> Result<(), ReplayError> {
        let fail = |e| Err(ReplayError::Schedule(e));
        if gate.index() >= self.circuit.len() {
            return fail(ValidateScheduleError::UnknownGate { step, gate });
        }
        if self.ready.is_done(gate) {
            return fail(ValidateScheduleError::DuplicateGate { step, gate });
        }
        if !self.ready.is_ready(gate) {
            return fail(ValidateScheduleError::DependencyViolation { step, gate });
        }
        for q in self.circuit.gate(gate).qubits.iter() {
            if placement.traps().get(q.index()) != Some(&trap) {
                return fail(ValidateScheduleError::NotCoLocated { step, gate });
            }
        }
        self.ready.mark_done(self.dag, gate);
        Ok(())
    }

    /// The lowest gate that never ran, if any.
    fn missing(&self) -> Option<GateId> {
        if self.ready.remaining() == 0 {
            return None;
        }
        (0..self.circuit.len() as u32)
            .map(GateId)
            .find(|&g| !self.ready.is_done(g))
    }
}

impl Walk<'_> {
    fn run(
        &mut self,
        fold: &mut LowerState,
        rounds: Rounds<'_>,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), ReplayError> {
        let ops = self.ops;
        let topology = self.spec.topology();
        let (transport, strict) = match rounds {
            Rounds::Serial => (None, false),
            Rounds::Strict(t) => (Some(t), true),
            Rounds::Lowered(t) => (Some(t), false),
        };
        let list = transport.map(|t| t.rounds.as_slice());
        let mut round_idx = 0usize;
        let mut i = 0usize;
        while i < ops.len() {
            if let Operation::Gate { gate, trap } = ops[i] {
                let placement = match &self.serial {
                    Some(serial) if self.diverged => serial,
                    _ => fold.placement(),
                };
                self.gates.check(i, gate, trap, placement)?;
                fold.fold_gate(gate, trap, self.gates.circuit, sink);
                i += 1;
                continue;
            }
            let end = run_end(ops, i);
            while i < end {
                let Some(list) = list else {
                    let hop = hop_at(ops, i);
                    source(i, fold.placement(), hop)?;
                    fold.clocks
                        .one_move_round(&fold.model, &mut fold.state, hop, topology, sink)
                        .map_err(illegal(i))?;
                    i += 1;
                    continue;
                };
                let round = list.get(round_idx).map_or(&[][..], |r| &r.moves[..]);
                let width = in_order_prefix(round, &ops[i..end]);
                if width > 0 && width == round.len() && !self.diverged {
                    self.in_order_round(fold, i, round, strict, sink)?;
                    round_idx += 1;
                    i += width;
                } else if let (true, Some(transport)) = (strict, transport) {
                    return Err(self.strict_deviation(fold, i, end, width, round_idx, transport));
                } else {
                    // Rounds that reorder the run: the schedule's rules
                    // replay its hops in op order on the schedule's own
                    // placement, then the fold lowers the rest of the run
                    // as `lower` does.
                    self.serial_hops(fold.placement(), i, end)?;
                    fold.fold_run(ops, i, end, list, &mut round_idx, topology, sink)
                        .map_err(ReplayError::Lower)?;
                    self.diverged = self
                        .serial
                        .as_ref()
                        .is_some_and(|serial| serial.traps() != fold.placement().traps());
                    i = end;
                }
            }
        }
        if let Some(gate) = self.gates.missing() {
            return Err(ReplayError::Schedule(ValidateScheduleError::MissingGate {
                gate,
            }));
        }
        match transport {
            Some(t) if round_idx != t.rounds.len() => Err(if strict {
                self.count_mismatch(t)
            } else {
                ReplayError::Lower(LowerError::TransportMismatch {
                    op_index: ops.len(),
                })
            }),
            _ => Ok(()),
        }
    }

    fn count_mismatch(&self, transport: &TransportSchedule) -> ReplayError {
        let shuttles = self.ops.iter().filter(|op| op.is_shuttle()).count();
        ReplayError::Transport(TransportError::MoveCountMismatch {
            rounds: transport.num_moves(),
            schedule: shuttles,
        })
    }

    /// Folds a round whose moves are the schedule's next hops in order,
    /// checking each hop as the schedule validator does; strict rules also
    /// check the whole round against the placement before it.
    fn in_order_round(
        &mut self,
        fold: &mut LowerState,
        start: usize,
        round: &[ShuttleMove],
        strict: bool,
        sink: &mut impl FnMut(EventRef<'_>),
    ) -> Result<(), ReplayError> {
        let topology = self.spec.topology();
        if let [m] = round {
            // One move: every rule of the round is a rule of the hop.
            let hop = (m.ion, m.from, m.to);
            source(start, fold.placement(), hop)?;
            return fold
                .clocks
                .one_move_round(&fold.model, &mut fold.state, hop, topology, sink)
                .map_err(illegal(start));
        }
        let verdict = if strict {
            fold.placement().check_round(round)
        } else {
            Ok(())
        };
        let LowerState {
            model,
            state,
            clocks,
            buffers: buf,
        } = fold;
        buf.members.clear();
        buf.timed.clear();
        for (k, m) in round.iter().enumerate() {
            let hop = (m.ion, m.from, m.to);
            source(start + k, state.placement(), hop)?;
            let timed = clocks
                .hop(state, hop, topology)
                .map_err(illegal(start + k))?;
            buf.members.push(hop);
            buf.timed.push(timed);
        }
        verdict.map_err(|e| ReplayError::Transport(TransportError::Machine(e)))?;
        clocks.round(model, &buf.members, &buf.timed, &mut buf.involved, sink);
        Ok(())
    }

    /// The error of a strict round that stops matching the run starting
    /// at op `start` after `width` moves: the schedule's rules on every
    /// hop up to the deviating op come first, then the transport's.
    fn strict_deviation(
        &mut self,
        fold: &mut LowerState,
        start: usize,
        end: usize,
        width: usize,
        round_idx: usize,
        transport: &TransportSchedule,
    ) -> ReplayError {
        for q in start..(start + width + 1).min(end) {
            let hop = hop_at(self.ops, q);
            if let Err(e) = source(q, fold.placement(), hop) {
                return e;
            }
            if let Err(e) = fold.state.shuttle(hop.0, hop.2) {
                return illegal(q)(e);
            }
        }
        if round_idx >= transport.rounds.len() {
            return self.count_mismatch(transport);
        }
        if start + width < end {
            return ReplayError::Transport(TransportError::MoveMismatch {
                op_index: start + width,
            });
        }
        // The round runs past the run: into the gate that ends it, or off
        // the end of the schedule.
        if let Some(&Operation::Gate { gate, trap }) = self.ops.get(end) {
            return match self.gates.check(end, gate, trap, fold.placement()) {
                Err(e) => e,
                Ok(()) => {
                    ReplayError::Transport(TransportError::RoundSpansGate { round: round_idx })
                }
            };
        }
        match self.gates.missing() {
            Some(gate) => ReplayError::Schedule(ValidateScheduleError::MissingGate { gate }),
            None => self.count_mismatch(transport),
        }
    }

    /// The schedule's hop rules on `ops[start..end]` in op order, replayed
    /// on the schedule's own placement: a copy of `placement`, the fold's,
    /// unless an earlier run left the two apart.
    fn serial_hops(
        &mut self,
        placement: &Placement,
        start: usize,
        end: usize,
    ) -> Result<(), ReplayError> {
        let serial = self.serial.get_or_insert_with(|| placement.clone());
        if !self.diverged {
            serial.clone_from(placement);
        }
        for q in start..end {
            let hop = hop_at(self.ops, q);
            source(q, serial, hop)?;
            serial.shuttle(hop.0, hop.2).map_err(illegal(q))?;
        }
        Ok(())
    }
}
