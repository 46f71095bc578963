//! The compile loop: earliest-ready-gate-first scheduling with pluggable
//! shuttle-direction, re-ordering, and re-balancing policies.

use crate::batch::{legalize, overfills, FreeComponents};
use crate::config::{CompilerConfig, Objective, RebalancePolicy};
use crate::error::CompileError;
use crate::frontier::Frontier;
use crate::mapping::initial_mapping;
use crate::objective::{edge_weight, ClockScorer};
use crate::policies::{decide_direction, decide_direction_open, MoveDecision};
use crate::rebalance::{choose_destination, choose_ion, destination_candidates, eviction_route};
use crate::remaining::{RemainingGates, SCAN_ENTRIES};
use crate::stats::CompileStats;
use qccd_circuit::{Circuit, DependencyDag, GateId, GateQubits, ReadySet};
use qccd_flow::{Commodity, CommodityRouter};
use qccd_machine::{InitialMapping, IonId, MachineSpec, MachineState, Operation, Schedule, TrapId};
use qccd_route::{route_budget, RoutePlanner, RouterPolicy, TransportSchedule};
use qccd_timing::{Rounds, Timeline};

/// Open decisions the clock objective re-decided on projected makespan
/// (both [`decide`](Scheduler::decide) and eviction-side ties).
static CLOCK_TIES: qccd_obs::Counter = qccd_obs::Counter::new("core.clock_ties");
/// Batched layers rejected before their flow solve because they can never
/// commit: fewer than two movers with a full-free path, or a final
/// placement that overfills a trap.
static BATCH_CAPACITY_REJECTS: qccd_obs::Counter =
    qccd_obs::Counter::new("core.batch_capacity_rejects");

/// A compiled program plus its compile-time statistics.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// The validated, executable schedule.
    pub schedule: Schedule,
    /// The schedule's shuttle traffic packed into concurrent transport
    /// rounds (one hop per round under the serial router), replay-validated
    /// against the machine's per-edge and junction rules.
    pub transport: TransportSchedule,
    /// The schedule lowered onto the device clock under the configured
    /// [`TimingModel`](qccd_timing::TimingModel)
    /// ([`CompilerConfig::timing`]): every gate, transport round and zone
    /// move with explicit start/end times. `timeline.makespan_us` is the
    /// compiler's timed-makespan estimate without running the simulator.
    pub timeline: Timeline,
    /// The timing model `timeline` was lowered under
    /// ([`CompilerConfig::timing`]) — recorded so downstream optimizers
    /// scoring under the same model can reuse the timeline instead of
    /// re-lowering the whole schedule.
    pub timing: qccd_timing::TimingModel,
    /// The clock objective's threaded fold result: the serial-round timed
    /// makespan of the committed schedule under
    /// [`timing`](CompileResult::timing), bit-for-bit equal to a fresh
    /// transport-less `lower()` of `schedule` (the chunked fold *is* that
    /// fold — the objective property tests pin the equality). `None`
    /// under the default shuttle-count objective. Like the compile-time
    /// counters, this describes the original compile and survives
    /// [`with_transport`](CompileResult::with_transport) rewrites.
    pub clock_serial_makespan_us: Option<f64>,
    /// Counters collected during compilation.
    pub stats: CompileStats,
}

impl CompileResult {
    /// Pack hook: this result rebuilt around a transformed schedule,
    /// transport and timeline — a provably-equivalent rewrite produced by
    /// a post-compile transport optimizer such as `qccd-pack`.
    ///
    /// The schedule-derived counters (`shuttles`, `transport_depth`) are
    /// refreshed from the new parts; the compile-time counters (reorders,
    /// rebalances, ...) describe the original compile and are kept, as is
    /// the recorded [`timing`](CompileResult::timing) model — the
    /// replacement `timeline` must be lowered under that same model. The
    /// caller is responsible for having validated the replacement (replay
    /// equivalence, transport coverage, timeline resources) — `qccd-pack`
    /// refuses to hand back anything unvalidated.
    pub fn with_transport(
        mut self,
        schedule: Schedule,
        transport: TransportSchedule,
        timeline: Timeline,
    ) -> Self {
        self.stats.shuttles = schedule.stats().shuttles;
        self.stats.transport_depth = transport.depth();
        self.schedule = schedule;
        self.transport = transport;
        self.timeline = timeline;
        self
    }
}

/// Compiles `circuit` onto `spec` under `config`.
///
/// The returned schedule is replay-validated before being returned: every
/// gate executes exactly once in dependency order with co-located operands,
/// and every shuttle hop is legal. One checked walk
/// ([`qccd_timing::replay`]) applies the rules of `Schedule::validate`, of
/// the strict `TransportSchedule::validate` (for the in-order packers) and
/// of the lowering fold while it lowers the timeline.
///
/// # Errors
///
/// * [`CompileError::CircuitTooLarge`] — more qubits than the machine hosts.
/// * [`CompileError::ShuttleDeadlock`] — re-balancing could not free space
///   (pathologically over-subscribed machines).
/// * [`CompileError::InternalValidation`],
///   [`CompileError::InternalTransport`],
///   [`CompileError::InternalTimeline`] — the produced program failed
///   replay validation (a compiler bug, never silent). The first violation
///   in operation order wins: a schedule that breaks a rule at operation k
///   while its rounds disagree with it at an earlier operation j reports
///   the transport error.
///
/// # Example
///
/// ```
/// use qccd_circuit::generators::supremacy;
/// use qccd_core::{compile, CompilerConfig};
/// use qccd_machine::MachineSpec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let result = compile(
///     &supremacy(4, 4, 8),
///     &MachineSpec::linear(2, 10, 2)?,
///     &CompilerConfig::optimized(),
/// )?;
/// println!("{} shuttles", result.stats.shuttles);
/// # Ok(())
/// # }
/// ```
pub fn compile(
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
) -> Result<CompileResult, CompileError> {
    let mapping = initial_mapping(circuit, spec, config.mapping)?;
    compile_with_mapping(circuit, spec, config, mapping)
}

/// Compiles with a caller-provided initial mapping (for mapping-policy
/// ablations and tests that pin exact placements).
///
/// # Errors
///
/// As [`compile`], plus [`CompileError::Machine`] if the mapping does not
/// fit the spec.
pub fn compile_with_mapping(
    circuit: &Circuit,
    spec: &MachineSpec,
    config: &CompilerConfig,
    mapping: InitialMapping,
) -> Result<CompileResult, CompileError> {
    let _phase = qccd_obs::span("compile");
    let state = MachineState::with_mapping(spec, &mapping)?;
    let (dag, plan) = {
        let _phase = qccd_obs::span("dag");
        let dag = circuit.dependency_dag();
        let plan = dag.topological_order();
        (dag, plan)
    };
    let ready = dag.ready_set();
    let remaining = RemainingGates::new(circuit, &dag, plan);
    // Only the re-ordering heuristic (drain and reorder scan) and the clock
    // objective's batched layers read the frontier; the baseline loop
    // executes in plan order and never keeps one.
    let frontier = (config.reorder || config.objective == Objective::Clock)
        .then(|| Frontier::new(circuit, &ready, &state, &remaining));
    let clock = match config.objective {
        Objective::Shuttles => None,
        // The clock objective threads the transport-less lowering fold
        // through the loop; every candidate at an open decision is scored
        // by a speculative advance from this state — O(delta) by default,
        // O(suffix) under the `ScoreMode::Full` differential oracle.
        Objective::Clock => Some(
            ClockScorer::new(&mapping, spec, &config.timing, config.score_mode)
                .map_err(CompileError::InternalTimeline)?,
        ),
    };
    // The clock objective prices segments by their timed duration, which
    // depends only on the timing model and the topology: weigh every
    // segment once, here, for the planner and the batched layers alike.
    let topology = spec.topology();
    let (planner, router) = match &clock {
        None => (RoutePlanner::new(topology), None),
        Some(clock) => {
            let model = clock.model();
            let weight = |a, b| edge_weight(&model, topology, a, b);
            let planner = RoutePlanner::with_weights(topology, &weight);
            (planner, Some(CommodityRouter::new(topology.adjacency())))
        }
    };
    let mut scheduler = Scheduler {
        circuit,
        config,
        dag,
        ready,
        planner,
        router,
        free: FreeComponents::default(),
        state,
        remaining,
        frontier,
        ops: Vec::with_capacity(circuit.len() * 2),
        stats: CompileStats::default(),
        in_rebalance: false,
        clock,
    };
    scheduler.run()?;
    // Only the operations, the counters and the DAG outlive the loop: the
    // index, the queue, the planner and the scorer are dropped here,
    // before packing and the checked replay set the compile's peak.
    let (ops, mut stats, clock_serial_makespan_us, dag) = scheduler.into_output();
    let schedule = Schedule::new(mapping, ops);
    let transport = {
        let _phase = qccd_obs::span("transport-pack");
        match config.router {
            RouterPolicy::Serial => TransportSchedule::pack_serial(&schedule),
            RouterPolicy::Congestion if config.lookahead => {
                TransportSchedule::pack_lookahead(&schedule, spec)
                    .map_err(CompileError::InternalTransport)?
            }
            RouterPolicy::Congestion => TransportSchedule::pack_concurrent(&schedule, spec)
                .map_err(CompileError::InternalTransport)?,
        }
    };
    // One checked walk validates the schedule, validates the rounds and
    // lowers them. The in-order packers answer to the strict transport
    // rules. Lookahead rounds reorder hops within gate-free runs and
    // answer to the relaxed rules, which the packer already applied once
    // per run while building them; the walk adds the fold's own.
    let rounds = if config.lookahead && config.router.is_congestion() {
        Rounds::Lowered(&transport)
    } else {
        Rounds::Strict(&transport)
    };
    let mut timeline = Timeline::for_schedule(&schedule);
    let fold = qccd_timing::replay(
        &schedule,
        rounds,
        circuit,
        &dag,
        spec,
        &config.timing,
        &mut |event| timeline.push(event),
    )?;
    let timeline = fold.finish(timeline);
    stats.transport_depth = transport.depth();
    Ok(CompileResult {
        schedule,
        transport,
        timeline,
        timing: config.timing,
        clock_serial_makespan_us,
        stats,
    })
}

struct Scheduler<'a> {
    circuit: &'a Circuit,
    config: &'a CompilerConfig,
    dag: DependencyDag,
    ready: ReadySet,
    /// The route planner, with its decaying per-segment traffic counters
    /// feeding the congestion router's edge pricing (ignored by the
    /// serial router), its segment weights (timed under the clock
    /// objective, unit otherwise) and its one priced network for the
    /// whole compile.
    planner: RoutePlanner,
    /// The batched layers' multi-commodity network, built once
    /// ([`Objective::Clock`] only: no other objective batches).
    router: Option<CommodityRouter>,
    /// Reused component labels for the batched layers' feasibility test.
    free: FreeComponents,
    state: MachineState,
    /// The not-yet-executed gates: the queue, in the initial (layer,
    /// id)-sorted topological order (so layers are non-decreasing along
    /// it; front = active), and the same gates indexed per qubit for the
    /// §III scans.
    remaining: RemainingGates,
    /// The queue's ready gates, split by operand locality (`None` when
    /// nothing reads it: no re-ordering and the shuttle-count objective).
    frontier: Option<Frontier>,
    ops: Vec<Operation>,
    stats: CompileStats,
    /// Set while shuttles belong to a re-balancing eviction, for stats.
    in_rebalance: bool,
    /// The clock objective's threaded lowering fold ([`Objective::Clock`]
    /// only; `None` keeps every paper decision rule bit-for-bit).
    clock: Option<ClockScorer>,
}

impl Scheduler<'_> {
    /// The compiled operations, the counters, the clock objective's
    /// serial-round makespan and the DAG; everything else is dropped.
    fn into_output(self) -> (Vec<Operation>, CompileStats, Option<f64>, DependencyDag) {
        let mut stats = self.stats;
        stats.clock_speculations = self.clock.as_ref().map_or(0, ClockScorer::speculations);
        let makespan = self.clock.as_ref().map(ClockScorer::makespan_us);
        (self.ops, stats, makespan, self.dag)
    }

    /// Maximum re-balancing recursion depth before declaring deadlock.
    fn depth_limit(&self) -> u32 {
        2 * self.state.spec().num_traps() + 4
    }

    /// Advances the clock fold through the operation just pushed onto
    /// `self.ops` (no-op under the shuttle-count objective).
    fn commit_clock(&mut self, op: Operation) -> Result<(), CompileError> {
        if let Some(clock) = self.clock.as_mut() {
            clock
                .commit(&op, self.circuit, self.state.spec())
                .map_err(CompileError::InternalTimeline)?;
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), CompileError> {
        // The queue's front: the lowest plan rank not yet executed. It only
        // moves forward, so the drain may read it one step stale.
        let mut front = 0;
        while !self.remaining.is_empty() {
            if self.config.reorder {
                self.drain_local_ready_gates(front)?;
                if self.remaining.is_empty() {
                    break;
                }
            }
            while self.ready.is_done(self.remaining.gate(front)) {
                front += 1;
            }
            self.execute(front, self.config.reorder)?;
        }
        Ok(())
    }

    /// Executes every ready gate in the front window of the queue whose
    /// operands are already co-located. Local gates move no ions, so this
    /// costs nothing; retiring them keeps already-satisfied gates out of
    /// the §III-A move-score scans and unlocks their successors earlier.
    /// Gated on the re-ordering heuristic: the baseline compiler executes
    /// strictly in plan order. No gate below plan rank `front` may be
    /// pending.
    fn drain_local_ready_gates(&mut self, front: u32) -> Result<(), CompileError> {
        let _phase = qccd_obs::span("drain");
        // Lowest local rank first, while it sits in the front window: local
        // gates move no ions (locality never changes during the drain),
        // and an execution only makes later-ranked gates ready, so this is
        // the order of one forward pass over the window's slots.
        let next = |s: &Self| {
            let frontier = s.frontier.as_ref().expect("re-ordering keeps a frontier");
            frontier.next_local(&s.remaining, front)
        };
        while let Some(rank) = next(self) {
            self.execute(rank, false)?;
        }
        Ok(())
    }

    /// Executes the pending gate of plan rank `rank`, inserting shuttles as
    /// needed, then retires it from the queue. With `allow_reorder`, a
    /// blocked favourable direction may first hoist-and-execute a
    /// candidate gate found *after* it in the queue.
    fn execute(&mut self, rank: u32, allow_reorder: bool) -> Result<(), CompileError> {
        let gate_id = self.remaining.gate(rank);
        let gate = self.circuit.gate(gate_id);
        let exec_trap = match gate.qubits {
            GateQubits::One(q) => {
                self.stats.local_gates += 1;
                self.state.trap_of(IonId::from(q))
            }
            GateQubits::Two(a, b) => {
                let (ia, ib) = (IonId::from(a), IonId::from(b));
                if self.state.trap_of(ia) == self.state.trap_of(ib) {
                    self.stats.local_gates += 1;
                } else {
                    self.shuttle_for_gate(rank, allow_reorder)?;
                }
                debug_assert_eq!(self.state.trap_of(ia), self.state.trap_of(ib));
                self.state.trap_of(ia)
            }
        };
        let gate_op = Operation::Gate {
            gate: gate_id,
            trap: exec_trap,
        };
        self.ops.push(gate_op);
        self.commit_clock(gate_op)?;
        self.stats.gate_ops += 1;
        // Each retired gate ages the congestion picture: only traffic from
        // the recent past should price routes. Serial routes never price
        // loads, so only the congestion router keeps them.
        if self.config.router.is_congestion() {
            self.planner.decay();
        }
        self.ready.mark_done(&self.dag, gate_id);
        self.remaining.mark_done(self.circuit, gate_id);
        if let Some(frontier) = self.frontier.as_mut() {
            frontier.retire(
                self.circuit,
                &self.dag,
                &self.ready,
                &self.state,
                &self.remaining,
                gate_id,
            );
        }
        Ok(())
    }

    /// Brings the operands of the pending two-qubit gate of plan rank
    /// `rank` into the same trap.
    fn shuttle_for_gate(&mut self, rank: u32, allow_reorder: bool) -> Result<(), CompileError> {
        let gate_id = self.remaining.gate(rank);
        let (qa, qb) = self
            .circuit
            .gate(gate_id)
            .two_qubit_operands()
            .expect("only two-qubit gates need shuttles");
        let (ia, ib) = (IonId::from(qa), IonId::from(qb));

        let mut decision = self.decide(gate_id);

        // §III-B: if the favourable destination is full, try to hoist a
        // nearby ready gate whose own favourable move *leaves* that trap
        // (Algorithm 1, generalised — see `find_reorder_candidate`).
        if self.state.is_full(decision.to) && allow_reorder {
            if let Some(candidate) = self.find_reorder_candidate(rank, decision.to) {
                self.stats.reorders += 1;
                self.execute(candidate, false)?;
                // The hoisted gate may have moved one of our operands.
                if self.state.trap_of(ia) == self.state.trap_of(ib) {
                    return Ok(());
                }
                decision = self.decide(gate_id);
            }
        }

        // Favourable direction still blocked. If the move score strongly
        // favours the full trap (many upcoming gates live there), evicting
        // one ion and keeping the favourable direction amortises over those
        // gates; on a thin margin, moving the other ion out is cheaper.
        if self.state.is_full(decision.to) {
            let other = if decision.ion == ia { ib } else { ia };
            let opposite = decision.opposite(other);
            // Experiments show eviction cascades cost more than they save
            // even when the score strongly favours the full trap, so the
            // opposite move is always preferred when it has room.
            if !self.state.is_full(opposite.to) {
                decision = opposite;
                self.stats.opposite_direction_moves += 1;
            } else {
                let stationary = other;
                let mut attempts = 0u32;
                while self.state.is_full(decision.to) {
                    if attempts > self.depth_limit() {
                        return Err(CompileError::ShuttleDeadlock { trap: decision.to });
                    }
                    attempts += 1;
                    self.rebalance(decision.to, &[stationary], &[decision.from])?;
                }
            }
        }

        let stationary = if decision.ion == ia { ib } else { ia };
        // Clock objective: plan the window's open moves as one batched
        // multi-commodity layer (PR 4 measured that these decisions are
        // closed by the time a post-compile pass sees them).
        if self.try_batched_move(rank, decision, stationary)? {
            return Ok(());
        }
        self.move_ion(decision, stationary)
    }

    /// Directs the pending cross-trap gate `gate_id`. The configured
    /// policy decides as always; under the clock objective a *tied*
    /// §III-A move score — the one case the paper leaves open — is broken
    /// on projected makespan instead of the excess-capacity fallback:
    /// both orientations' planned walks are speculatively lowered from
    /// the live fold and the earlier projected clock wins. Infeasible
    /// walks (evictions needed) score as unboundedly late; a projected
    /// dead heat keeps the excess-capacity choice, so the tie-break is
    /// deterministic.
    fn decide(&mut self, gate_id: GateId) -> MoveDecision {
        let _phase = qccd_obs::span("direction-scan");
        let choice = decide_direction_open(
            self.config.direction,
            self.circuit,
            &self.state,
            &self.remaining,
            gate_id,
        );
        let (Some(alt), Some(clock)) = (choice.alternative, self.clock.as_mut()) else {
            return choice.decision;
        };
        let mut plan_walk = |d: &MoveDecision| -> Option<(IonId, Vec<TrapId>)> {
            let plan = self
                .planner
                .plan_route(self.config.router, &self.state, d.from, d.to)?;
            if self.state.is_full(d.to) || plan.full_interior_traps > 0 {
                return None; // needs evictions the walk cannot price
            }
            Some((d.ion, plan.path))
        };
        // Plan both orientations first (planner call order unchanged),
        // then price the plannable walks.
        let planned = [plan_walk(&choice.decision), plan_walk(&alt)];
        let [score_keep, score_alt] = planned.map(|p| {
            p.and_then(|(ion, path)| {
                clock.score_walk(ion, &path, &self.ops, self.circuit, self.state.spec())
            })
        });
        let decided = match (score_keep, score_alt) {
            (Some(a), Some(b)) if b < a => Some(alt),
            (None, Some(_)) => Some(alt),
            _ => None,
        };
        match decided {
            Some(alt) => {
                self.stats.clock_ties += 1;
                CLOCK_TIES.incr();
                alt
            }
            None => choice.decision,
        }
    }

    /// Upper bound on the movers one batched layer plans jointly.
    const BATCH_LIMIT: usize = 8;

    /// Clock objective: plans the active move *together with* the
    /// favourable moves of other ready cross-trap gates in the window as
    /// one multi-commodity flow ([`CommodityRouter`]) over timed edge
    /// costs, and emits the routed walks layer by layer — the k-th hops
    /// of all commodities side by side, exactly the shape the round
    /// packers turn into wide rounds. Returns `Ok(false)` (and changes
    /// nothing) whenever batching does not apply: shuttle-count
    /// objective, fewer than two unblocked movers, or a rewrite that does
    /// not replay legally — the one-move-at-a-time path with its eviction
    /// machinery is the fallback.
    ///
    /// Batches that can never commit are rejected before the flow solve,
    /// exactly. The walkers — movers that get a walk — are exactly the
    /// movers with a full-free path (interior traps not full): a routed
    /// path is kept only when full-free, which implies such a path, and
    /// otherwise that path is the walk. A legal replay ends with each
    /// walker at its destination and never overfills a trap, so when the
    /// walkers' final occupancy ([`overfills`]) exceeds capacity anywhere,
    /// or fewer than two walkers remain, the replay could only fail. That
    /// test needs only *whether* each mover has a full-free path, which
    /// the non-full traps' component labels ([`FreeComponents`]) answer;
    /// the paths themselves are built only for batches that pass.
    fn try_batched_move(
        &mut self,
        rank: u32,
        decision: MoveDecision,
        stationary: IonId,
    ) -> Result<bool, CompileError> {
        if self.clock.is_none() {
            return Ok(false);
        }
        // Evictions that made room at `decision.to` may have shifted the
        // mover itself; its walk would start from the wrong trap. The solo
        // path re-plans from wherever the ion is now.
        if self.state.trap_of(decision.ion) != decision.from {
            return Ok(false);
        }
        let _phase = qccd_obs::span("batching");
        let topology = self.state.spec().topology();

        // Walkers: the movers with a full-free path (interior traps not
        // full). Exactly these end up with a walk below, since a full-free
        // flow route implies such a path; it is also their post-flow
        // fallback. The active mover without one aborts the whole batch —
        // its evictions belong to the solo machinery — so it is tested
        // before the window is scored (the window loop changes no state,
        // so the labels stay valid).
        let graph = topology.adjacency();
        self.free
            .label(graph, |t| self.state.is_full(TrapId(t as u32)));
        if !self
            .free
            .connects(graph, decision.from.index(), decision.to.index())
        {
            return Ok(false);
        }

        // The active mover plus every ready cross-trap gate in the window
        // whose favourable move is unblocked. Claimed ions (gate operands
        // of already-batched gates) stay put so each batched gate finds
        // its operands where the plan leaves them.
        let mut movers: Vec<(IonId, TrapId, TrapId)> =
            vec![(decision.ion, decision.from, decision.to)];
        let mut claimed: Vec<IonId> = vec![decision.ion, stationary];
        // A candidate that claims an already-claimed ion is skipped before
        // its direction is scored, so a window without a joinable gate
        // stays a solo move with no direction scoring at all (the dominant
        // cost of probing unbatchable windows).
        let (candidates, _) = self
            .frontier
            .as_ref()
            .expect("clock compiles keep a frontier")
            .cross_window(&self.remaining, rank);
        for r in candidates {
            if movers.len() >= Self::BATCH_LIMIT {
                break;
            }
            let gid = self.remaining.gate(r);
            let (xa, xb) = self
                .circuit
                .gate(gid)
                .two_qubit_operands()
                .expect("cross-trap gates are two-qubit gates");
            let (ja, jb) = (IonId::from(xa), IonId::from(xb));
            if claimed.contains(&ja) || claimed.contains(&jb) {
                continue;
            }
            // Either way the gate points, its destination is one of the
            // two operand traps: when both are full it is dropped below.
            if self.state.is_full(self.state.trap_of(ja))
                && self.state.is_full(self.state.trap_of(jb))
            {
                continue;
            }
            let d = decide_direction(
                self.config.direction,
                self.circuit,
                &self.state,
                &self.remaining,
                gid,
            );
            if self.state.is_full(d.to) {
                continue;
            }
            movers.push((d.ion, d.from, d.to));
            claimed.push(ja);
            claimed.push(jb);
        }
        if movers.len() < 2 {
            return Ok(false);
        }

        let walkers: Vec<bool> = movers
            .iter()
            .map(|&(_, from, to)| self.free.connects(graph, from.index(), to.index()))
            .collect();
        let capacity = self.state.spec().total_capacity();
        let ends: Vec<(TrapId, TrapId)> = movers
            .iter()
            .zip(&walkers)
            .filter(|&(_, &walker)| walker)
            .map(|(&(_, from, to), _)| (from, to))
            .collect();
        if ends.len() < 2 || overfills(|t| self.state.occupancy(t), capacity, &ends) {
            BATCH_CAPACITY_REJECTS.incr();
            return Ok(false);
        }
        let fallbacks: Vec<Option<Vec<TrapId>>> = movers
            .iter()
            .zip(&walkers)
            .map(|(&(_, from, to), &walker)| {
                let path = walker
                    .then(|| {
                        topology
                            .shortest_path_filtered(from, to, |t| t == to || !self.state.is_full(t))
                    })
                    .flatten();
                debug_assert_eq!(path.is_some(), walker, "labels decide full-free paths");
                path
            })
            .collect();

        // Joint plan: pairwise edge-disjoint paths over timed edge costs
        // (junction-aware), full destinations surcharged to steer the
        // capacity-blind flow away from likely-illegal corridors. Every
        // mover stays a commodity: the routes are solved in sequence.
        let commodities: Vec<Commodity> = movers
            .iter()
            .map(|&(_, a, b)| Commodity {
                source: a.index(),
                sink: b.index(),
            })
            .collect();
        let (planner, state) = (&self.planner, &self.state);
        let cost = |a: usize, b: usize| -> i64 {
            let (ta, tb) = (TrapId(a as u32), TrapId(b as u32));
            let mut c = i64::from(planner.weight(ta, tb));
            if state.is_full(tb) {
                c += 1_000;
            }
            c
        };
        let router = self.router.as_mut().expect("clock compiles own a router");
        let routed = router.route(&commodities, cost);

        // Each walker takes its routed path when that is full-free, else
        // its fallback.
        let full_free = |path: &[TrapId], to: TrapId| {
            path.iter()
                .all(|&t| t == to || t == path[0] || !self.state.is_full(t))
        };
        let walks: Vec<(IonId, Vec<TrapId>)> = routed
            .into_iter()
            .zip(&movers)
            .zip(fallbacks)
            .filter_map(|((route, &(ion, _, to)), fallback)| {
                let fallback = fallback?;
                let path = route
                    .map(|p| p.into_iter().map(|t| TrapId(t as u32)).collect::<Vec<_>>())
                    .filter(|p| full_free(p, to))
                    .unwrap_or(fallback);
                Some((ion, path))
            })
            .collect();

        // Legalize on an occupancy array: a sweep without progress means
        // the rewrite cannot be serialized — abort with nothing emitted.
        let mut occupancy: Vec<u32> = topology.traps().map(|t| self.state.occupancy(t)).collect();
        let Some(emitted) = legalize(&mut occupancy, capacity, &walks) else {
            return Ok(false);
        };

        // Commit through the normal hop path (stats, edge load, fold).
        self.stats.batched_layers += 1;
        self.stats.batched_hops += emitted.len();
        for (ion, to) in emitted {
            self.hop(ion, to)?;
        }
        debug_assert_eq!(self.state.trap_of(decision.ion), decision.to);
        Ok(true)
    }

    /// Moves `decision.ion` hop-by-hop to `decision.to` along planner
    /// routes, re-balancing full traps encountered on the way.
    ///
    /// The next hop is re-planned from the ion's current trap each hop (the
    /// state changes under it as evictions run), and total hops are
    /// bounded by the planner's routed-path-length budget
    /// ([`route_budget`]): exhausting it is a typed
    /// [`CompileError::RouteExhausted`], never a silent cap.
    fn move_ion(&mut self, decision: MoveDecision, stationary: IonId) -> Result<(), CompileError> {
        let MoveDecision { ion, to: dest, .. } = decision;
        let start = self.state.trap_of(ion);
        let budget = route_budget(self.state.spec().topology(), start, dest).ok_or(
            CompileError::Unreachable {
                ion,
                from: start,
                to: dest,
            },
        )?;
        let mut hops = 0u32;
        while self.state.trap_of(ion) != dest {
            if hops >= budget {
                return Err(CompileError::RouteExhausted {
                    ion,
                    from: start,
                    to: dest,
                    budget,
                });
            }
            hops += 1;
            let cur = self.state.trap_of(ion);
            // Serial router: prefer a route whose interior traps have room,
            // falling back to the unconditional shortest path. Congestion
            // router: min-cost route under eviction-penalty and edge-load
            // pricing — it crosses a full trap (re-balancing it below) when
            // every detour costs more than the eviction.
            // Routes only come back `None` on a disconnected topology
            // (fullness never severs reachability, only prices it).
            // The clock objective's planner prices segments by timed
            // duration (junction-aware) instead of unit hops.
            let next = self
                .planner
                .next_hop(self.config.router, &self.state, cur, dest)
                .ok_or(CompileError::Unreachable {
                    ion,
                    from: start,
                    to: dest,
                })?;
            let mut attempts = 0u32;
            while self.state.is_full(next) {
                // Traffic block (§III-C): next trap on the route is full.
                // Deep eviction chains may pass through `cur`, so the moving
                // ion protects itself via the keep list too. Evictions can
                // themselves refill `next`; loop until it has room.
                if attempts > self.depth_limit() {
                    return Err(CompileError::ShuttleDeadlock { trap: next });
                }
                attempts += 1;
                // `cur` is not avoided: the moving ion departs it right
                // after the eviction, so parking an evicted ion there is
                // safe and often the nearest option (Fig. 7's 1-hop case).
                self.rebalance(next, &[stationary, ion], &[dest])?;
            }
            self.hop(ion, next)?;
        }
        Ok(())
    }

    /// Emits one validated shuttle hop.
    fn hop(&mut self, ion: IonId, to: TrapId) -> Result<(), CompileError> {
        let from = self.state.trap_of(ion);
        self.state.shuttle(ion, to)?;
        if let Some(frontier) = self.frontier.as_mut() {
            frontier.moved(&self.ready, &self.state, &self.remaining, ion);
        }
        if self.config.router.is_congestion() {
            self.planner.record(from, to);
        }
        let op = Operation::Shuttle { ion, from, to };
        self.ops.push(op);
        self.commit_clock(op)?;
        self.stats.shuttles += 1;
        if self.in_rebalance {
            self.stats.rebalance_shuttles += 1;
        }
        Ok(())
    }

    /// Relieves the full trap `blocked` by evicting one ion (§III-C).
    ///
    /// `keep` lists ions that must stay put (active gate operands); `avoid`
    /// lists traps the eviction should not fill (the active move's
    /// endpoints). Entirely iterative: congestion on the eviction route is
    /// resolved by *cascade-clearing* — shifting one ion forward out of each
    /// full trap along the remaining route, processed from the destination
    /// end backward, which is always legal because entries into a trap only
    /// ever come from the step after its own clearing.
    ///
    /// Under the congestion router with the nearest-neighbour rebalance
    /// policy, the destination and route are priced together on the
    /// planner's min-cost search ([`RoutePlanner::plan_eviction`]): hop
    /// count still dominates (the destination stays a nearest non-full
    /// trap), but ties break toward cold corridors and routes avoid full
    /// interior traps when an equal-cost detour exists. The baseline `FromTrapZero`
    /// policy keeps the paper's T0-first rule even under the congestion
    /// router (the policy *is* the thing a baseline comparison measures),
    /// and the serial router keeps every paper policy bit-for-bit.
    fn rebalance(
        &mut self,
        blocked: TrapId,
        keep: &[IonId],
        avoid: &[TrapId],
    ) -> Result<(), CompileError> {
        let _phase = qccd_obs::span("rebalance");
        self.stats.rebalances += 1;
        // Clock objective: when several destinations are equally near —
        // the paper's hash-table argmin is order-dependent there, i.e.
        // the choice is open — break the tie on projected makespan by
        // speculatively lowering each candidate's eviction walk from the
        // live fold. `None` (no tie, or no scorable candidate) falls
        // through to the standard machinery.
        let clock_pick = self.clock_eviction(blocked, keep, avoid);
        // The avoid list is a preference (keep space in the active move's
        // endpoints); when it excludes every candidate — easy on 2-3-trap
        // machines — relax it rather than deadlock.
        let priced = match (self.config.router, self.config.rebalance) {
            _ if clock_pick.is_some() => clock_pick,
            (RouterPolicy::Congestion, RebalancePolicy::NearestNeighbor) => self
                .planner
                .plan_eviction(&self.state, blocked, avoid)
                .or_else(|| self.planner.plan_eviction(&self.state, blocked, &[])),
            _ => None,
        };
        let (dest, priced_route) = match priced {
            Some((dest, route)) => (dest, Some(route)),
            None => {
                let dest = choose_destination(self.config.rebalance, &self.state, blocked, avoid)
                    .or_else(|| {
                        choose_destination(self.config.rebalance, &self.state, blocked, &[])
                    })
                    .ok_or(CompileError::ShuttleDeadlock { trap: blocked })?;
                (dest, None)
            }
        };
        let ion = choose_ion(
            self.config.ion_selection,
            &self.state,
            &self.remaining,
            blocked,
            dest,
            keep,
        )
        .ok_or(CompileError::ShuttleDeadlock { trap: blocked })?;
        let route = match priced_route {
            Some(route) => route,
            None => eviction_route(
                self.config.rebalance,
                self.state.spec().topology(),
                blocked,
                dest,
            )
            .ok_or(CompileError::ShuttleDeadlock { trap: blocked })?,
        };

        let was_in_rebalance = self.in_rebalance;
        self.in_rebalance = true;
        let result = self.walk_eviction(ion, route, keep);
        self.in_rebalance = was_in_rebalance;
        result
    }

    /// Clock objective's re-balancing destination tie-break: scores every
    /// destination in the policy's tie set (see [`destination_candidates`])
    /// by speculatively lowering its eviction walk — the policy-selected
    /// ion along a full-free (else policy) route — from the live fold, and
    /// returns the destination+route with the earliest projected clock.
    /// `None` when there is no open tie, no scorer, or nothing scores (a
    /// walk needing cascade-clears cannot be priced speculatively): the
    /// standard machinery then decides exactly as it always has.
    fn clock_eviction(
        &mut self,
        blocked: TrapId,
        keep: &[IonId],
        avoid: &[TrapId],
    ) -> Option<(TrapId, Vec<TrapId>)> {
        let clock = self.clock.as_mut()?;
        let candidates = destination_candidates(self.config.rebalance, &self.state, blocked, avoid);
        if candidates.len() < 2 {
            return None;
        }
        let topology = self.state.spec().topology();
        // Destinations are priced in candidate order up to the first
        // unroutable one, which aborts the whole tie-break; strict `<`
        // keeps the first of equal minimums.
        let mut best: Option<(f64, TrapId, Vec<TrapId>)> = None;
        for dest in candidates {
            let ion = choose_ion(
                self.config.ion_selection,
                &self.state,
                &self.remaining,
                blocked,
                dest,
                keep,
            )?;
            let route = topology
                .shortest_path_filtered(blocked, dest, |t| t == dest || !self.state.is_full(t))
                .or_else(|| eviction_route(self.config.rebalance, topology, blocked, dest))?;
            let score = clock.score_walk(ion, &route, &self.ops, self.circuit, self.state.spec());
            let Some(score) = score else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                best = Some((score, dest, route));
            }
        }
        let (_, dest, route) = best?;
        self.stats.clock_ties += 1;
        CLOCK_TIES.incr();
        Some((dest, route))
    }

    /// Walks the evicted `ion` along `route` to its destination, cascade-
    /// clearing full traps on the way and re-routing if the destination
    /// itself fills up. Total hops are bounded; no recursion.
    fn walk_eviction(
        &mut self,
        ion: IonId,
        mut route: Vec<TrapId>,
        keep: &[IonId],
    ) -> Result<(), CompileError> {
        let mut keep_all: Vec<IonId> = keep.to_vec();
        keep_all.push(ion);
        let hop_limit = 6 * self.state.spec().num_traps() + 12;
        let mut hops = 0u32;
        let mut idx = 0usize;
        while idx + 1 < route.len() {
            if hops > hop_limit {
                return Err(CompileError::ShuttleDeadlock {
                    trap: route[idx + 1],
                });
            }
            let next = route[idx + 1];
            if self.state.is_full(next) {
                let dest_unreachable = idx + 2 >= route.len();
                if !dest_unreachable {
                    // Cascade-clear the remaining interior, far end first.
                    // Each full trap shifts one ion one segment forward; the
                    // shift target is never full at shift time because
                    // nothing enters a trap before its own step runs.
                    for j in ((idx + 1)..route.len() - 1).rev() {
                        if !self.state.is_full(route[j]) || self.state.is_full(route[j + 1]) {
                            continue;
                        }
                        let shifted = choose_ion(
                            self.config.ion_selection,
                            &self.state,
                            &self.remaining,
                            route[j],
                            route[j + 1],
                            &keep_all,
                        )
                        .ok_or(CompileError::ShuttleDeadlock { trap: route[j] })?;
                        self.hop(shifted, route[j + 1])?;
                        hops += 1;
                    }
                }
                if self.state.is_full(next) {
                    // The destination filled up since it was chosen, or the
                    // whole remaining route is jammed solid: re-route from
                    // the current trap to a fresh (currently non-full)
                    // destination, preferring a route with free interiors.
                    let cur = route[idx];
                    let new_dest = choose_destination(self.config.rebalance, &self.state, cur, &[])
                        .ok_or(CompileError::ShuttleDeadlock { trap: cur })?;
                    let topology = self.state.spec().topology();
                    route = topology
                        .shortest_path_filtered(cur, new_dest, |t| {
                            t == new_dest || !self.state.is_full(t)
                        })
                        .or_else(|| eviction_route(self.config.rebalance, topology, cur, new_dest))
                        .ok_or(CompileError::ShuttleDeadlock { trap: cur })?;
                    idx = 0;
                    hops += 1; // re-routing consumes budget to guarantee exit
                    continue;
                }
            }
            self.hop(ion, next)?;
            hops += 1;
            idx += 1;
        }
        Ok(())
    }

    /// Algorithm 1 (generalised): find a pending, ready gate near the
    /// active gate (plan rank `active`) whose favourable shuttle direction
    /// moves an ion *out of* `old_destination`, freeing a slot there.
    /// Returns its plan rank (always queued after `active`). Hoisting any
    /// *ready* gate is dependency-legal, so the scan is not limited to the
    /// active gate's layer (serial circuits have singleton layers and
    /// would never find a candidate); the window bounds compile time.
    fn find_reorder_candidate(&self, active: u32, old_destination: TrapId) -> Option<u32> {
        let _phase = qccd_obs::span("reorder-scan");
        let frees = |from: TrapId, to: TrapId| from == old_destination && !self.state.is_full(to);
        let frontier = self
            .frontier
            .as_ref()
            .expect("re-ordering keeps a frontier");
        let (found, reach) = frontier.find_cross(&self.remaining, active, |gid| {
            let (qa, qb) = self
                .circuit
                .gate(gid)
                .two_qubit_operands()
                .expect("cross-trap gates are two-qubit gates");
            let (ta, tb) = (
                self.state.trap_of(IonId::from(qa)),
                self.state.trap_of(IonId::from(qb)),
            );
            // The direction moves one operand into the other's trap, so
            // only a gate with an operand in `old_destination` and room at
            // the other end can qualify: skip the move-score scan for every
            // other gate.
            if !(frees(ta, tb) || frees(tb, ta)) {
                return false;
            }
            let dir = decide_direction(
                self.config.direction,
                self.circuit,
                &self.state,
                &self.remaining,
                gid,
            );
            frees(dir.from, dir.to)
        });
        SCAN_ENTRIES.add(reach as u64);
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DirectionPolicy, IonSelection, MappingPolicy, RebalancePolicy};
    use qccd_circuit::{Opcode, Qubit};

    fn ms(c: &mut Circuit, a: u32, b: u32) {
        c.push_two_qubit(Opcode::Ms, Qubit(a), Qubit(b)).unwrap();
    }

    /// The Fig. 4 program: baseline ping-pongs (4 shuttles), future-ops
    /// moves ion 1 once (1 shuttle).
    fn fig4_setup() -> (Circuit, MachineSpec, InitialMapping) {
        let mut c = Circuit::new(5);
        ms(&mut c, 1, 2); // A
        ms(&mut c, 2, 3); // B
        ms(&mut c, 1, 2); // C
        ms(&mut c, 2, 4); // D
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
        )
        .unwrap();
        (c, spec, mapping)
    }

    #[test]
    fn fig4_baseline_ping_pongs_4_shuttles() {
        let (c, spec, mapping) = fig4_setup();
        let r = compile_with_mapping(&c, &spec, &CompilerConfig::baseline(), mapping).unwrap();
        assert_eq!(
            r.stats.shuttles, 4,
            "EC policy shuttles ion 2 back and forth"
        );
    }

    #[test]
    fn fig4_future_ops_needs_1_shuttle() {
        let (c, spec, mapping) = fig4_setup();
        let r = compile_with_mapping(&c, &spec, &CompilerConfig::optimized(), mapping).unwrap();
        assert_eq!(
            r.stats.shuttles, 1,
            "moving ion 1 to T1 satisfies all four gates"
        );
    }

    #[test]
    fn co_located_circuit_needs_no_shuttles() {
        // Two independent 2-qubit clusters: the balanced greedy mapping
        // puts one cluster per trap, so no gate ever crosses traps.
        let mut c = Circuit::new(4);
        ms(&mut c, 0, 1);
        ms(&mut c, 2, 3);
        ms(&mut c, 1, 0);
        ms(&mut c, 3, 2);
        let spec = MachineSpec::linear(2, 10, 2).unwrap();
        for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
            let r = compile(&c, &spec, &config).unwrap();
            assert_eq!(
                r.stats.shuttles, 0,
                "greedy mapping co-locates each cluster"
            );
            assert_eq!(r.stats.local_gates, 4);
        }
    }

    #[test]
    fn single_qubit_gates_never_shuttle() {
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.push_single_qubit(Opcode::H, Qubit(q)).unwrap();
        }
        let spec = MachineSpec::linear(3, 3, 1).unwrap();
        let r = compile(&c, &spec, &CompilerConfig::optimized()).unwrap();
        assert_eq!(r.stats.shuttles, 0);
        assert_eq!(r.stats.gate_ops, 6);
    }

    #[test]
    fn empty_circuit_compiles() {
        let c = Circuit::new(4);
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let r = compile(&c, &spec, &CompilerConfig::optimized()).unwrap();
        assert!(r.schedule.operations.is_empty());
    }

    #[test]
    fn distant_traps_cost_distance_hops() {
        // Two interacting qubits pinned to the ends of an L4 machine.
        let mut c = Circuit::new(4);
        ms(&mut c, 0, 3);
        let spec = MachineSpec::linear(4, 4, 1).unwrap();
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(1), TrapId(2), TrapId(3)])
                .unwrap();
        let r = compile_with_mapping(&c, &spec, &CompilerConfig::optimized(), mapping).unwrap();
        assert_eq!(r.stats.shuttles, 3, "3 hops across L4");
    }

    #[test]
    fn full_destination_triggers_rebalance_or_opposite() {
        // T1 full; gate needs ions 0 (T0) and 3 (T1).
        let mut c = Circuit::new(6);
        ms(&mut c, 0, 3);
        // Anchor ion 3's future in T1 so future-ops wants 0 → T1.
        ms(&mut c, 3, 4);
        ms(&mut c, 3, 5);
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0),
                TrapId(0),
                TrapId(0),
                TrapId(1),
                TrapId(1),
                TrapId(1),
            ],
        )
        .unwrap();
        // Fill T1 to capacity 4 is impossible via initial mapping (cap 3),
        // so this exercises the non-full path; the full-trap cases are
        // covered by the integration tests on saturated machines.
        let r = compile_with_mapping(&c, &spec, &CompilerConfig::optimized(), mapping).unwrap();
        assert!(r.stats.shuttles >= 1);
    }

    #[test]
    fn reorder_saves_shuttles_when_destination_full() {
        // Engineered Fig. 6-style scenario on L3 (capacity 4, comm 1):
        // T0 = {0, 6}, T1 = {1, 2, 3}, T2 = {4, 5, 7}.
        //
        //   g0 (6,1): future gate g3 (6,2) pulls ion 6 into T1 → T1 FULL.
        //   g1 (0,2): ACTIVE — future gate g4 (0,3) wants ion 0 → T1, full.
        //   g2 (3,5): same-layer candidate — future gate g5 (3,4) wants
        //             ion 3 OUT of T1 into T2, freeing a slot.
        //
        // With re-ordering, g2 is hoisted before g1 (Algorithm 1).
        let mut c = Circuit::new(8);
        ms(&mut c, 6, 1); // g0
        ms(&mut c, 0, 2); // g1 (active when blocked)
        ms(&mut c, 3, 5); // g2 (candidate, same layer 0)
        ms(&mut c, 6, 2); // g3
        ms(&mut c, 0, 3); // g4
        ms(&mut c, 3, 4); // g5
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0), // 0
                TrapId(1), // 1
                TrapId(1), // 2
                TrapId(1), // 3
                TrapId(2), // 4
                TrapId(2), // 5
                TrapId(0), // 6
                TrapId(2), // 7
            ],
        )
        .unwrap();
        let with_reorder =
            compile_with_mapping(&c, &spec, &CompilerConfig::optimized(), mapping.clone()).unwrap();
        assert!(
            with_reorder.stats.reorders >= 1,
            "the engineered blockage must trigger Algorithm 1"
        );
        let mut no_reorder_cfg = CompilerConfig::optimized();
        no_reorder_cfg.reorder = false;
        let without = compile_with_mapping(&c, &spec, &no_reorder_cfg, mapping).unwrap();
        assert!(
            with_reorder.stats.shuttles <= without.stats.shuttles,
            "re-ordering must not cost extra shuttles here ({} vs {})",
            with_reorder.stats.shuttles,
            without.stats.shuttles
        );
    }

    #[test]
    fn stats_gate_count_matches_circuit() {
        let mut c = Circuit::new(6);
        for i in 0..5 {
            ms(&mut c, i, (i + 1) % 6);
        }
        let spec = MachineSpec::linear(3, 4, 2).unwrap();
        let r = compile(&c, &spec, &CompilerConfig::optimized()).unwrap();
        assert_eq!(r.stats.gate_ops, 5);
        assert_eq!(r.schedule.stats().gates, 5);
        assert_eq!(r.schedule.stats().shuttles, r.stats.shuttles);
    }

    #[test]
    fn disconnected_topology_reports_unreachable() {
        use qccd_machine::TrapTopology;
        // T2 is an island: a gate spanning T0 and T2 cannot be routed.
        let topology = TrapTopology::try_custom(3, &[(0, 1)]).unwrap();
        let spec = MachineSpec::new(topology, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(2)]).unwrap();
        let mut c = Circuit::new(2);
        ms(&mut c, 0, 1);
        for router in [RouterPolicy::Serial, RouterPolicy::congestion()] {
            let config = CompilerConfig::optimized().with_router(router);
            assert!(matches!(
                compile_with_mapping(&c, &spec, &config, mapping.clone()),
                Err(CompileError::Unreachable { .. })
            ));
        }
    }

    #[test]
    fn rejects_oversized_circuit() {
        let c = Circuit::new(20);
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        assert!(matches!(
            compile(&c, &spec, &CompilerConfig::optimized()),
            Err(CompileError::CircuitTooLarge { .. })
        ));
    }

    #[test]
    fn all_policy_combinations_produce_valid_schedules() {
        use qccd_circuit::generators::random_circuit;
        let c = random_circuit(12, 60, 42);
        let spec = MachineSpec::linear(3, 6, 2).unwrap();
        for direction in [
            DirectionPolicy::ExcessCapacity,
            DirectionPolicy::FutureOps { proximity: 6 },
        ] {
            for reorder in [false, true] {
                for rebalance in [
                    RebalancePolicy::FromTrapZero,
                    RebalancePolicy::NearestNeighbor,
                ] {
                    for ion_selection in [IonSelection::ChainEnd, IonSelection::MaxScore] {
                        for router in [RouterPolicy::Serial, RouterPolicy::congestion()] {
                            let config = CompilerConfig {
                                direction,
                                reorder,
                                rebalance,
                                ion_selection,
                                mapping: MappingPolicy::GreedyInteraction,
                                router,
                                ..CompilerConfig::baseline()
                            };
                            // compile() validates by replay internally —
                            // both the flat schedule and the transport
                            // rounds.
                            let r = compile(&c, &spec, &config)
                                .unwrap_or_else(|e| panic!("{config}: {e}"));
                            assert_eq!(r.stats.gate_ops, 60);
                            assert_eq!(r.transport.num_moves(), r.stats.shuttles);
                            assert!(r.stats.transport_depth <= r.stats.shuttles);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cascade_eviction_through_jammed_corridor() {
        // comm capacity 0 lets traps start genuinely full. L5 with
        // T1, T2, T3 all full and a gate between end traps T0 and T4:
        // the mover must cross three jammed traps, forcing cascade-clears.
        let spec = MachineSpec::linear(5, 3, 0).unwrap();
        let mut traps = Vec::new();
        for (t, occ) in [1u32, 3, 3, 3, 1].into_iter().enumerate() {
            for _ in 0..occ {
                traps.push(TrapId(t as u32));
            }
        }
        let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
        // Qubit 0 in T0; qubit 10 in T4.
        let mut c = Circuit::new(11);
        ms(&mut c, 0, 10);
        for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
            let r = compile_with_mapping(&c, &spec, &config, mapping.clone())
                .unwrap_or_else(|e| panic!("{config}: {e}"));
            // The schedule validated internally; the corridor must have
            // triggered at least one re-balancing eviction.
            assert!(r.stats.rebalances >= 1, "{config}");
            assert!(r.stats.shuttles >= 4, "{config}: 4 hops minimum");
        }
    }

    #[test]
    fn full_destination_with_full_opposite_rebalances() {
        // Both endpoint traps full: the scheduler must evict, not error.
        let spec = MachineSpec::linear(3, 3, 0).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0),
                TrapId(0),
                TrapId(0),
                TrapId(1),
                TrapId(1),
                TrapId(1),
            ],
        )
        .unwrap();
        let mut c = Circuit::new(6);
        ms(&mut c, 0, 3);
        for config in [CompilerConfig::baseline(), CompilerConfig::optimized()] {
            let r = compile_with_mapping(&c, &spec, &config, mapping.clone())
                .unwrap_or_else(|e| panic!("{config}: {e}"));
            assert!(r.stats.rebalances >= 1, "{config}");
        }
    }

    #[test]
    fn drains_local_ready_gates_ahead_of_blocked_work() {
        // g0 is cross-trap; g1 and g2 are local and independent of g0. With
        // re-ordering (optimized), the drain pass must retire g1/g2 before
        // g0's shuttle, so the schedule leads with the two local gates.
        let mut c = Circuit::new(6);
        ms(&mut c, 0, 3); // g0: spans T0/T1
        ms(&mut c, 1, 2); // g1: local to T0
        ms(&mut c, 4, 5); // g2: local to T1
        let spec = MachineSpec::linear(2, 6, 2).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0),
                TrapId(0),
                TrapId(0),
                TrapId(1),
                TrapId(1),
                TrapId(1),
            ],
        )
        .unwrap();
        let r =
            compile_with_mapping(&c, &spec, &CompilerConfig::optimized(), mapping.clone()).unwrap();
        let first_two: Vec<GateId> = r
            .schedule
            .operations
            .iter()
            .filter_map(|op| match op {
                Operation::Gate { gate, .. } => Some(*gate),
                Operation::Shuttle { .. } => None,
            })
            .take(2)
            .collect();
        assert_eq!(
            first_two,
            vec![GateId(1), GateId(2)],
            "local gates drain first"
        );

        // The baseline executes strictly in plan order: g0 comes first.
        let b = compile_with_mapping(&c, &spec, &CompilerConfig::baseline(), mapping).unwrap();
        let first = b.schedule.operations.iter().find_map(|op| match op {
            Operation::Gate { gate, .. } => Some(*gate),
            Operation::Shuttle { .. } => None,
        });
        assert_eq!(first, Some(GateId(0)));
    }

    #[test]
    fn optimized_beats_baseline_on_random_circuit() {
        use qccd_circuit::generators::random_circuit;
        let c = random_circuit(30, 300, 7);
        let spec = MachineSpec::linear(4, 10, 2).unwrap();
        let base = compile(&c, &spec, &CompilerConfig::baseline()).unwrap();
        let opt = compile(&c, &spec, &CompilerConfig::optimized()).unwrap();
        assert!(
            opt.stats.shuttles < base.stats.shuttles,
            "optimized {} >= baseline {}",
            opt.stats.shuttles,
            base.stats.shuttles
        );
    }

    /// Evictions that make room at a full destination can shift the mover
    /// itself. The batched layer must not walk it from its old trap: these
    /// compiles once failed with a non-adjacent hop (T1 → T3 on a line).
    #[test]
    fn batched_layer_never_walks_a_mover_the_evictions_shifted() {
        use qccd_circuit::generators::random_circuit;
        use qccd_timing::TimingModel;
        let spec = MachineSpec::linear(4, 6, 2).unwrap();
        let config = CompilerConfig::optimized()
            .with_router(RouterPolicy::congestion())
            .with_lookahead(true)
            .with_timing(TimingModel::realistic())
            .with_objective(Objective::Clock);
        for (seed, gates) in [(0u64, 199usize), (1, 100), (26, 60), (30, 100), (31, 199)] {
            let c = random_circuit(14, gates, seed);
            let result = compile(&c, &spec, &config)
                .unwrap_or_else(|e| panic!("random:14x{gates}@{seed}: {e}"));
            result.schedule.validate(&c, &spec).unwrap();
        }
    }
}
