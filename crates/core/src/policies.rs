//! Shuttle-direction policies: baseline excess-capacity (Listing 1) and
//! the paper's future-ops move score (§III-A).

use crate::config::DirectionPolicy;
use crate::remaining::{RemainingGates, SCAN_ENTRIES};
use qccd_circuit::{Circuit, GateId, Qubit};
use qccd_machine::{IonId, MachineState, TrapId};

/// The outcome of a shuttle-direction decision for a cross-trap gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveDecision {
    /// The ion that will move.
    pub ion: IonId,
    /// Its current trap.
    pub from: TrapId,
    /// The trap it will move to (the other operand's trap).
    pub to: TrapId,
}

impl MoveDecision {
    /// The decision that moves the *other* ion instead.
    pub fn opposite(self, other_ion: IonId) -> MoveDecision {
        MoveDecision {
            ion: other_ion,
            from: self.to,
            to: self.from,
        }
    }
}

/// The two move scores of §III-A2 (Table I of the paper reports exactly
/// these numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MoveScores {
    /// `ionA(A→B)` move score: future gates satisfied if both ions end up
    /// in `trapB`.
    pub a_to_b: u32,
    /// `ionB(B→A)` move score: future gates satisfied if both ions end up
    /// in `trapA`.
    pub b_to_a: u32,
}

/// How the §III-A3 proximity gap between consecutive relevant gates is
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProximityMetric {
    /// Gap in dependency-graph layers (scale-invariant; the default).
    Layers,
    /// Gap in intervening gates of the planned order (the paper's text
    /// read literally; kept for ablation).
    Gates,
}

/// A direction decision plus the §III-A tie information a timed objective
/// needs: when the move scores tie, *both* orientations are genuinely open
/// — the paper's text does not specify one — and `alternative` carries the
/// orientation the excess-capacity fallback rejected, so a clock-driven
/// compiler can re-arbitrate the tie on projected makespan instead. The
/// re-arbitration prices each orientation's planned walk speculatively
/// (O(delta) by default, the full re-lower oracle under
/// `ScoreMode::Full`; the two are pinned bit-for-bit identical), so
/// surfacing the alternative never changes what the configured policy
/// alone would decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectionChoice {
    /// The decision the configured policy arrives at (ties broken by the
    /// excess-capacity fallback, as always).
    pub decision: MoveDecision,
    /// The other orientation, present only when the future-ops move scores
    /// tied and the decision was therefore open.
    pub alternative: Option<MoveDecision>,
}

/// Decides which ion of the cross-trap gate `active` moves.
///
/// `remaining` indexes the not-yet-executed gates; the scan for future
/// operations walks the active operands' remaining gates in plan order.
/// `active` must be ready, so it heads both operands' remaining lists. Ion
/// positions are taken from the *current* machine state — the paper's
/// proximity cutoff exists precisely because distant future gates "may not
/// represent ion locations correctly" (§III-A3).
///
/// # Panics
///
/// Panics if the active gate is not a two-qubit gate spanning two traps —
/// the scheduler only calls this for gates that need a shuttle.
pub(crate) fn decide_direction(
    policy: DirectionPolicy,
    circuit: &Circuit,
    state: &MachineState,
    remaining: &RemainingGates,
    active: GateId,
) -> MoveDecision {
    decide_direction_open(policy, circuit, state, remaining, active).decision
}

/// [`decide_direction`] with the tie surfaced: identical decision, plus
/// the rejected orientation whenever the §III-A move scores tied (see
/// [`DirectionChoice`]). The shuttle-count objective ignores the
/// alternative; the clock objective scores both on the projected device
/// clock.
pub(crate) fn decide_direction_open(
    policy: DirectionPolicy,
    circuit: &Circuit,
    state: &MachineState,
    remaining: &RemainingGates,
    active: GateId,
) -> DirectionChoice {
    let gate = circuit.gate(active);
    let (qa, qb) = gate
        .two_qubit_operands()
        .expect("direction decision requires a two-qubit gate");
    let (ion_a, ion_b) = (IonId::from(qa), IonId::from(qb));
    let (trap_a, trap_b) = (state.trap_of(ion_a), state.trap_of(ion_b));
    assert_ne!(trap_a, trap_b, "gate operands are already co-located");

    let scored = |metric: ProximityMetric, proximity: u32| -> DirectionChoice {
        debug_assert_eq!(
            remaining.of(qa).first().map(|e| e.rank),
            Some(remaining.rank(active)),
            "the active gate is ready, so it heads its operands' lists"
        );
        let scores = move_scores(state, remaining, qa, qb, trap_a, trap_b, proximity, metric);
        if scores.a_to_b > scores.b_to_a {
            DirectionChoice {
                decision: MoveDecision {
                    ion: ion_a,
                    from: trap_a,
                    to: trap_b,
                },
                alternative: None,
            }
        } else if scores.b_to_a > scores.a_to_b {
            DirectionChoice {
                decision: MoveDecision {
                    ion: ion_b,
                    from: trap_b,
                    to: trap_a,
                },
                alternative: None,
            }
        } else {
            // Tie: the paper does not specify; fall back to the
            // excess-capacity rule, which both compilers share — and
            // surface the rejected orientation as an open alternative.
            let decision = excess_capacity_direction(state, ion_a, ion_b, trap_a, trap_b);
            let other = if decision.ion == ion_a { ion_b } else { ion_a };
            qccd_obs::debug("core.direction", || {
                format!(
                    "open tie: ion {} {}->{} (alt ion {}), excess-capacity rule decided",
                    decision.ion.index(),
                    decision.from.index(),
                    decision.to.index(),
                    other.index(),
                )
            });
            DirectionChoice {
                decision,
                alternative: Some(decision.opposite(other)),
            }
        }
    };

    match policy {
        DirectionPolicy::ExcessCapacity => DirectionChoice {
            decision: excess_capacity_direction(state, ion_a, ion_b, trap_a, trap_b),
            alternative: None,
        },
        DirectionPolicy::FutureOps { proximity } => scored(ProximityMetric::Layers, proximity),
        DirectionPolicy::FutureOpsGateDistance { proximity } => {
            scored(ProximityMetric::Gates, proximity)
        }
    }
}

/// Listing 1 of the paper. `ion_a` is the gate's first operand
/// ("trap0" in the listing), `ion_b` the second ("trap1").
fn excess_capacity_direction(
    state: &MachineState,
    ion_a: IonId,
    ion_b: IonId,
    trap_a: TrapId,
    trap_b: TrapId,
) -> MoveDecision {
    let (ec_a, ec_b) = (state.excess_capacity(trap_a), state.excess_capacity(trap_b));
    if ec_a <= ec_b {
        // Listing 1 lines 1-4: strictly-less moves trap0 → trap1, and the
        // tie also moves the 1st ion of the gate.
        MoveDecision {
            ion: ion_a,
            from: trap_a,
            to: trap_b,
        }
    } else {
        MoveDecision {
            ion: ion_b,
            from: trap_b,
            to: trap_a,
        }
    }
}

/// Computes the §III-A2 move scores for the active gate on `qa`, `qb` —
/// the gate heading both operands' remaining-gate lists — honouring the
/// §III-A3 proximity cutoff.
///
/// A gate is *relevant* if it involves `qa` or `qb`. The scan visits the
/// relevant gates after the active one in plan order — the merge of the
/// two operands' remaining-gate lists. When the gap since the previous
/// relevant gate (measured per `metric`) exceeds `proximity`, the scan
/// stops and all later gates are excluded. The pending queue is a
/// subsequence of the layer-sorted plan, so a non-relevant gate past the
/// cutoff is followed only by relevant gates past it too: visiting
/// relevant gates alone gives exactly the scores of a walk over the whole
/// queue.
///
/// Each list entry carries its gate's rank, layer and partner qubit, so
/// the merge reads nothing per gate but the partner's trap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn move_scores(
    state: &MachineState,
    remaining: &RemainingGates,
    qa: Qubit,
    qb: Qubit,
    trap_a: TrapId,
    trap_b: TrapId,
    proximity: u32,
    metric: ProximityMetric,
) -> MoveScores {
    let (a, b) = (remaining.of(qa), remaining.of(qb));
    debug_assert!(
        !a.is_empty() && b.first().map(|e| e.rank) == Some(a[0].rank),
        "the active gate is ready, so it heads both operands' lists"
    );
    let (mut i, mut j) = (1, 1);
    let mut scores = MoveScores::default();
    let mut count = |partner: Qubit| {
        let partner_trap = state.trap_of(IonId::from(partner));
        if partner_trap == trap_b {
            scores.a_to_b += 1;
        } else if partner_trap == trap_a {
            scores.b_to_a += 1;
        }
        // Partners in third traps influence neither direction.
    };
    let mut last = a[0];
    loop {
        // Next relevant gate in plan order. A gate on both operands sits
        // in both lists (same rank) and is visited once, counting both
        // entries' partners.
        let (next, other) = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x.rank == y.rank => {
                i += 1;
                j += 1;
                (*x, Some(y.partner))
            }
            (Some(x), Some(y)) if x.rank < y.rank => {
                i += 1;
                (*x, None)
            }
            (_, Some(y)) => {
                j += 1;
                (*y, None)
            }
            (Some(x), None) => {
                i += 1;
                (*x, None)
            }
            (None, None) => break,
        };
        let gap = match metric {
            ProximityMetric::Layers => next.layer.saturating_sub(last.layer),
            ProximityMetric::Gates => remaining.pending_between(last.rank, next.rank),
        };
        if gap > proximity {
            break;
        }
        last = next;
        count(next.partner);
        if let Some(partner) = other {
            count(partner);
        }
    }
    SCAN_ENTRIES.add((i + j - 2) as u64);
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remaining::testing::random_walk;
    use qccd_circuit::{DependencyDag, Opcode};
    use qccd_machine::{InitialMapping, MachineSpec};
    use std::collections::VecDeque;

    /// The reference scan: walks the whole pending queue past the active
    /// gate, stopping at the first gate of any kind beyond the cutoff.
    #[allow(clippy::too_many_arguments)]
    fn queue_scan_scores(
        circuit: &Circuit,
        dag: &DependencyDag,
        state: &MachineState,
        pending: &VecDeque<GateId>,
        active_pos: usize,
        trap_a: TrapId,
        trap_b: TrapId,
        proximity: u32,
        metric: ProximityMetric,
    ) -> MoveScores {
        let (qa, qb) = circuit
            .gate(pending[active_pos])
            .two_qubit_operands()
            .unwrap();
        let mut scores = MoveScores::default();
        let (mut last_pos, mut last_layer) = (active_pos, dag.layer_of(pending[active_pos]));
        for (pos, &gid) in pending.iter().enumerate().skip(active_pos + 1) {
            let gap = match metric {
                ProximityMetric::Layers => dag.layer_of(gid).saturating_sub(last_layer) as usize,
                ProximityMetric::Gates => pos - last_pos - 1,
            };
            if gap > proximity as usize {
                break;
            }
            let Some((x, y)) = circuit.gate(gid).two_qubit_operands() else {
                continue;
            };
            if x != qa && x != qb && y != qa && y != qb {
                continue;
            }
            (last_pos, last_layer) = (pos, dag.layer_of(gid));
            for (p, partner) in [(x, y), (y, x)] {
                if p != qa && p != qb {
                    continue;
                }
                let partner_trap = state.trap_of(IonId::from(partner));
                if partner_trap == trap_b {
                    scores.a_to_b += 1;
                } else if partner_trap == trap_a {
                    scores.b_to_a += 1;
                }
            }
        }
        scores
    }

    #[test]
    fn indexed_scores_equal_the_queue_scan_at_every_step() {
        let mut compared = 0;
        for seed in 0..40 {
            let walk = random_walk(seed);
            let (c, dag, state) = (&walk.circuit, &walk.dag, &walk.state);
            for (pending, ready, remaining) in &walk.steps {
                for (pos, &gid) in pending.iter().enumerate() {
                    let Some((qa, qb)) = c.gate(gid).two_qubit_operands() else {
                        continue;
                    };
                    let (ta, tb) = (state.trap_of(qa.into()), state.trap_of(qb.into()));
                    if !ready.is_ready(gid) || ta == tb {
                        continue;
                    }
                    for metric in [ProximityMetric::Layers, ProximityMetric::Gates] {
                        for proximity in [0, 1, 2, 6, 50] {
                            assert_eq!(
                                move_scores(state, remaining, qa, qb, ta, tb, proximity, metric),
                                queue_scan_scores(
                                    c, dag, state, pending, pos, ta, tb, proximity, metric
                                ),
                                "seed {seed} gate {gid} {metric:?} proximity {proximity}"
                            );
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert!(compared > 10_000, "{compared} comparisons");
    }

    /// Builds the Fig. 4 scenario: 2 traps of capacity 4; ions 0,1 in T0;
    /// ions 2,3,4 in T1. Gates A-D.
    fn fig4() -> (Circuit, MachineState, RemainingGates) {
        let mut c = Circuit::new(5);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap(); // A
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(3)).unwrap(); // B
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap(); // C
        c.push_two_qubit(Opcode::Ms, Qubit(2), Qubit(4)).unwrap(); // D
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
        )
        .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        (c, state, remaining)
    }

    #[test]
    fn paper_table1_move_score() {
        // Table I: ionA=1, ionB=2, trapA=T0, trapB=T1.
        // ionA(A→B) = 3 (Gate-C + Gates B,D), ionB(B→A) = 1 (Gate-C).
        let (_, state, remaining) = fig4();
        for metric in [ProximityMetric::Layers, ProximityMetric::Gates] {
            let scores = move_scores(
                &state,
                &remaining,
                Qubit(1),
                Qubit(2),
                TrapId(0),
                TrapId(1),
                6,
                metric,
            );
            assert_eq!(
                scores,
                MoveScores {
                    a_to_b: 3,
                    b_to_a: 1
                },
                "metric {metric:?}"
            );
        }
    }

    #[test]
    fn future_ops_moves_ion1_to_t1() {
        // §III-A2: "ionA = 1 will move from trapA (T0) to trapB (T1)".
        let (c, state, remaining) = fig4();
        let d = decide_direction(
            DirectionPolicy::FutureOps { proximity: 6 },
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        assert_eq!(
            d,
            MoveDecision {
                ion: IonId(1),
                from: TrapId(0),
                to: TrapId(1)
            }
        );
    }

    #[test]
    fn excess_capacity_moves_ion2_to_t0() {
        // Fig. 4: EC(T0)=2 > EC(T1)=1, so the baseline moves ion 2 into T0.
        let (c, state, remaining) = fig4();
        let d = decide_direction(
            DirectionPolicy::ExcessCapacity,
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        assert_eq!(
            d,
            MoveDecision {
                ion: IonId(2),
                from: TrapId(1),
                to: TrapId(0)
            }
        );
    }

    #[test]
    fn excess_capacity_tie_moves_first_ion() {
        let mut c = Circuit::new(4);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        // 2 ions per trap: equal ECs.
        let mapping =
            InitialMapping::from_traps(&spec, vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1)])
                .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        let d = decide_direction(
            DirectionPolicy::ExcessCapacity,
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        assert_eq!(d.ion, IonId(0), "tie moves the gate's first ion");
        assert_eq!(d.to, TrapId(1));
    }

    /// Builds the Fig. 5 scenario: relevant gates 1 and 3 are close; gate
    /// 11 is separated from gate 3 by a 7-gate (and 7-layer) filler chain.
    fn fig5() -> (Circuit, MachineState, RemainingGates) {
        let mut c = Circuit::new(10);
        let (a, b, cc, d) = (Qubit(0), Qubit(1), Qubit(2), Qubit(3));
        c.push_two_qubit(Opcode::Ms, a, b).unwrap(); // 1 (active)
        c.push_two_qubit(Opcode::Ms, cc, Qubit(4)).unwrap(); // 2 (filler)
        c.push_two_qubit(Opcode::Ms, a, cc).unwrap(); // 3 relevant

        // Filler chain on qubits 8-9: each gate depends on the previous,
        // pushing layers (and positions) 7 deep.
        for _ in 0..7 {
            c.push_two_qubit(Opcode::Ms, Qubit(8), Qubit(9)).unwrap(); // 4..=10
        }
        // Gate 11 involves b and d, with d fed through the filler chain so
        // its layer is deep under both metrics.
        c.push_two_qubit(Opcode::Ms, Qubit(9), d).unwrap(); // chains d deep
        c.push_two_qubit(Opcode::Ms, b, d).unwrap(); // "gate 11" relevant but distant
        let spec = MachineSpec::linear(2, 8, 2).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0), // a
                TrapId(1), // b
                TrapId(1), // c  (so gate 3 counts toward a_to_b)
                TrapId(1), // d  (gate 11 would also count toward a_to_b)
                TrapId(0),
                TrapId(0),
                TrapId(0),
                TrapId(1),
                TrapId(1),
                TrapId(0),
            ],
        )
        .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        (c, state, remaining)
    }

    #[test]
    fn proximity_excludes_distant_gates_both_metrics() {
        // Fig. 5: gate 3 is close (considered); the late (b,d) gate is
        // beyond the proximity-6 horizon under both metrics.
        let (_, state, remaining) = fig5();
        for metric in [ProximityMetric::Layers, ProximityMetric::Gates] {
            let near = move_scores(
                &state,
                &remaining,
                Qubit(0),
                Qubit(1),
                TrapId(0),
                TrapId(1),
                6,
                metric,
            );
            assert_eq!(
                near,
                MoveScores {
                    a_to_b: 1,
                    b_to_a: 0
                },
                "only gate 3 counts under {metric:?}"
            );
            // A generous proximity includes the distant gate too.
            let far = move_scores(
                &state,
                &remaining,
                Qubit(0),
                Qubit(1),
                TrapId(0),
                TrapId(1),
                50,
                metric,
            );
            assert_eq!(
                far,
                MoveScores {
                    a_to_b: 2,
                    b_to_a: 0
                },
                "distant gate included under {metric:?} with proximity 50"
            );
        }
    }

    #[test]
    fn layer_metric_sees_parallel_relevant_gates() {
        // A wide layer: 20 independent filler gates sit between the active
        // gate and the relevant gate *in position*, but everything is in
        // layers 0-1. The layer metric keeps the relevant gate; the literal
        // gate metric discards it at proximity 6.
        let mut c = Circuit::new(46);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // active
        for i in 0..20 {
            let base = 4 + 2 * i;
            c.push_two_qubit(Opcode::Ms, Qubit(base), Qubit(base + 1))
                .unwrap();
        }
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(2)).unwrap(); // relevant, layer 1
        let spec = MachineSpec::linear(2, 60, 2).unwrap();
        // Qubits 1 and 2 live in T1; qubit 0 and all fillers in T0.
        let traps: Vec<TrapId> = (0..46)
            .map(|q| {
                if q == 1 || q == 2 {
                    TrapId(1)
                } else {
                    TrapId(0)
                }
            })
            .collect();
        let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());

        let layers = move_scores(
            &state,
            &remaining,
            Qubit(0),
            Qubit(1),
            TrapId(0),
            TrapId(1),
            6,
            ProximityMetric::Layers,
        );
        assert_eq!(
            layers,
            MoveScores {
                a_to_b: 1,
                b_to_a: 0
            }
        );

        let gates = move_scores(
            &state,
            &remaining,
            Qubit(0),
            Qubit(1),
            TrapId(0),
            TrapId(1),
            6,
            ProximityMetric::Gates,
        );
        assert_eq!(
            gates,
            MoveScores::default(),
            "literal gate distance discards the relevant gate behind 20 fillers"
        );
    }

    #[test]
    fn tie_falls_back_to_excess_capacity() {
        // No future gates at all: scores tie at 0; EC rule must decide.
        let mut c = Circuit::new(5);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
        )
        .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        let d = decide_direction(
            DirectionPolicy::FutureOps { proximity: 6 },
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        // EC(T0)=2 > EC(T1)=1: move ion 2 into T0 (same as baseline test).
        assert_eq!(d.ion, IonId(2));
    }

    #[test]
    fn open_ties_surface_both_orientations() {
        // No future gates: the scores tie, so the decision is open and the
        // alternative is the opposite orientation of the EC choice.
        let mut c = Circuit::new(5);
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![TrapId(0), TrapId(0), TrapId(1), TrapId(1), TrapId(1)],
        )
        .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        let choice = decide_direction_open(
            DirectionPolicy::FutureOps { proximity: 6 },
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        let alt = choice.alternative.expect("scoreless gate ties");
        assert_ne!(choice.decision.ion, alt.ion);
        assert_eq!(choice.decision.from, alt.to);
        assert_eq!(choice.decision.to, alt.from);

        // A decisive score (the Fig. 4 setup) surfaces no alternative, and
        // the EC policy never does.
        let (c, state, remaining) = fig4();
        let decisive = decide_direction_open(
            DirectionPolicy::FutureOps { proximity: 6 },
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        assert_eq!(decisive.alternative, None);
        let ec = decide_direction_open(
            DirectionPolicy::ExcessCapacity,
            &c,
            &state,
            &remaining,
            GateId(0),
        );
        assert_eq!(ec.alternative, None);
    }

    #[test]
    fn partners_in_third_traps_are_neutral() {
        let mut c = Circuit::new(6);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // active
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(5)).unwrap(); // partner in T2
        let spec = MachineSpec::linear(3, 4, 1).unwrap();
        let mapping = InitialMapping::from_traps(
            &spec,
            vec![
                TrapId(0),
                TrapId(1),
                TrapId(0),
                TrapId(1),
                TrapId(2),
                TrapId(2),
            ],
        )
        .unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = c.dependency_dag();
        let remaining = RemainingGates::new(&c, &dag, dag.topological_order());
        let s = move_scores(
            &state,
            &remaining,
            Qubit(0),
            Qubit(1),
            TrapId(0),
            TrapId(1),
            6,
            ProximityMetric::Layers,
        );
        assert_eq!(s, MoveScores::default());
    }

    #[test]
    fn opposite_decision() {
        let d = MoveDecision {
            ion: IonId(1),
            from: TrapId(0),
            to: TrapId(1),
        };
        let o = d.opposite(IonId(2));
        assert_eq!(
            o,
            MoveDecision {
                ion: IonId(2),
                from: TrapId(1),
                to: TrapId(0)
            }
        );
    }
}
