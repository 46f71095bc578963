//! The remaining-gate index behind the §III scans.
//!
//! Dependencies are qubit-carried: every gate depends on the last earlier
//! gate on each of its operands. So the gates on one qubit execute in
//! program order, and a qubit's not-yet-executed gates are always a suffix
//! of its gate list. The index keeps, per qubit, that list and the length
//! of its executed prefix. The §III-A move score then visits only the gates
//! of the active gate's two operands, never the whole pending queue.
//!
//! The lists hold [`Entry`] values, not gate ids: each entry carries the
//! three things the move score reads about a gate — its plan rank, its
//! dependency-graph layer and the operand's partner qubit — so the scan
//! merges two flat slices without a circuit, DAG or rank lookup per gate.
//! All lists share one exact-size array, cut by per-qubit offsets.
//!
//! Two more views serve the other scans: per-pair counts of the remaining
//! two-qubit gates, which make the §III-C eviction score O(capacity²) per
//! candidate set instead of a walk over every pending gate, and a Fenwick
//! tree over plan ranks, which gives the gate-distance proximity metric
//! the number of pending gates between two gates in O(log n).
//!
//! The pending gates in plan order are the compile loop's queue: the
//! Fenwick tree turns a rank into its queue position
//! ([`pending_before`](RemainingGates::pending_before)) and a position
//! into its rank ([`select`](RemainingGates::select)), both in O(log n).

use qccd_circuit::{Circuit, DependencyDag, GateId, GateQubits, Qubit};
use qccd_machine::IonId;

/// The §III scans' reach, a deterministic measure of their work: the
/// remaining-gate index entries the move and eviction scores read, plus,
/// per re-ordering scan, the queue positions from the active gate to the
/// hoisted candidate (or to the window's end when none qualifies) —
/// whether the scan visits each position or skips to the ready ones.
pub(crate) static SCAN_ENTRIES: qccd_obs::Counter = qccd_obs::Counter::new("core.scan_entries");

/// One two-qubit gate as seen from one of its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    /// The gate's position in the initial plan (unique per gate).
    pub(crate) rank: u32,
    /// The gate's dependency-graph layer.
    pub(crate) layer: u32,
    /// The gate's other operand.
    pub(crate) partner: Qubit,
}

/// Per-qubit remaining gates, remaining pair counts and pending ranks of
/// one compile. Updated by [`mark_done`](Self::mark_done) exactly when the
/// scheduler retires a gate from its pending queue.
#[derive(Debug, Clone)]
pub(crate) struct RemainingGates {
    /// Qubit `q`'s two-qubit gates, in plan order, are
    /// `entries[offsets[q]..offsets[q + 1]]`.
    entries: Vec<Entry>,
    offsets: Vec<usize>,
    /// `next[q]`: index in `entries` of qubit `q`'s first gate not yet
    /// executed.
    next: Vec<usize>,
    /// `pairs[a * num_qubits + b]`: remaining two-qubit gates on `a`, `b`.
    pairs: Vec<u32>,
    num_qubits: usize,
    /// `rank[g]`: position of gate `g` in the initial plan.
    rank: Vec<u32>,
    /// The initial plan: `plan[r]` is the gate of rank `r`.
    plan: Vec<GateId>,
    /// Fenwick tree over plan ranks holding 1 per gate not yet executed.
    pending: Vec<u32>,
    /// Gates not yet executed.
    left: usize,
}

impl RemainingGates {
    /// The index for `circuit` with nothing executed; `plan` is the
    /// initial execution order (a topological order of every gate) and
    /// `dag` supplies each gate's layer.
    pub(crate) fn new(circuit: &Circuit, dag: &DependencyDag, plan: Vec<GateId>) -> Self {
        let n = circuit.num_qubits() as usize;
        let mut pairs = vec![0u32; n * n];
        let mut rank = vec![0u32; plan.len()];
        // Count each qubit's gates, then fill every list in plan order.
        let mut offsets = vec![0usize; n + 1];
        for &g in &plan {
            if let Some((a, b)) = circuit.gate(g).two_qubit_operands() {
                offsets[a.index() + 1] += 1;
                offsets[b.index() + 1] += 1;
                pairs[a.index() * n + b.index()] += 1;
                pairs[b.index() * n + a.index()] += 1;
            }
        }
        for q in 0..n {
            offsets[q + 1] += offsets[q];
        }
        let mut next = offsets[..n].to_vec();
        let placeholder = Entry {
            rank: 0,
            layer: 0,
            partner: Qubit(0),
        };
        let mut entries = vec![placeholder; offsets[n]];
        for (r, &g) in plan.iter().enumerate() {
            rank[g.index()] = r as u32;
            if let Some((a, b)) = circuit.gate(g).two_qubit_operands() {
                let layer = dag.layer_of(g);
                for (q, partner) in [(a, b), (b, a)] {
                    entries[next[q.index()]] = Entry {
                        rank: r as u32,
                        layer,
                        partner,
                    };
                    next[q.index()] += 1;
                }
            }
        }
        next.copy_from_slice(&offsets[..n]);
        // With every rank pending, Fenwick node i (1-based) covers
        // (i - lowbit(i), i], so it holds lowbit(i).
        let pending = (1..=plan.len())
            .map(|i| (i & i.wrapping_neg()) as u32)
            .collect();
        RemainingGates {
            entries,
            offsets,
            next,
            pairs,
            num_qubits: n,
            rank,
            left: plan.len(),
            plan,
            pending,
        }
    }

    /// Qubit `q`'s two-qubit gates not yet executed, in plan order.
    pub(crate) fn of(&self, q: Qubit) -> &[Entry] {
        &self.entries[self.next[q.index()]..self.offsets[q.index() + 1]]
    }

    /// The first not yet executed two-qubit gate on the qubit ion `ion`
    /// hosts (`None` for an ion that hosts no qubit of the circuit).
    pub(crate) fn first_of(&self, ion: IonId) -> Option<&Entry> {
        if ion.index() < self.num_qubits {
            self.of(Qubit::from(ion)).first()
        } else {
            None
        }
    }

    /// Remaining two-qubit gates between ions `a` and `b` (0 for an ion
    /// that hosts no qubit of the circuit).
    pub(crate) fn pair_count(&self, a: IonId, b: IonId) -> u32 {
        let n = self.num_qubits;
        if a.index() < n && b.index() < n {
            self.pairs[a.index() * n + b.index()]
        } else {
            0
        }
    }

    /// Position of `g` in the initial plan.
    pub(crate) fn rank(&self, g: GateId) -> u32 {
        self.rank[g.index()]
    }

    /// The gate of plan rank `rank`.
    pub(crate) fn gate(&self, rank: u32) -> GateId {
        self.plan[rank as usize]
    }

    /// Gates not yet executed.
    pub(crate) fn len(&self) -> usize {
        self.left
    }

    /// Whether every gate has executed.
    pub(crate) fn is_empty(&self) -> bool {
        self.left == 0
    }

    /// Pending gates strictly between plan ranks `a` and `b` (`a < b`).
    pub(crate) fn pending_between(&self, a: u32, b: u32) -> u32 {
        self.pending_before(b as usize) - self.pending_before(a as usize + 1)
    }

    /// Pending gates with plan rank below `rank`: the queue position of a
    /// pending gate of that rank.
    pub(crate) fn pending_before(&self, rank: usize) -> u32 {
        let (mut i, mut sum) = (rank, 0);
        while i > 0 {
            sum += self.pending[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// The plan rank of the pending gate at queue position `k` (0-based),
    /// or the plan length when fewer than `k + 1` gates are pending: the
    /// exclusive rank bound of the first `k` queued gates.
    pub(crate) fn select(&self, k: usize) -> u32 {
        // Descend the implicit tree: `pos` is the longest rank prefix
        // holding at most `k` pending gates; `rest` is `k` minus its count.
        let (mut pos, mut rest) = (0usize, k);
        let mut step = (self.pending.len() + 1).next_power_of_two() / 2;
        while step > 0 {
            if let Some(&count) = self.pending.get(pos + step - 1) {
                if count as usize <= rest {
                    pos += step;
                    rest -= count as usize;
                }
            }
            step /= 2;
        }
        pos as u32
    }

    /// Retires the executed gate `g`.
    pub(crate) fn mark_done(&mut self, circuit: &Circuit, g: GateId) {
        if let GateQubits::Two(a, b) = circuit.gate(g).qubits {
            for q in [a, b] {
                debug_assert_eq!(
                    self.of(q).first().map(|e| e.rank),
                    Some(self.rank(g)),
                    "qubit gates run in order"
                );
                self.next[q.index()] += 1;
            }
            let n = self.num_qubits;
            self.pairs[a.index() * n + b.index()] -= 1;
            self.pairs[b.index() * n + a.index()] -= 1;
        }
        self.left -= 1;
        let mut i = self.rank(g) as usize + 1;
        while i <= self.pending.len() {
            self.pending[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
    }
}

/// Random executions for the differential tests of the index and the
/// scans built on it.
#[cfg(test)]
pub(crate) mod testing {
    use super::RemainingGates;
    use qccd_circuit::{Circuit, DependencyDag, GateId, Opcode, Qubit, ReadySet};
    use qccd_machine::{InitialMapping, MachineSpec, MachineState, TrapId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;
    use std::ops::{Range, RangeInclusive};

    /// A random circuit mixing one- and two-qubit gates on a random
    /// placement over four traps, executed in a random ready order; `steps`
    /// holds the scheduler's view before every execution.
    pub(crate) struct Walk {
        pub(crate) circuit: Circuit,
        pub(crate) dag: DependencyDag,
        pub(crate) state: MachineState,
        pub(crate) steps: Vec<(VecDeque<GateId>, ReadySet, RemainingGates)>,
    }

    pub(crate) fn random_walk(seed: u64) -> Walk {
        random_walk_of(seed, 4..=16, 20..120)
    }

    /// [`random_walk`] with qubit and gate counts drawn from `qubits` and
    /// `gates`.
    pub(crate) fn random_walk_of(
        seed: u64,
        qubits: RangeInclusive<u32>,
        gates: Range<usize>,
    ) -> Walk {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(qubits);
        let mut circuit = Circuit::new(n);
        for _ in 0..rng.gen_range(gates) {
            let a = rng.gen_range(0..n);
            if rng.gen_bool(0.2) {
                circuit.push_single_qubit(Opcode::H, Qubit(a)).unwrap();
            } else {
                let b = (a + rng.gen_range(1..n)) % n;
                circuit
                    .push_two_qubit(Opcode::Ms, Qubit(a), Qubit(b))
                    .unwrap();
            }
        }
        let spec = MachineSpec::linear(4, n, 0).unwrap();
        let traps = (0..n).map(|_| TrapId(rng.gen_range(0..4))).collect();
        let mapping = InitialMapping::from_traps(&spec, traps).unwrap();
        let state = MachineState::with_mapping(&spec, &mapping).unwrap();
        let dag = circuit.dependency_dag();
        let plan = dag.topological_order();
        let mut remaining = RemainingGates::new(&circuit, &dag, plan.clone());
        let mut pending: VecDeque<GateId> = plan.into();
        let mut ready = dag.ready_set();
        let mut steps = Vec::new();
        while !pending.is_empty() {
            steps.push((pending.clone(), ready.clone(), remaining.clone()));
            // Hoist a random ready gate from the front window, as the
            // drain and re-ordering passes do.
            let window: Vec<usize> = (0..pending.len().min(8))
                .filter(|&p| ready.is_ready(pending[p]))
                .collect();
            let pos = window[rng.gen_range(0..window.len())];
            let g = pending.remove(pos).unwrap();
            ready.mark_done(&dag, g);
            remaining.mark_done(&circuit, g);
        }
        Walk {
            circuit,
            dag,
            state,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::Opcode;

    #[test]
    fn tracks_suffixes_pairs_and_pending_ranks() {
        let mut c = Circuit::new(3);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // g0
        c.push_single_qubit(Opcode::H, Qubit(2)).unwrap(); // g1
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap(); // g2
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap(); // g3
        let dag = c.dependency_dag();
        let plan = dag.topological_order();
        assert_eq!(plan, vec![GateId(0), GateId(1), GateId(2), GateId(3)]);
        let mut r = RemainingGates::new(&c, &dag, plan);
        let e = |rank, layer, partner| Entry {
            rank,
            layer,
            partner: Qubit(partner),
        };
        assert_eq!(r.of(Qubit(1)), &[e(0, 0, 0), e(2, 1, 2), e(3, 2, 0)]);
        assert_eq!(r.pair_count(IonId(0), IonId(1)), 2);
        assert_eq!(r.pair_count(IonId(1), IonId(0)), 2);
        assert_eq!(r.pair_count(IonId(0), IonId(7)), 0, "ion without a qubit");
        assert_eq!(r.pending_between(0, 3), 2);

        r.mark_done(&c, GateId(0));
        r.mark_done(&c, GateId(1));
        assert_eq!(r.of(Qubit(0)), &[e(3, 2, 1)]);
        assert_eq!(r.of(Qubit(1)), &[e(2, 1, 2), e(3, 2, 0)]);
        assert_eq!(r.of(Qubit(2)), &[e(2, 1, 1)]);
        assert_eq!(r.pair_count(IonId(0), IonId(1)), 1);
        assert_eq!(r.pending_between(0, 3), 1);
        assert_eq!(r.pending_between(2, 3), 0);
    }

    #[test]
    fn index_matches_the_pending_queue_at_every_step() {
        for seed in 0..30 {
            let walk = testing::random_walk(seed);
            let (c, dag) = (&walk.circuit, &walk.dag);
            let n = c.num_qubits();
            for (pending, _, r) in &walk.steps {
                let two_qubit = |g: &&GateId| c.gate(**g).two_qubit_operands();
                for q in (0..n).map(Qubit) {
                    let on_q: Vec<Entry> = pending
                        .iter()
                        .filter_map(|g| {
                            let (a, b) = two_qubit(&g)?;
                            let partner = match q {
                                _ if q == a => b,
                                _ if q == b => a,
                                _ => return None,
                            };
                            Some(Entry {
                                rank: r.rank(*g),
                                layer: dag.layer_of(*g),
                                partner,
                            })
                        })
                        .collect();
                    assert_eq!(r.of(q), on_q, "seed {seed}");
                    for p in (0..n).map(Qubit) {
                        let on_pair = pending
                            .iter()
                            .filter(|g| {
                                two_qubit(g) == Some((q, p)) || two_qubit(g) == Some((p, q))
                            })
                            .count() as u32;
                        let ions = (IonId::from(q), IonId::from(p));
                        assert_eq!(r.pair_count(ions.0, ions.1), on_pair, "seed {seed}");
                    }
                }
                let plan_len = r.rank.len() as u32;
                for k in 0..pending.len() + 3 {
                    let want = pending.get(k).map_or(plan_len, |&g| r.rank(g));
                    assert_eq!(r.select(k), want, "seed {seed} position {k}");
                }
                assert_eq!(r.len(), pending.len());
                for (i, &a) in pending.iter().enumerate() {
                    assert_eq!(r.gate(r.rank(a)), a);
                    assert_eq!(r.pending_before(r.rank(a) as usize) as usize, i);
                    for (j, &b) in pending.iter().enumerate().skip(i + 1) {
                        let between = r.pending_between(r.rank(a), r.rank(b));
                        assert_eq!(between as usize, j - i - 1, "seed {seed}");
                    }
                }
            }
        }
    }
}
