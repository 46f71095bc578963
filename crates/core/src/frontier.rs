//! The ready frontier of the compile loop.
//!
//! The loop's queue is the pending gates in plan order (see
//! [`RemainingGates`]). Three scans read its front window: the drain of
//! co-located gates, the §III-B re-ordering scan (Algorithm 1) and, under
//! the clock objective, the batched-layer scan. All three want only
//! *ready* gates, split by whether their operands already share a trap.
//! The frontier keeps exactly those gates as two bitsets over plan ranks
//! and changes them only where readiness or locality changes:
//!
//! * a retired gate leaves, and its DAG successors that became ready join;
//! * an ion hop re-files the first remaining two-qubit gate on the ion's
//!   qubit — the only gate on that qubit that can be ready.
//!
//! A scan then reads set bits between two ranks instead of testing every
//! queue slot. Because the queue is a rank-ordered subsequence of the plan,
//! the set bits between the active gate's rank and the window's end rank
//! are the window's ready gates in queue order: each scan visits the same
//! gates in the same order as a walk over the slots.

use crate::remaining::RemainingGates;
use qccd_circuit::{Circuit, DependencyDag, GateId, GateQubits, ReadySet};
use qccd_machine::{IonId, MachineState};

/// Queued gates the drain and the window scans look at past the active
/// gate, keeping both linear in compile time.
pub(crate) const REORDER_WINDOW: usize = 128;

/// The ready gates of one compile, as two disjoint bitsets over plan ranks.
#[derive(Debug, Clone)]
pub(crate) struct Frontier {
    /// Ready one-qubit gates, and ready two-qubit gates whose operands
    /// share a trap.
    local: Vec<u64>,
    /// Ready two-qubit gates whose operands sit in different traps.
    cross: Vec<u64>,
}

impl Frontier {
    /// The frontier of the ready gates of `ready` over the placement in
    /// `state`.
    pub(crate) fn new(
        circuit: &Circuit,
        ready: &ReadySet,
        state: &MachineState,
        remaining: &RemainingGates,
    ) -> Self {
        let words = circuit.len().div_ceil(64);
        let mut frontier = Frontier {
            local: vec![0; words],
            cross: vec![0; words],
        };
        for g in circuit.gates() {
            frontier.file(circuit, ready, state, remaining, g.id);
        }
        frontier
    }

    /// Files `g`, if it is ready, under the set its operands' traps pick.
    fn file(
        &mut self,
        circuit: &Circuit,
        ready: &ReadySet,
        state: &MachineState,
        remaining: &RemainingGates,
        g: GateId,
    ) {
        if ready.is_ready(g) {
            let local = match circuit.gate(g).qubits {
                GateQubits::One(_) => true,
                GateQubits::Two(a, b) => {
                    state.trap_of(IonId::from(a)) == state.trap_of(IonId::from(b))
                }
            };
            self.set(remaining.rank(g), local);
        }
    }

    /// Puts rank `rank` into `local` or `cross`, and out of the other.
    fn set(&mut self, rank: u32, local: bool) {
        let (word, bit) = split(rank);
        let (into, from) = if local {
            (&mut self.local, &mut self.cross)
        } else {
            (&mut self.cross, &mut self.local)
        };
        into[word] |= bit;
        from[word] &= !bit;
    }

    /// Drops the executed gate `g` (already marked done in `ready`) and
    /// files its successors that became ready.
    pub(crate) fn retire(
        &mut self,
        circuit: &Circuit,
        dag: &DependencyDag,
        ready: &ReadySet,
        state: &MachineState,
        remaining: &RemainingGates,
        g: GateId,
    ) {
        let (word, bit) = split(remaining.rank(g));
        self.local[word] &= !bit;
        self.cross[word] &= !bit;
        for &s in dag.successors(g) {
            self.file(circuit, ready, state, remaining, s);
        }
    }

    /// Re-files the one gate whose locality the hop of `ion` can change
    /// while it is ready: the first remaining two-qubit gate on the ion's
    /// qubit (ions without a qubit of the circuit carry no gate).
    pub(crate) fn moved(
        &mut self,
        ready: &ReadySet,
        state: &MachineState,
        remaining: &RemainingGates,
        ion: IonId,
    ) {
        let Some(first) = remaining.first_of(ion) else {
            return;
        };
        if ready.is_ready(remaining.gate(first.rank)) {
            let partner = IonId::from(first.partner);
            self.set(first.rank, state.trap_of(ion) == state.trap_of(partner));
        }
    }

    /// The drain's next gate: the lowest-ranked local gate among the first
    /// [`REORDER_WINDOW`] queued gates. No gate below rank `front` may be
    /// pending.
    pub(crate) fn next_local(&self, remaining: &RemainingGates, front: u32) -> Option<u32> {
        let hi = remaining.select(REORDER_WINDOW);
        Ranks::new(&self.local, front, hi).next()
    }

    /// The ready cross-trap gates among the [`REORDER_WINDOW`] queued gates
    /// after the pending gate of rank `active`, in queue order, and the
    /// number of queued gates in that window (the scans' reach when none
    /// qualifies).
    pub(crate) fn cross_window(
        &self,
        remaining: &RemainingGates,
        active: u32,
    ) -> (Ranks<'_>, usize) {
        let pos = remaining.pending_before(active as usize) as usize;
        let end = pos + 1 + REORDER_WINDOW;
        let reach = end.min(remaining.len()) - pos - 1;
        let hi = remaining.select(end);
        (Ranks::new(&self.cross, active + 1, hi), reach)
    }

    /// The first gate of [`cross_window`](Self::cross_window) that
    /// `qualifies`, as a plan rank, and the scan's reach: the queue
    /// positions from the active gate up to and including that gate, or
    /// the whole window when none qualifies.
    pub(crate) fn find_cross(
        &self,
        remaining: &RemainingGates,
        active: u32,
        mut qualifies: impl FnMut(GateId) -> bool,
    ) -> (Option<u32>, usize) {
        let (candidates, reach) = self.cross_window(remaining, active);
        for rank in candidates {
            if qualifies(remaining.gate(rank)) {
                let reach = remaining.pending_between(active, rank) as usize + 1;
                return (Some(rank), reach);
            }
        }
        (None, reach)
    }
}

/// The word index and bit mask of `rank`.
fn split(rank: u32) -> (usize, u64) {
    ((rank / 64) as usize, 1 << (rank % 64))
}

/// The set bits of a bitset between two ranks, in ascending order.
#[derive(Debug, Clone)]
pub(crate) struct Ranks<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The not yet yielded bits of that word.
    bits: u64,
    /// Exclusive upper rank bound.
    hi: u32,
}

impl<'a> Ranks<'a> {
    /// The set ranks `lo..hi` of `words`.
    fn new(words: &'a [u64], lo: u32, hi: u32) -> Self {
        if lo >= hi {
            return Ranks {
                words,
                word: 0,
                bits: 0,
                hi: 0,
            };
        }
        let (word, bit) = split(lo);
        Ranks {
            words,
            word,
            bits: words[word] & !(bit - 1),
            hi,
        }
    }
}

impl Iterator for Ranks<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.word += 1;
            if self.word * 64 >= self.hi as usize {
                return None;
            }
            self.bits = self.words[self.word];
        }
        let rank = self.word as u32 * 64 + self.bits.trailing_zeros();
        if rank >= self.hi {
            self.bits = 0;
            self.hi = 0;
            return None;
        }
        self.bits &= self.bits - 1;
        Some(rank)
    }
}

/// The three window scans as slot walks over the pending queue — the
/// drain, the re-ordering scan and the batched-layer scan as the compile
/// loop ran them before the frontier — kept as the oracles the frontier
/// must reproduce gate for gate.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::remaining::testing::{random_walk, random_walk_of};
    use qccd_machine::TrapId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    fn is_local(circuit: &Circuit, state: &MachineState, g: GateId) -> bool {
        match circuit.gate(g).qubits {
            GateQubits::One(_) => true,
            GateQubits::Two(a, b) => state.trap_of(IonId::from(a)) == state.trap_of(IonId::from(b)),
        }
    }

    /// The drain: one forward pass over the front window, executing every
    /// ready local gate it meets; returns the executed gates in order.
    fn drain_slot_walk(
        circuit: &Circuit,
        dag: &DependencyDag,
        state: &MachineState,
        mut pending: VecDeque<GateId>,
        mut ready: ReadySet,
    ) -> Vec<GateId> {
        let mut executed = Vec::new();
        let window = REORDER_WINDOW.min(pending.len());
        let mut pos = 0;
        while pos < window.min(pending.len()) {
            let gid = pending[pos];
            if is_local(circuit, state, gid) && ready.is_ready(gid) {
                ready.mark_done(dag, gid);
                pending.remove(pos);
                executed.push(gid);
            } else {
                pos += 1;
            }
        }
        executed
    }

    /// The re-ordering scan: the first ready cross-trap gate in the window
    /// after `active_pos` that `qualifies`, and the scan's reach.
    fn reorder_slot_walk(
        circuit: &Circuit,
        state: &MachineState,
        pending: &VecDeque<GateId>,
        ready: &ReadySet,
        active_pos: usize,
        qualifies: impl Fn(GateId) -> bool,
    ) -> (Option<GateId>, usize) {
        let end = (active_pos + 1 + REORDER_WINDOW).min(pending.len());
        for (pos, &gid) in pending.iter().enumerate().take(end).skip(active_pos + 1) {
            if !ready.is_ready(gid) || circuit.gate(gid).two_qubit_operands().is_none() {
                continue;
            }
            if is_local(circuit, state, gid) {
                continue;
            }
            if qualifies(gid) {
                return (Some(gid), pos - active_pos);
            }
        }
        (None, end - active_pos - 1)
    }

    /// The batched-layer scan's candidates: the ready cross-trap gates of
    /// the window after `pos`, in queue order.
    fn batch_slot_walk(
        circuit: &Circuit,
        state: &MachineState,
        pending: &VecDeque<GateId>,
        ready: &ReadySet,
        pos: usize,
    ) -> Vec<GateId> {
        let end = (pos + 1 + REORDER_WINDOW).min(pending.len());
        (pos + 1..end)
            .map(|p| pending[p])
            .filter(|&g| {
                ready.is_ready(g)
                    && circuit.gate(g).two_qubit_operands().is_some()
                    && !is_local(circuit, state, g)
            })
            .collect()
    }

    /// The drain over the frontier, on copies of the loop's state.
    fn drain_frontier(
        circuit: &Circuit,
        dag: &DependencyDag,
        state: &MachineState,
        mut frontier: Frontier,
        mut ready: ReadySet,
        mut remaining: RemainingGates,
    ) -> Vec<GateId> {
        let mut executed = Vec::new();
        let front = remaining.select(0);
        while let Some(rank) = frontier.next_local(&remaining, front) {
            let g = remaining.gate(rank);
            ready.mark_done(dag, g);
            remaining.mark_done(circuit, g);
            frontier.retire(circuit, dag, &ready, state, &remaining, g);
            executed.push(g);
        }
        executed
    }

    /// Random walks with random ion hops between the executions: at every
    /// step the frontier holds exactly the ready gates split by locality,
    /// and each scan picks the same gates in the same order (with the same
    /// reach) as its slot walk. Short walks check every active position;
    /// on many qubits, where gates far down the queue are ready, the walks
    /// outgrow the window and check a sample of positions.
    #[test]
    fn frontier_scans_match_the_slot_walks_at_every_step() {
        let mut compared = 0;
        let walks = (0..40)
            .map(random_walk)
            .chain((0..4).map(|seed| random_walk_of(seed, 100..=299, 300..400)));
        for (seed, walk) in walks.enumerate() {
            let (c, dag) = (&walk.circuit, &walk.dag);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut state = walk.state.clone();
            let (_, ready0, remaining0) = &walk.steps[0];
            let mut frontier = Frontier::new(c, ready0, &state, remaining0);
            for (k, (pending, ready, remaining)) in walk.steps.iter().enumerate() {
                let n = c.len() as u32;
                let set = |words: &[u64]| -> Vec<GateId> {
                    Ranks::new(words, 0, n).map(|r| remaining.gate(r)).collect()
                };
                let ready_where = |local: bool| -> Vec<GateId> {
                    let mut gates: Vec<GateId> = pending
                        .iter()
                        .copied()
                        .filter(|&g| ready.is_ready(g) && is_local(c, &state, g) == local)
                        .collect();
                    gates.sort_by_key(|&g| remaining.rank(g));
                    gates
                };
                assert_eq!(
                    set(&frontier.local),
                    ready_where(true),
                    "seed {seed} step {k}"
                );
                assert_eq!(
                    set(&frontier.cross),
                    ready_where(false),
                    "seed {seed} step {k}"
                );

                let sampled = |pos: usize| pending.len() <= 2 * REORDER_WINDOW || pos % 29 < 2;
                for (pos, &active) in pending.iter().enumerate().filter(|&(p, _)| sampled(p)) {
                    let rank = remaining.rank(active);
                    let (ranks, _) = frontier.cross_window(remaining, rank);
                    let got: Vec<GateId> = ranks.map(|r| remaining.gate(r)).collect();
                    assert_eq!(got, batch_slot_walk(c, &state, pending, ready, pos));
                    for modulus in [1, 3, 7, 1000] {
                        let qualifies = |g: GateId| g.0.is_multiple_of(modulus);
                        let (found, reach) = frontier.find_cross(remaining, rank, qualifies);
                        let found = found.map(|r| remaining.gate(r));
                        let want = reorder_slot_walk(c, &state, pending, ready, pos, qualifies);
                        assert_eq!((found, reach), want, "seed {seed} step {k} pos {pos}");
                        compared += 1;
                    }
                }
                let drained = drain_frontier(
                    c,
                    dag,
                    &state,
                    frontier.clone(),
                    ready.clone(),
                    remaining.clone(),
                );
                let want = drain_slot_walk(c, dag, &state, pending.clone(), ready.clone());
                assert_eq!(drained, want, "seed {seed} step {k}");

                // Hop a random ion to a neighbouring trap, then retire the
                // gate the walk executes next.
                if rng.gen_bool(0.5) {
                    let ion = IonId(rng.gen_range(0..c.num_qubits()));
                    let from = state.trap_of(ion);
                    let to = TrapId(if from.0 == 0 { 1 } else { from.0 - 1 });
                    if !state.is_full(to) {
                        state.shuttle(ion, to).unwrap();
                        frontier.moved(ready, &state, remaining, ion);
                    }
                }
                if let Some((next, ready, remaining)) = walk.steps.get(k + 1) {
                    let g = *pending.iter().find(|g| !next.contains(g)).unwrap();
                    frontier.retire(c, dag, ready, &state, remaining, g);
                }
            }
        }
        assert!(compared > 10_000, "{compared} comparisons");
    }

    #[test]
    fn ranks_yield_exactly_the_set_bits_in_range() {
        let words = [0x8000_0000_0000_0001u64, 0, 0b1011];
        let all = |lo, hi| Ranks::new(&words, lo, hi).collect::<Vec<_>>();
        assert_eq!(all(0, 192), vec![0, 63, 128, 129, 131]);
        assert_eq!(all(1, 130), vec![63, 128, 129]);
        assert_eq!(all(64, 128), Vec::<u32>::new());
        assert_eq!(all(129, 129), Vec::<u32>::new());
        assert_eq!(all(140, 3), Vec::<u32>::new());
    }
}
