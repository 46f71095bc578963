//! Gate-dependency DAG (§II-A of the paper, Fig. 2).
//!
//! Gates in a layer are mutually independent; every gate depends on one or
//! more gates from previous layers (specifically, on the last earlier gate
//! touching each of its operand qubits).

use crate::circuit::Circuit;
use crate::gate::GateId;
use serde::{Deserialize, Serialize};

/// The dependency graph of a circuit: per-gate predecessors/successors plus
/// the layer structure of Fig. 2b in the paper.
///
/// Dependencies are qubit-carried and gates act on at most two qubits, so
/// every gate has at most two predecessors (the last earlier gate on each
/// operand) and at most two successors (the next later gate on each
/// operand). Both are stored inline in two-slot arrays: building the DAG
/// allocates three flat vectors, not two per gate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencyDag {
    /// `preds[g]` = gates that must execute before gate `g`.
    preds: Vec<Pair>,
    /// `succs[g]` = gates that directly depend on gate `g`.
    succs: Vec<Pair>,
    /// `layer[g]` = 0-based layer of gate `g` (longest-path depth).
    layer: Vec<u32>,
    /// Number of layers (circuit depth in gates).
    layer_count: u32,
}

/// Up to two gate ids in insertion order; slots past `len` stay
/// `GateId(0)`, so derived equality compares only the live prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Pair {
    ids: [GateId; 2],
    len: u8,
}

impl Pair {
    fn push(&mut self, g: GateId) {
        self.ids[usize::from(self.len)] = g;
        self.len += 1;
    }

    fn as_slice(&self) -> &[GateId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl DependencyDag {
    /// Builds the DAG for `circuit`.
    ///
    /// Dependencies are qubit-carried: gate `g` depends on the most recent
    /// earlier gate acting on each of `g`'s qubits. The layer of a gate is
    /// `1 + max(layer of predecessors)` (0 for sources), exactly the layered
    /// view the paper draws in Fig. 2b.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds = vec![Pair::default(); n];
        let mut succs = vec![Pair::default(); n];
        let mut layer: Vec<u32> = vec![0; n];
        // Last gate that touched each qubit, if any.
        let mut last_on_qubit: Vec<Option<GateId>> = vec![None; circuit.num_qubits() as usize];
        let mut layer_count = 0u32;

        for gate in circuit.gates() {
            let gi = gate.id.index();
            for q in gate.qubits.iter() {
                if let Some(prev) = last_on_qubit[q.index()] {
                    // Avoid duplicate edges when both operands were last
                    // touched by the same gate.
                    if !preds[gi].as_slice().contains(&prev) {
                        preds[gi].push(prev);
                        succs[prev.index()].push(gate.id);
                    }
                    let candidate = layer[prev.index()] + 1;
                    if candidate > layer[gi] {
                        layer[gi] = candidate;
                    }
                }
                last_on_qubit[q.index()] = Some(gate.id);
            }
            if !circuit.gates().is_empty() {
                layer_count = layer_count.max(layer[gi] + 1);
            }
        }

        DependencyDag {
            preds,
            succs,
            layer,
            layer_count,
        }
    }

    /// Number of gates in the DAG.
    pub fn len(&self) -> usize {
        self.layer.len()
    }

    /// Returns `true` if the DAG has no gates.
    pub fn is_empty(&self) -> bool {
        self.layer.is_empty()
    }

    /// Number of layers (0 for an empty circuit).
    pub fn layer_count(&self) -> u32 {
        self.layer_count
    }

    /// The 0-based layer of a gate.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a gate of the underlying circuit.
    pub fn layer_of(&self, g: GateId) -> u32 {
        self.layer[g.index()]
    }

    /// Direct predecessors of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a gate of the underlying circuit.
    pub fn predecessors(&self, g: GateId) -> &[GateId] {
        self.preds[g.index()].as_slice()
    }

    /// Direct successors of `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a gate of the underlying circuit.
    pub fn successors(&self, g: GateId) -> &[GateId] {
        self.succs[g.index()].as_slice()
    }

    /// Gates grouped by layer, each layer in ascending gate order.
    pub fn layers(&self) -> Vec<Vec<GateId>> {
        let mut out = vec![Vec::new(); self.layer_count as usize];
        for (i, &l) in self.layer.iter().enumerate() {
            out[l as usize].push(GateId(i as u32));
        }
        out
    }

    /// A topological order of all gates: by layer, then by gate id.
    ///
    /// This is the paper's "earliest-ready-gate-first" baseline execution
    /// order (§III-B): topologically sorted, breaking ties by program order.
    pub fn topological_order(&self) -> Vec<GateId> {
        // Counting sort on the layer: ids enter their layer's bucket in
        // ascending order, so ties keep program order without a sort.
        let mut next = vec![0usize; self.layer_count as usize + 1];
        for &l in &self.layer {
            next[l as usize + 1] += 1;
        }
        for l in 1..next.len() {
            next[l] += next[l - 1];
        }
        let mut order = vec![GateId(0); self.layer.len()];
        for (i, &l) in self.layer.iter().enumerate() {
            order[next[l as usize]] = GateId(i as u32);
            next[l as usize] += 1;
        }
        order
    }

    /// Creates a [`ReadySet`] tracker for incremental scheduling over this DAG.
    pub fn ready_set(&self) -> ReadySet {
        ReadySet::new(self)
    }

    /// Verifies that `order` is a valid topological execution order covering
    /// every gate exactly once. Used by tests and the schedule validator.
    pub fn is_valid_execution_order(&self, order: &[GateId]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut position = vec![usize::MAX; self.len()];
        for (i, g) in order.iter().enumerate() {
            if g.index() >= self.len() || position[g.index()] != usize::MAX {
                return false;
            }
            position[g.index()] = i;
        }
        for (gi, preds) in self.preds.iter().enumerate() {
            for p in preds.as_slice() {
                if position[p.index()] >= position[gi] {
                    return false;
                }
            }
        }
        true
    }
}

/// Incremental ready-gate tracker (Kahn's algorithm state).
///
/// The compiler's scheduling loop marks gates done one at a time; `ReadySet`
/// maintains which gates have all predecessors satisfied.
#[derive(Debug, Clone)]
pub struct ReadySet {
    indegree: Vec<u32>,
    done: Vec<bool>,
    remaining: usize,
}

impl ReadySet {
    fn new(dag: &DependencyDag) -> Self {
        let mut indegree = vec![0u32; dag.len()];
        for (gi, preds) in dag.preds.iter().enumerate() {
            indegree[gi] = u32::from(preds.len);
        }
        ReadySet {
            indegree,
            done: vec![false; dag.len()],
            remaining: dag.len(),
        }
    }

    /// Returns `true` if `g` has not yet been marked done but all its
    /// predecessors have.
    pub fn is_ready(&self, g: GateId) -> bool {
        !self.done[g.index()] && self.indegree[g.index()] == 0
    }

    /// Returns `true` if `g` has been marked done.
    pub fn is_done(&self, g: GateId) -> bool {
        self.done[g.index()]
    }

    /// Number of gates not yet marked done.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Returns `true` once every gate has been marked done.
    pub fn all_done(&self) -> bool {
        self.remaining == 0
    }

    /// Marks `g` executed, unlocking its successors.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not ready (predecessors unfinished or already done) —
    /// this always indicates a scheduler bug, never user input.
    pub fn mark_done(&mut self, dag: &DependencyDag, g: GateId) {
        assert!(
            self.is_ready(g),
            "gate {g} marked done while not ready (scheduler invariant violation)"
        );
        self.done[g.index()] = true;
        self.remaining -= 1;
        for s in dag.successors(g) {
            self.indegree[s.index()] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Opcode, Qubit};

    /// The 9-gate sample program from Fig. 2a of the paper.
    fn paper_fig2_circuit() -> Circuit {
        let pairs = [
            (0, 1), // g1
            (2, 3), // g2
            (2, 0), // g3
            (4, 5), // g4
            (0, 3), // g5
            (2, 5), // g6
            (4, 5), // g7
            (0, 1), // g8
            (2, 3), // g9
        ];
        let mut c = Circuit::new(6);
        for (a, b) in pairs {
            c.push_two_qubit(Opcode::Ms, Qubit(a), Qubit(b)).unwrap();
        }
        c
    }

    #[test]
    fn fig2_layer_structure_matches_paper() {
        // Paper Fig. 2b: L0 = {g1, g2, g4}; L1 = {g3}; L2 = {g5, g6};
        // L3 = {g7, g8, g9}. Our ids are 0-based (g1 -> GateId(0)).
        let dag = paper_fig2_circuit().dependency_dag();
        assert_eq!(dag.layer_count(), 4);
        let layers = dag.layers();
        assert_eq!(layers[0], vec![GateId(0), GateId(1), GateId(3)]);
        assert_eq!(layers[1], vec![GateId(2)]);
        assert_eq!(layers[2], vec![GateId(4), GateId(5)]);
        assert_eq!(layers[3], vec![GateId(6), GateId(7), GateId(8)]);
    }

    #[test]
    fn fig2_dependencies() {
        let dag = paper_fig2_circuit().dependency_dag();
        // g5 (id 4) and g6 (id 5) both depend on g3 (id 2).
        assert!(dag.predecessors(GateId(4)).contains(&GateId(2)));
        assert!(dag.predecessors(GateId(5)).contains(&GateId(2)));
        // g3 depends on g1 and g2 (order follows operand order: q2 then q0).
        let mut preds = dag.predecessors(GateId(2)).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![GateId(0), GateId(1)]);
    }

    #[test]
    fn topological_order_is_valid_and_layer_sorted() {
        let dag = paper_fig2_circuit().dependency_dag();
        let order = dag.topological_order();
        assert!(dag.is_valid_execution_order(&order));
        for w in order.windows(2) {
            assert!(dag.layer_of(w[0]) <= dag.layer_of(w[1]));
        }
    }

    #[test]
    fn paper_fig2c_order_is_valid() {
        // Fig. 2c: g2 g1 g4 g3 g5 g6 g8 g9 g7 (1-based names).
        let dag = paper_fig2_circuit().dependency_dag();
        let order: Vec<GateId> = [1, 0, 3, 2, 4, 5, 7, 8, 6]
            .into_iter()
            .map(GateId)
            .collect();
        assert!(dag.is_valid_execution_order(&order));
    }

    #[test]
    fn invalid_orders_rejected() {
        let dag = paper_fig2_circuit().dependency_dag();
        // g3 before its predecessor g1.
        let order: Vec<GateId> = [2, 0, 1, 3, 4, 5, 6, 7, 8]
            .into_iter()
            .map(GateId)
            .collect();
        assert!(!dag.is_valid_execution_order(&order));
        // Wrong length.
        assert!(!dag.is_valid_execution_order(&[GateId(0)]));
        // Duplicate gate.
        let order: Vec<GateId> = [0, 0, 1, 3, 2, 4, 5, 6, 7]
            .into_iter()
            .map(GateId)
            .collect();
        assert!(!dag.is_valid_execution_order(&order));
    }

    #[test]
    fn ready_set_tracks_dependencies() {
        let dag = paper_fig2_circuit().dependency_dag();
        let mut ready = dag.ready_set();
        assert!(ready.is_ready(GateId(0)));
        assert!(ready.is_ready(GateId(1)));
        assert!(!ready.is_ready(GateId(2))); // g3 blocked by g1, g2
        ready.mark_done(&dag, GateId(0));
        assert!(!ready.is_ready(GateId(2)));
        ready.mark_done(&dag, GateId(1));
        assert!(ready.is_ready(GateId(2)));
        assert_eq!(ready.remaining(), 7);
        assert!(!ready.all_done());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn ready_set_rejects_premature_done() {
        let dag = paper_fig2_circuit().dependency_dag();
        let mut ready = dag.ready_set();
        ready.mark_done(&dag, GateId(2));
    }

    #[test]
    fn empty_circuit_dag() {
        let dag = Circuit::new(3).dependency_dag();
        assert_eq!(dag.layer_count(), 0);
        assert!(dag.is_empty());
        assert!(dag.topological_order().is_empty());
        assert!(dag.is_valid_execution_order(&[]));
    }

    #[test]
    fn single_qubit_gates_chain_dependencies() {
        let mut c = Circuit::new(1);
        c.push_single_qubit(Opcode::H, Qubit(0)).unwrap();
        c.push_single_qubit(Opcode::Rz, Qubit(0)).unwrap();
        c.push_single_qubit(Opcode::H, Qubit(0)).unwrap();
        let dag = c.dependency_dag();
        assert_eq!(dag.layer_count(), 3);
        assert_eq!(dag.predecessors(GateId(2)), &[GateId(1)]);
    }

    #[test]
    fn shared_pred_not_duplicated() {
        // Gate 1 shares BOTH qubits with gate 0 — the edge must appear once.
        let mut c = Circuit::new(2);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(0)).unwrap();
        let dag = c.dependency_dag();
        assert_eq!(dag.predecessors(GateId(1)), &[GateId(0)]);
        assert_eq!(dag.successors(GateId(0)), &[GateId(1)]);
    }
}

/// Differential check of the two-slot DAG against the `Vec<Vec<GateId>>`
/// build it replaced, kept here as the oracle.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::gate::{Opcode, Qubit};
    use proptest::prelude::*;

    /// The previous build: one growable list per gate and direction.
    struct Reference {
        preds: Vec<Vec<GateId>>,
        succs: Vec<Vec<GateId>>,
        layer: Vec<u32>,
        layer_count: u32,
    }

    impl Reference {
        fn build(circuit: &Circuit) -> Self {
            let n = circuit.len();
            let mut preds: Vec<Vec<GateId>> = vec![Vec::new(); n];
            let mut succs: Vec<Vec<GateId>> = vec![Vec::new(); n];
            let mut layer = vec![0u32; n];
            let mut last: Vec<Option<GateId>> = vec![None; circuit.num_qubits() as usize];
            let mut layer_count = 0;
            for gate in circuit.gates() {
                let gi = gate.id.index();
                for q in gate.qubits.iter() {
                    if let Some(prev) = last[q.index()] {
                        if !preds[gi].contains(&prev) {
                            preds[gi].push(prev);
                            succs[prev.index()].push(gate.id);
                        }
                        layer[gi] = layer[gi].max(layer[prev.index()] + 1);
                    }
                    last[q.index()] = Some(gate.id);
                }
                layer_count = layer_count.max(layer[gi] + 1);
            }
            Reference {
                preds,
                succs,
                layer,
                layer_count,
            }
        }

        fn topological_order(&self) -> Vec<GateId> {
            let mut order: Vec<GateId> = (0..self.layer.len() as u32).map(GateId).collect();
            order.sort_by_key(|g| (self.layer[g.index()], g.0));
            order
        }

        fn layers(&self) -> Vec<Vec<GateId>> {
            let mut out = vec![Vec::new(); self.layer_count as usize];
            for (i, &l) in self.layer.iter().enumerate() {
                out[l as usize].push(GateId(i as u32));
            }
            out
        }
    }

    /// Random 1q/2q circuits on few qubits, so pairs repeat often (both
    /// orientations) and gates share one or both operands.
    fn circuit(qubits: u32, raw: &[(u32, u32, u32)]) -> Circuit {
        let mut c = Circuit::new(qubits);
        for &(kind, a, b) in raw {
            let (a, b) = (Qubit(a % qubits), Qubit(b % qubits));
            if kind % 3 == 0 || a == b {
                c.push_single_qubit(Opcode::Rz, a).unwrap();
            } else {
                c.push_two_qubit(Opcode::Ms, a, b).unwrap();
            }
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn two_slot_dag_matches_the_vec_of_vec_reference(
            qubits in 1u32..7,
            raw in proptest::collection::vec((0u32..9, 0u32..7, 0u32..7), 0..48),
            picks in proptest::collection::vec(any::<u32>(), 48..49),
        ) {
            let c = circuit(qubits, &raw);
            let dag = c.dependency_dag();
            let want = Reference::build(&c);
            prop_assert_eq!(dag.len(), c.len());
            prop_assert_eq!(dag.layer_count(), want.layer_count);
            for g in 0..c.len() {
                let id = GateId(g as u32);
                prop_assert_eq!(dag.predecessors(id), want.preds[g].as_slice(), "preds of {}", id);
                prop_assert_eq!(dag.successors(id), want.succs[g].as_slice(), "succs of {}", id);
                prop_assert_eq!(dag.layer_of(id), want.layer[g]);
            }
            prop_assert_eq!(dag.layers(), want.layers());
            prop_assert_eq!(dag.topological_order(), want.topological_order());

            // Retire gates in a random ready order; readiness must track
            // the reference indegrees after every step.
            let mut ready = dag.ready_set();
            let mut indegree: Vec<usize> = want.preds.iter().map(Vec::len).collect();
            let mut done = vec![false; c.len()];
            for step in 0..c.len() {
                let open: Vec<usize> =
                    (0..c.len()).filter(|&g| !done[g] && indegree[g] == 0).collect();
                for g in 0..c.len() {
                    prop_assert_eq!(ready.is_ready(GateId(g as u32)), open.contains(&g));
                }
                let g = open[picks[step % picks.len()] as usize % open.len()];
                ready.mark_done(&dag, GateId(g as u32));
                done[g] = true;
                for s in &want.succs[g] {
                    indegree[s.index()] -= 1;
                }
                prop_assert_eq!(ready.remaining(), c.len() - step - 1);
            }
            prop_assert!(ready.all_done());
        }
    }
}
