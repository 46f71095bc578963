//! Initial mapping policies (greedy interaction placement, \[14\] in the paper).

use crate::config::MappingPolicy;
use crate::error::CompileError;
use qccd_circuit::Circuit;
use qccd_machine::{InitialMapping, MachineSpec, TrapId};

/// Computes the initial ion→trap placement for `circuit` on `spec` under
/// the chosen policy.
///
/// The greedy policy places qubits in order of first use; each qubit goes
/// to the trap (with remaining balanced capacity) holding the qubits it
/// interacts with most, ties to the lowest trap index. This is the "popular
/// greedy initial mapping policy" the paper uses for both compilers
/// (§IV-E3), so baseline and optimized runs start from identical
/// placements. With balanced capacity that rule always picks the lowest
/// non-full trap, so it reduces to filling traps in first-use order, in
/// O(qubits + gates).
///
/// # Errors
///
/// Returns [`CompileError::CircuitTooLarge`] if the machine cannot host the
/// circuit's qubits.
pub fn initial_mapping(
    circuit: &Circuit,
    spec: &MachineSpec,
    policy: MappingPolicy,
) -> Result<InitialMapping, CompileError> {
    let n = circuit.num_qubits();
    if n > spec.initial_capacity() {
        return Err(CompileError::CircuitTooLarge {
            qubits: n,
            capacity: spec.initial_capacity(),
        });
    }
    match policy {
        MappingPolicy::RoundRobin => {
            InitialMapping::round_robin(spec, n).map_err(CompileError::from)
        }
        MappingPolicy::GreedyInteraction => Ok(greedy(circuit, spec)),
        MappingPolicy::RandomBalanced { seed } => Ok(random_balanced(circuit, spec, seed)),
    }
}

/// Load-balanced random placement: a random qubit permutation dealt to
/// traps round-robin. Keeps per-trap loads within one of each other while
/// destroying all interaction locality — the pessimistic mapping baseline.
fn random_balanced(circuit: &Circuit, spec: &MachineSpec, seed: u64) -> InitialMapping {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let n = circuit.num_qubits();
    let mut order: Vec<u32> = (0..n).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let num_traps = spec.num_traps();
    let mut traps = vec![qccd_machine::TrapId(0); n as usize];
    for (pos, &q) in order.iter().enumerate() {
        traps[q as usize] = qccd_machine::TrapId(pos as u32 % num_traps);
    }
    InitialMapping::from_traps(spec, traps)
        .expect("round-robin dealing never exceeds initial capacity (capacity check ran above)")
}

/// Qubits in order of first appearance in the program; untouched qubits
/// last, in index order.
fn first_use_order(circuit: &Circuit) -> Vec<u32> {
    let n = circuit.num_qubits() as usize;
    let mut first_use = vec![usize::MAX; n];
    for (pos, g) in circuit.gates().iter().enumerate() {
        for q in g.qubits.iter() {
            if first_use[q.index()] == usize::MAX {
                first_use[q.index()] = pos;
            }
        }
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&q| (first_use[q as usize], q));
    order
}

fn greedy(circuit: &Circuit, spec: &MachineSpec) -> InitialMapping {
    let n = circuit.num_qubits() as usize;
    let num_traps = spec.num_traps() as usize;
    // Balance the initial load across traps (as QCCDSim's placement does):
    // a trap takes at most ceil(n / traps) ions, never exceeding the
    // initial capacity. Balanced slack keeps excess capacity available
    // everywhere, which both compilers rely on during execution.
    let cap = (n.div_ceil(num_traps)).min(spec.initial_capacity_per_trap() as usize);

    // The interaction rule sends each qubit to the non-full trap holding
    // the most interaction weight with it, ties to the lowest index. Under
    // that rule every trap before the lowest non-full one is full and every
    // trap after it is empty: an empty trap has affinity 0, so it can only
    // tie, and loses the tie to the lowest non-full trap. So that trap is
    // always chosen, and the rule fills the traps in first-use order. The
    // interaction weights never decide anything; see `greedy_oracle`.
    let mut traps = vec![TrapId(0); n];
    for (pos, q) in first_use_order(circuit).into_iter().enumerate() {
        traps[q as usize] = TrapId((pos / cap) as u32);
    }
    InitialMapping::from_traps(spec, traps).expect("greedy placement respects capacities")
}

/// The greedy placement as the interaction rule states it: every placed
/// qubit is rescanned for every trap, for every qubit, O(qubits² ×
/// traps). The first-use fill must place every qubit identically.
#[cfg(test)]
fn greedy_oracle(circuit: &Circuit, spec: &MachineSpec) -> InitialMapping {
    use qccd_circuit::stats::InteractionGraph;
    use qccd_circuit::Qubit;
    let n = circuit.num_qubits() as usize;
    let graph = InteractionGraph::build(circuit);
    let num_traps = spec.num_traps() as usize;
    let cap = (n.div_ceil(num_traps)).min(spec.initial_capacity_per_trap() as usize);
    let mut trap_of: Vec<Option<TrapId>> = vec![None; n];
    let mut loads = vec![0usize; num_traps];
    for q in first_use_order(circuit) {
        let qubit = Qubit(q);
        let mut best: Option<(u64, usize)> = None;
        for (t, &load) in loads.iter().enumerate() {
            if load >= cap {
                continue;
            }
            let affinity: u64 = trap_of
                .iter()
                .enumerate()
                .filter(|(_, placed)| **placed == Some(TrapId(t as u32)))
                .map(|(other, _)| u64::from(graph.weight(qubit, Qubit(other as u32))))
                .sum();
            if best.is_none_or(|(a, _)| affinity > a) {
                best = Some((affinity, t));
            }
        }
        let (_, t) = best.expect("capacity check guarantees a non-full trap exists");
        trap_of[q as usize] = Some(TrapId(t as u32));
        loads[t] += 1;
    }
    let traps: Vec<TrapId> = trap_of.into_iter().map(|t| t.unwrap()).collect();
    InitialMapping::from_traps(spec, traps).expect("greedy placement respects capacities")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{Opcode, Qubit};
    use qccd_machine::{IonId, TrapTopology};

    #[test]
    fn greedy_co_locates_interacting_qubits() {
        // Two independent clusters: {0,1,2} heavily interacting, {3,4,5} heavily
        // interacting. With 2 traps of initial capacity 3, greedy must put
        // each cluster in one trap.
        let mut c = Circuit::new(6);
        for _ in 0..5 {
            c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
            c.push_two_qubit(Opcode::Ms, Qubit(1), Qubit(2)).unwrap();
            c.push_two_qubit(Opcode::Ms, Qubit(3), Qubit(4)).unwrap();
            c.push_two_qubit(Opcode::Ms, Qubit(4), Qubit(5)).unwrap();
        }
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let m = initial_mapping(&c, &spec, MappingPolicy::GreedyInteraction).unwrap();
        let t0 = m.trap_of(IonId(0));
        assert_eq!(m.trap_of(IonId(1)), t0);
        assert_eq!(m.trap_of(IonId(2)), t0);
        let t3 = m.trap_of(IonId(3));
        assert_ne!(t3, t0);
        assert_eq!(m.trap_of(IonId(4)), t3);
        assert_eq!(m.trap_of(IonId(5)), t3);
    }

    #[test]
    fn greedy_respects_capacity() {
        // All qubits interact with qubit 0; they cannot all fit in one trap.
        let mut c = Circuit::new(8);
        for q in 1..8 {
            c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(q)).unwrap();
        }
        let spec = MachineSpec::linear(2, 5, 1).unwrap();
        let m = initial_mapping(&c, &spec, MappingPolicy::GreedyInteraction).unwrap();
        let mut loads = [0u32; 2];
        for i in 0..8 {
            loads[m.trap_of(IonId(i)).index()] += 1;
        }
        assert!(loads.iter().all(|&l| l <= 4));
        assert_eq!(loads.iter().sum::<u32>(), 8);
    }

    #[test]
    fn rejects_oversized_circuit() {
        let c = Circuit::new(10);
        let spec = MachineSpec::linear(2, 4, 1).unwrap(); // capacity 6
        let err = initial_mapping(&c, &spec, MappingPolicy::GreedyInteraction).unwrap_err();
        assert_eq!(
            err,
            CompileError::CircuitTooLarge {
                qubits: 10,
                capacity: 6
            }
        );
    }

    #[test]
    fn round_robin_policy_works() {
        let c = Circuit::new(6);
        let spec = MachineSpec::linear(2, 4, 1).unwrap();
        let m = initial_mapping(&c, &spec, MappingPolicy::RoundRobin).unwrap();
        assert_eq!(m.trap_of(IonId(0)), TrapId(0));
        assert_eq!(m.trap_of(IonId(5)), TrapId(1));
    }

    #[test]
    fn untouched_qubits_still_placed() {
        let mut c = Circuit::new(5);
        c.push_two_qubit(Opcode::Ms, Qubit(0), Qubit(1)).unwrap();
        let spec = MachineSpec::linear(3, 3, 1).unwrap();
        let m = initial_mapping(&c, &spec, MappingPolicy::GreedyInteraction).unwrap();
        assert_eq!(m.num_ions(), 5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]
        /// The first-use fill places every qubit where the triple-loop
        /// interaction rule does, on linear, ring and grid machines.
        #[test]
        fn first_use_fill_matches_the_interaction_oracle(
            topology in 0usize..3,
            traps in 2u32..7,
            capacity in 3u32..8,
            fill in 1u32..100,
            gates in proptest::collection::vec((0u32..1000, 0u32..1000), 0..120),
        ) {
            let topology = match topology {
                0 => TrapTopology::linear(traps),
                1 => TrapTopology::ring(traps.max(3)),
                _ => TrapTopology::grid(2, traps),
            };
            let spec = MachineSpec::new(topology, capacity, 1).unwrap();
            let n = 2 + (fill * (spec.initial_capacity() - 1)) / 100;
            let mut c = Circuit::new(n);
            for (a, b) in gates {
                let (a, b) = (a % n, b % n);
                if a != b {
                    c.push_two_qubit(Opcode::Ms, Qubit(a), Qubit(b)).unwrap();
                }
            }
            proptest::prop_assert_eq!(greedy(&c, &spec), greedy_oracle(&c, &spec));
        }
    }
}
